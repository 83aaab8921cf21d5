"""Monte Carlo validation of the exact spectral-moment polynomials.

Samples matrices with i.i.d. unit-circle entries, forms the squared ensemble
rho = U U* / N^2, and estimates E[tr(rho^k)] (normalized trace) to score
against the exact value Q_k(N) / N^(2k+1).  Both entry points run one
pipeline: check the inputs, compute every exact value (so that an exact
value the engine refuses stops the run before any sample), sample each
dimension once, and score each (n, k) as a ``MomentEstimate`` with its
mean, standard error, exact value and z.  No sample needs its spectrum:
the products rho^2 .. rho^ceil(k/2) serve every power up to k at once, and
a Cholesky factorisation of rho - floor * I checks that no eigenvalue lies
below the floor.

Determinism contract: sample i is a fixed slice of the seed's Philox stream
(see ``sampling``), so per-sample traces depend only on (seed, sample index).
Each entry is a uniform 256th root of unity, one stream byte looked up in a
table, and the traces have exactly the means and variances they have under
the uniform circle (``sampling`` has the degree bound).  Traces are computed
in fixed batches aligned to absolute sample indices, each batch one
contiguous draw from the stream, so estimates are bit-identical for every
thread count and batch size on one host.  Across hosts a sample can differ
only through the table, which the platform's complex exp builds once per
process; the last digits of a trace can differ too, since BLAS picks its
kernels by CPU.  A batch holds a few MiB of matrices
(``_BATCH_ENTRIES``) and writes its rows of the one preallocated trace array;
the final reduction is a single numpy pairwise sum over that index-ordered
array.  Batches run on a pool of threads in the calling process, one per CPU
and batch, with numpy's BLAS held to one thread meanwhile so that the two do
not contend for the cores.  ``_BATCH_ENTRIES`` bounds the batches in flight
together, not each batch.
Every stage of a batch releases the GIL, but np.matmul and np.linalg.cholesky
make one BLAS or LAPACK call per matrix, and at small N those calls were
measured not to overlap across threads.  So up to ``STACKED_MAX`` the
products and the Cholesky check are numpy arithmetic over the whole stack:
rank-1 updates, and a right-looking Cholesky that checks only its pivots.
They sum in another order than BLAS, so there a trace can differ in its last
bits from the BLAS path's, but never between layouts.

Each pool thread runs its share of the batches (every width-th) in order, in
one workspace (``_Workspace``) that every stage of every batch writes into with
``out=``.  So a batch touches the pages the last one touched.  Stacks allocated
and freed per batch would go back to the system (glibc trims a thread's arena)
and be faulted back in, zeroed, by the next batch.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import polynomials
from .errors import InternalCheckError, ScaleLimitError
from .sampling import check_seed, unimodular_batch

__all__ = [
    "MomentEstimate",
    "ValidationReport",
    "estimate_moment",
    "validate_against_exact",
]

MAX_DIMENSION = 256
MAX_POWER = 16
MIN_SAMPLES = 100
MAX_TRACES = 1 << 24  # samples x powers held: 128 MiB as float64, in one array

HERMITIAN_DRIFT_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
# A difference within this fraction of the exact value is floating-point residue of
# a deterministic estimand (k = 1, or N = 1), not statistical error: it scores z = 0.
DETERMINISTIC_DIFF_FLOOR = 1e-10

# Samples at most in a batch, the unit of work splitting.  Without this cap a batch
# at N <= 8 would hold up to _BATCH_ENTRIES / N^2 samples, and on a 2-core host the
# benchmark's mc-small-n workload (N = 2, 4, 8) peaked at 59-63 against 54 MiB RSS.
_BATCH = 1024
# Matrix entries at most in all the batches in flight together: a complex128 stack
# of them is 2 MiB.  Each pool thread's workspace holds three complex128 stacks of
# its share, and a fourth from N = 1 to STACKED_MAX, the products' terms; above
# STACKED_MAX each batch allocates the fourth, the Cholesky factor: 8 MiB in all,
# whatever the thread count.  On a 2-core host twice this budget was no faster,
# since larger stacks miss the cache at every stage, and held 9 MiB more.  On one
# thread N <= 11 keeps _BATCH samples; on two, N <= 8.
_BATCH_ENTRIES = 1 << 17
# The largest dimension whose products and Cholesky check are numpy arithmetic over
# the whole stack (``_product``, ``_positive_definite``), not one BLAS or LAPACK call
# per matrix.  At small N those calls do not overlap across pool threads: on a
# 2-core host, 1024-matrix stacks at N = 4 on two threads took 0.29-0.56 ms of wall
# time a product and 0.34-0.53 ms a factorisation, no less than on one, against
# 0.13-0.21 and 0.19-0.31 ms stacked.  estimate_moment (20,000 samples, two threads,
# medians of 21-31) took 23-27 against 26-49 ms at N = 4 (k = 2, 4, 6).  N = 5 gains
# on two threads (39-41 against 51 ms at k = 6) but loses up to a fifth on one, and
# N = 6 gains nothing on two.
STACKED_MAX = 4


def _find_blas_threads():
    """The thread-count getter and setter of numpy's OpenBLAS, or None where neither
    is found.

    The names are looked up through numpy's own extension module, since ``dlsym``
    also searches the libraries it links: numpy 2 wheels bundle scipy-openblas,
    numpy 1.x wheels a 64-bit-integer OpenBLAS, and a system or conda build the
    plain one.
    """
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as extension
    library = ctypes.CDLL(extension.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        try:
            return (getattr(library, f"{prefix}_get_num_threads{suffix}"),
                    getattr(library, f"{prefix}_set_num_threads{suffix}"))
        except AttributeError:
            continue
    return None


_BLAS_THREADS = _find_blas_threads()
_blas_lock = threading.Lock()
_blas_depth = 0  # contexts open now, across threads
_blas_saved = 0  # the count the outermost open context found


@contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS to one thread, then restore the count the outermost of
    any nested or concurrent contexts found.  Without a setter, this does nothing.

    On a 2-core host, this makes estimate_moment 38-48% faster at N = 41 to 256
    than one pool thread over threaded BLAS, which spreads each product over the
    cores for at most a fifth off at twice the CPU time; two pool threads over
    threaded BLAS took about 3x as long (1033 against 297 ms at N = 64, and 742
    against 283 ms at N = 128).

    The count is process-wide (``openblas_set_num_threads_local`` sets it for the
    whole process too), so each context counts itself in under a lock.
    """
    global _blas_depth, _blas_saved
    if _BLAS_THREADS is None:
        yield
        return
    get_threads, set_threads = _BLAS_THREADS
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get_threads()
            set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_threads(_blas_saved)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of E[tr(rho^k)] at dimension n, scored against the exact value."""

    k: int
    n: int
    mean: float
    std_error: float
    exact: float
    z: float


@dataclass(frozen=True)
class ValidationReport:
    """Per-(k, n) z-scores of the Monte Carlo means against the exact moments."""

    entries: tuple[MomentEstimate, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a report needs at least one estimate")  # else it would pass

    @property
    def max_abs_z(self) -> float:
        return max(abs(e.z) for e in self.entries)

    @property
    def fraction_within_4(self) -> float:
        return sum(abs(e.z) <= 4.0 for e in self.entries) / len(self.entries)

    @property
    def passed(self) -> bool:
        return self.fraction_within_4 >= 0.95 and self.max_abs_z <= 6.0


class _Workspace:
    """The arrays that one pool thread reuses for every batch of its share: three
    complex128 stacks of ``size`` matrices, the largest batch, of which a shorter
    batch uses leading slices, which are contiguous too, and up to ``STACKED_MAX``
    a fourth, the terms of the stacked products."""

    def __init__(self, n: int, size: int) -> None:
        # the samples, their conjugates and rho; then the Cholesky input and the powers
        self.stacks = tuple(np.empty((size, n, n), dtype=np.complex128) for _ in range(3))
        self.terms = np.empty((size, n, n), dtype=np.complex128) if n <= STACKED_MAX else None
        self.floor = EIGENVALUE_FLOOR * np.eye(n)  # rho - floor * I is the Cholesky input


def _reals(stack: np.ndarray) -> np.ndarray:
    """The first half of a contiguous complex128 stack's memory, as a float64 stack
    of its shape."""
    return stack.reshape(-1).view(np.float64)[:stack.size].reshape(stack.shape)


def _batch_traces(n: int, powers: tuple[int, ...], seed: int, start: int, count: int,
                  workspace: _Workspace) -> np.ndarray:
    """Traces tr(rho^k) of samples [start, start + count), shape (count, len(powers)).

    Every stage writes into ``workspace``; only the returned rows are allocated,
    and the Cholesky factor above ``STACKED_MAX``, a column per pivot up to it.
    The content depends only on (n, powers, seed) and the absolute sample
    indices, never on the batch or worker layout.
    """
    u, v, rho = (stack[:count] for stack in workspace.stacks)
    terms = None if workspace.terms is None else workspace.terms[:count]
    unimodular_batch(n, seed, start, count, u)  # ``out`` by position: stand-ins take *args
    _product(u, np.conjugate(u, out=v).transpose(0, 2, 1), rho, terms)
    rho /= n ** 2
    skew = np.subtract(rho, np.conjugate(rho.transpose(0, 2, 1), out=v), out=v)
    drift = float(np.abs(skew, out=_reals(u)).max())
    if not drift <= HERMITIAN_DRIFT_TOL:  # a NaN in rho fails too
        raise InternalCheckError(f"non-Hermitian drift {drift:g} exceeds {HERMITIAN_DRIFT_TOL:g}")
    # every eigenvalue is >= the floor exactly when rho - floor * I is positive definite
    if not _positive_definite(np.subtract(rho, workspace.floor, out=v), terms):
        raise InternalCheckError(f"an eigenvalue lies below the floor {EIGENVALUE_FLOOR:g}")
    return _power_traces(rho, powers, (u, v), terms) / n


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray,
             terms: np.ndarray | None) -> np.ndarray:
    """The matrix products a @ b of two stacks, written into ``out``.

    Given ``terms`` (the workspace holds them up to ``STACKED_MAX``), as n rank-1
    updates over the whole stack, column l of a times row l of b summed in order
    of l, each term written into ``terms``: numpy arithmetic, where np.matmul
    makes one BLAS call per matrix.
    """
    if terms is None:
        return np.matmul(a, b, out=out)
    np.multiply(a[:, :, :1], b[:, :1, :], out=out)
    for l in range(1, a.shape[-1]):
        out += np.multiply(a[:, :, l:l + 1], b[:, l:l + 1, :], out=terms)
    return out


def _positive_definite(a: np.ndarray, terms: np.ndarray | None) -> bool:
    """Whether every matrix of a Hermitian stack is positive definite; ``a`` is
    overwritten, and only its lower triangle is read, as LAPACK reads it.

    Given ``terms``, a right-looking Cholesky over the whole stack, each outer
    product written into ``terms``: a pivot that is not > 0 refuses, NaN
    included, as in reference LAPACK.  Without, np.linalg.cholesky, which on
    numpy's OpenBLAS tests a pivot for <= 0 only and so passes a NaN; the drift
    check refuses a NaN in rho before either runs.
    """
    if terms is None:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    for j in range(a.shape[-1]):
        pivot = a[:, j, j].real
        if not (pivot > 0).all():
            return False
        column = a[:, j + 1:, j]
        scaled = np.conjugate(column) / pivot[:, None]
        a[:, j + 1:, j + 1:] -= np.multiply(column[:, :, None], scaled[:, None, :],
                                           out=terms[:, j + 1:, j + 1:])
    return True


def _power_traces(rho: np.ndarray, powers: tuple[int, ...],
                  buffers: tuple[np.ndarray, np.ndarray], terms: np.ndarray | None) -> np.ndarray:
    """tr(rho^k) of each Hermitian matrix in the stack, shape (count, len(powers)).

    Powers of a Hermitian matrix are Hermitian, so tr(rho^k) is the sum of
    conj(rho^a) * rho^b over the entries, with a = floor(k/2) and b = ceil(k/2):
    the products rho^2 .. rho^ceil(max/2) suffice, two of them held at a time,
    written by turns into the two ``buffers``, stacks of rho's shape.
    """
    out = np.empty((rho.shape[0], len(powers)))
    lower, upper = None, rho  # rho^(j-1) and rho^j
    for j in range(1, -(-max(powers) // 2) + 1):
        if j > 1:
            lower, upper = upper, _product(upper, rho, buffers[j % 2], terms)
        for col, k in enumerate(powers):
            if k == 2 * j:
                out[:, col] = _entrywise_inner(upper, upper)
            elif k == 2 * j - 1:
                out[:, col] = (np.trace(rho, axis1=1, axis2=2).real if j == 1
                               else _entrywise_inner(lower, upper))
    return out


def _entrywise_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real part of the sum of conj(a) * b over each matrix of two stacks.

    einsum sums a row of a stack in pieces of its 8192-entry buffer, but a lone
    row in one pass, which gives other bits from N = 65 on.  So a stack of one
    matrix is summed as a stack of two views of it, and a sample's trace does
    not depend on the size of its batch.
    """
    rows = a.shape[0]
    a, b = (x.reshape(rows, -1).view(np.float64) for x in (a, b))
    if rows == 1:
        a, b = (np.broadcast_to(x, (2, x.shape[1])) for x in (a, b))
    return np.einsum("ij,ij->i", a, b)[:rows]


def _all_traces(n: int, powers: tuple[int, ...], samples: int, seed: int,
                workers: int | None) -> np.ndarray:
    width = min(workers or math.inf, os.cpu_count() or 1)
    size = max(1, min(_BATCH, _BATCH_ENTRIES // (width * n ** 2)))
    starts = range(0, samples, size)
    width = min(width, len(starts))
    traces = np.empty((samples, len(powers)))

    def fill(share: range) -> None:
        workspace = _Workspace(n, size)
        for start in share:  # a failed batch stops its thread's share here
            stop = min(start + size, samples)
            traces[start:stop] = _batch_traces(n, powers, seed, start, stop - start, workspace)

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=width) as pool:
        list(pool.map(fill, (starts[t::width] for t in range(width))))  # raises a share's error
    return traces


def _check_inputs(dimensions: tuple[int, ...], powers: tuple[int, ...],
                  samples: int, seed: int, workers: int | None) -> None:
    """The bounds shared by every Monte Carlo entry point, checked before any count."""
    for value in (*dimensions, *powers, samples, seed):
        operator.index(value)  # a float is refused here, not after its exact row is counted
    if not dimensions or not all(1 <= n <= MAX_DIMENSION for n in dimensions):
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
    if not powers or not all(1 <= k <= MAX_POWER for k in powers):
        raise ValueError(f"power must be in 1..{MAX_POWER}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    check_seed(seed)
    if workers is not None and operator.index(workers) < 1:
        raise ValueError("workers must be >= 1")
    if samples * len(powers) > MAX_TRACES:
        raise ScaleLimitError(f"samples x powers must be at most {MAX_TRACES}")


def _z_score(mean: float, std_error: float, exact: float) -> float:
    """(mean - exact) / std_error, or 0 for residue within the relative floor; only a
    fault makes every sample equal, so a zero std_error with a larger difference raises."""
    diff = mean - exact
    if abs(diff) <= DETERMINISTIC_DIFF_FLOOR * abs(exact):
        return 0.0
    if std_error == 0.0:
        raise InternalCheckError(f"every sample reads {mean!r}, off the exact {exact!r}")
    return diff / std_error


def _estimates(n_list: tuple[int, ...], powers: tuple[int, ...], samples: int, seed: int,
               workers: int | None) -> tuple[MomentEstimate, ...]:
    """One scored estimate per (n, k), n-major; one set of samples per dimension."""
    _check_inputs(n_list, powers, samples, seed, workers)
    # every exact value first, so that a refused one stops the run before sampling; widest
    # first, so that the first one's search serves them all
    exact = {(n, k): float(polynomials.exact_moment(k, n))
             for n in sorted(n_list, reverse=True) for k in sorted(powers, reverse=True)}
    estimates = []
    for n in n_list:
        traces = _all_traces(n, powers, samples, seed, workers)
        for k, column in zip(powers, traces.T):
            value = exact[n, k]
            mean = float(np.mean(column))
            stderr = float(np.std(column, ddof=1) / math.sqrt(samples))
            estimates.append(MomentEstimate(k=k, n=n, mean=mean, std_error=stderr, exact=value,
                                            z=_z_score(mean, stderr, value)))
    return tuple(estimates)


def estimate_moment(n: int, k: int, samples: int, seed: int,
                    workers: int | None = None) -> MomentEstimate:
    """Estimate E[tr(rho^k)] at dimension n from ``samples`` independent matrices,
    with its exact value and z-score.

    ``workers``, if given, caps the sampling threads; results do not depend on it.
    """
    return _estimates((n,), (k,), samples, seed, workers)[0]


def validate_against_exact(k_max: int, n_list, samples: int, seed: int,
                           workers: int | None = None) -> ValidationReport:
    """Monte Carlo vs exact for every (k, n) with k <= k_max and n in ``n_list``.

    Samples are shared across powers for a fixed dimension (one chain of
    products of rho serves the whole k-sweep).  The report passes when at
    least 95% of pairs sit within |z| <= 4 and none exceeds |z| = 6.
    ``workers`` is a cap, as in ``estimate_moment``.
    """
    return ValidationReport(_estimates(tuple(n_list), tuple(range(1, k_max + 1)),
                                       samples, seed, workers))
