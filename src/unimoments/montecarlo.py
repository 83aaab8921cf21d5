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
They are computed in fixed batches aligned to absolute sample indices, each
batch one contiguous draw from the stream, so estimates are bit-identical for
every thread count and batch size.  A batch holds a few MiB of matrices
(``_BATCH_ENTRIES``) and writes its rows of the one preallocated trace array;
the final reduction is a single numpy pairwise sum over that index-ordered
array.  Batches run on a pool of threads in the calling process: every stage
of a batch is numpy work that releases the GIL.  Outside
``THREADED_DIMENSIONS`` the pool is one thread; inside, one per CPU and batch.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import polynomials
from .errors import InternalCheckError, ScaleLimitError
from .sampling import unimodular_batch

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
# Differences below this are floating-point residue of a deterministic
# estimand (e.g. k = 1), not statistical error; they score z = 0.
DETERMINISTIC_DIFF_FLOOR = 1e-12

_BATCH = 1024  # samples at most in a batch, the unit of work splitting
# Matrix entries at most in a batch: a complex128 stack is 4 MiB, and a batch holds
# about three.  Larger batches cost more per sample at every stage, since their
# temporaries are freshly paged in and miss the cache.  N <= 16 keeps _BATCH samples.
_BATCH_ENTRIES = 1 << 18
# Dimensions whose batches run on more than one thread.  On a 2-core host
# (estimate_moment, 1 thread against 2) a second thread costs 7-10% at N = 2, 3,
# where a batch is too little numpy work, and saves 30-52% at N = 4 to 40.  From
# N = 41 OpenBLAS spreads each complex product over the cores itself, and a second
# pool thread contends with it: 15-55% slower at N = 41, 48, 63, 64, 96 and 128.
THREADED_DIMENSIONS = range(4, 41)


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

    @property
    def max_abs_z(self) -> float:
        return max((abs(e.z) for e in self.entries), default=0.0)

    @property
    def fraction_within_4(self) -> float:
        if not self.entries:
            return 1.0
        return sum(abs(e.z) <= 4.0 for e in self.entries) / len(self.entries)

    @property
    def passed(self) -> bool:
        return self.fraction_within_4 >= 0.95 and self.max_abs_z <= 6.0


def _batch_traces(n: int, powers: tuple[int, ...], seed: int,
                  start: int, count: int) -> np.ndarray:
    """Traces tr(rho^k) of samples [start, start + count), shape (count, len(powers)).

    The content depends only on (n, powers, seed) and the absolute sample
    indices, never on the batch or worker layout.
    """
    u = unimodular_batch(n, seed, start, count)
    rho = u @ u.conj().transpose(0, 2, 1)
    del u  # the guards below hold two more stacks of this size
    rho /= n ** 2
    drift = float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max())
    if drift > HERMITIAN_DRIFT_TOL:
        raise InternalCheckError(f"non-Hermitian drift {drift:g} exceeds {HERMITIAN_DRIFT_TOL:g}")
    # every eigenvalue is >= the floor exactly when rho - floor * I is positive definite
    try:
        np.linalg.cholesky(rho - EIGENVALUE_FLOOR * np.eye(n))
    except np.linalg.LinAlgError:
        raise InternalCheckError(f"an eigenvalue lies below the floor {EIGENVALUE_FLOOR:g}") from None
    return _power_traces(rho, powers) / n


def _power_traces(rho: np.ndarray, powers: tuple[int, ...]) -> np.ndarray:
    """tr(rho^k) of each Hermitian matrix in the stack, shape (count, len(powers)).

    Powers of a Hermitian matrix are Hermitian, so tr(rho^k) is the sum of
    conj(rho^a) * rho^b over the entries, with a = floor(k/2) and b = ceil(k/2):
    the products rho^2 .. rho^ceil(max/2) suffice, two of them held at a time.
    """
    out = np.empty((rho.shape[0], len(powers)))
    lower, upper = None, rho  # rho^(j-1) and rho^j
    for j in range(1, -(-max(powers) // 2) + 1):
        if j > 1:
            lower, upper = upper, upper @ rho
        for col, k in enumerate(powers):
            if k == 2 * j:
                out[:, col] = _entrywise_inner(upper, upper)
            elif k == 2 * j - 1:
                out[:, col] = (np.trace(rho, axis1=1, axis2=2).real if j == 1
                               else _entrywise_inner(lower, upper))
    return out


def _entrywise_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real part of the sum of conj(a) * b over each matrix of two stacks."""
    rows = a.shape[0]
    return np.einsum("ij,ij->i", a.reshape(rows, -1).view(np.float64),
                     b.reshape(rows, -1).view(np.float64))


def _all_traces(n: int, powers: tuple[int, ...], samples: int, seed: int,
                workers: int | None) -> np.ndarray:
    size = max(1, min(_BATCH, _BATCH_ENTRIES // n ** 2))
    starts = range(0, samples, size)
    cpus = os.cpu_count() or 1
    width = min(workers or cpus, cpus, len(starts)) if n in THREADED_DIMENSIONS else 1
    traces = np.empty((samples, len(powers)))

    def fill(start: int) -> None:
        stop = min(start + size, samples)
        traces[start:stop] = _batch_traces(n, powers, seed, start, stop - start)

    with ThreadPoolExecutor(max_workers=width) as pool:
        list(pool.map(fill, starts))  # reading each result raises a batch's error
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
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be in [0, 2^64)")
    if workers is not None and operator.index(workers) < 1:
        raise ValueError("workers must be >= 1")
    if samples * len(powers) > MAX_TRACES:
        raise ScaleLimitError(f"samples x powers must be at most {MAX_TRACES}")


def _z_score(mean: float, std_error: float, exact: float) -> float:
    diff = mean - exact
    if abs(diff) <= DETERMINISTIC_DIFF_FLOOR:
        return 0.0
    if std_error == 0.0:
        return math.inf if diff > 0 else -math.inf
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
