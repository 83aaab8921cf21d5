"""Monte Carlo validation of the exact spectral-moment polynomials.

Samples matrices with i.i.d. unit-circle entries, forms the squared ensemble
rho = U U* / N^2, and estimates E[tr(rho^k)] (normalized trace) to compare
against the exact values.  No sample needs its spectrum: the products
rho^2 .. rho^ceil(k/2) serve every power up to k at once, and a Cholesky
factorisation of rho - floor * I checks that no eigenvalue lies below the
floor.

Determinism contract: sample i is a fixed slice of the seed's Philox stream
(see ``sampling``), so per-sample traces depend only on (seed, sample index).
They are computed in fixed batches aligned to absolute sample indices, each
batch one contiguous draw from the stream, so estimates are bit-identical for
every thread count; the final reduction is a single numpy pairwise sum over
the index-ordered array.  Batches run on a pool of threads in the calling
process: every stage of a batch is numpy work that releases the GIL.  Outside
``THREADED_DIMENSIONS`` the pool is one thread; inside, one per CPU and batch.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import polynomials
from .errors import InternalCheckError, ScaleLimitError
from .sampling import unimodular_batch

__all__ = [
    "MomentEstimate",
    "ValidationEntry",
    "ValidationReport",
    "check_inputs",
    "estimate_moment",
    "validate_against_exact",
    "z_score",
]

MAX_DIMENSION = 256
MAX_POWER = 16
MIN_SAMPLES = 100
MAX_TRACES = 1 << 24  # samples x powers held: 128 MiB as float64, twice that in the join

HERMITIAN_DRIFT_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
# Differences below this are floating-point residue of a deterministic
# estimand (e.g. k = 1), not statistical error; they score z = 0.
DETERMINISTIC_DIFF_FLOOR = 1e-12

_BATCH = 1024  # samples at most in a batch, the unit of work splitting
_BATCH_ENTRIES = 1 << 22  # matrix entries at most in a batch: 64 MiB as complex128
# Dimensions whose batches run on more than one thread.  On a 2-core host
# (estimate_moment, 1 thread against 2) a second thread costs 7-10% at N = 2, 3,
# where a batch is too little numpy work, and saves 16-17% at N = 4 and 60.  From
# N = 64 OpenBLAS already spreads each product over the cores: 2 threads are 2-8%
# slower at N = 64 and 96, and hold one more batch each.
THREADED_DIMENSIONS = range(4, 64)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of E[tr(rho^k)] at dimension n."""

    k: int
    n: int
    sample_count: int
    mean: float
    std_error: float
    seed: int


@dataclass(frozen=True)
class ValidationEntry:
    k: int
    n: int
    mean: float
    std_error: float
    exact: float
    z: float


@dataclass(frozen=True)
class ValidationReport:
    """Per-(k, n) z-scores of the Monte Carlo means against the exact moments."""

    entries: tuple[ValidationEntry, ...]
    sample_count: int
    seed: int

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
    with ThreadPoolExecutor(max_workers=width) as pool:
        return np.concatenate(list(pool.map(
            lambda start: _batch_traces(n, powers, seed, start, min(size, samples - start)),
            starts)), axis=0)


def check_inputs(dimensions: tuple[int, ...], powers: tuple[int, ...],
                 samples: int, workers: int | None) -> None:
    """The bounds shared by every Monte Carlo entry point, and by the CLI before it counts."""
    if not all(1 <= n <= MAX_DIMENSION for n in dimensions):
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
    if not powers or not all(1 <= k <= MAX_POWER for k in powers):
        raise ValueError(f"power must be in 1..{MAX_POWER}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if samples * len(powers) > MAX_TRACES:
        raise ScaleLimitError(f"samples x powers must be at most {MAX_TRACES}")


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    return mean, stderr


def z_score(mean: float, std_error: float, exact: float) -> float:
    diff = mean - exact
    if abs(diff) <= DETERMINISTIC_DIFF_FLOOR:
        return 0.0
    if std_error == 0.0:
        return math.inf if diff > 0 else -math.inf
    return diff / std_error


def estimate_moment(n: int, k: int, samples: int, seed: int,
                    workers: int | None = None) -> MomentEstimate:
    """Estimate E[tr(rho^k)] at dimension n from ``samples`` independent matrices.

    ``workers``, if given, caps the sampling threads; results do not depend on it.
    """
    check_inputs((n,), (k,), samples, workers)
    values = _all_traces(n, (k,), samples, seed, workers)[:, 0]
    mean, stderr = _mean_and_stderr(values)
    return MomentEstimate(k=k, n=n, sample_count=samples, mean=mean,
                          std_error=stderr, seed=seed)


def validate_against_exact(k_max: int, n_list, samples: int, seed: int,
                           workers: int | None = None) -> ValidationReport:
    """Monte Carlo vs exact for every (k, n) with k <= k_max and n in ``n_list``.

    Samples are shared across powers for a fixed dimension (one chain of
    products of rho serves the whole k-sweep).  The report passes when at
    least 95% of pairs sit within |z| <= 4 and none exceeds |z| = 6.
    ``workers`` is a cap, as in ``estimate_moment``.
    """
    n_list = tuple(n_list)
    powers = tuple(range(1, k_max + 1))
    check_inputs(n_list, powers, samples, workers)
    # every exact value first, so that a missing row stops the sweep before sampling
    exact = [[float(polynomials.exact_moment(k, n)) for k in powers] for n in n_list]
    entries: list[ValidationEntry] = []
    for n, row in zip(n_list, exact):
        traces = _all_traces(n, powers, samples, seed, workers)
        for k, value, column in zip(powers, row, traces.T):
            mean, stderr = _mean_and_stderr(column)
            entries.append(ValidationEntry(k=k, n=n, mean=mean, std_error=stderr,
                                           exact=value, z=z_score(mean, stderr, value)))
    return ValidationReport(entries=tuple(entries), sample_count=samples, seed=seed)
