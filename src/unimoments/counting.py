"""Count partitions of the alternating 2k-cycle whose quotient is balanced.

For each block count j this computes F(2k, j), the number of set partitions
of the cycle's 2k vertices into j blocks whose quotient graph is a d.d.c.g.
The weighted sum over j of F(2k, j) times the falling factorial (N)_j gives
N^(2k+1) times the k-th mean spectral moment of the squared ensemble.

The counts come from the balanced-quotient engine of ``graphs`` applied to
the alternating 2k-cycle: a layered state dynamic program that places the
cycle's vertices in order, keeps its row indices (odd vertices) and column
indices (even vertices) in separate blocks, and prunes exactly on the
imbalance mass and the edge parity.  One search of the 2k-cycle yields the
block grid of every row up to 2k, and this module keeps one grid per k, at
the widest cap searched so far, for the rows here and for
``polynomials.exact_moment``.  So a request for row k (``_cycle_grid``)
searches at most once, and that search serves every shallower row too
(``count_ddcg_rows``); a search past ``MAX_CYCLE_K``, which would outgrow
the engine's layer guard, is refused here, before it starts.
``count_brute`` is the independent oracle:
the same row from ``graphs.balanced_quotient_counts_brute``, which walks the
full partition lattice through the graph-core quotient and balance
predicate.  Counts are exact Python integers.
"""

from __future__ import annotations

import operator

from . import graphs
from .errors import InternalCheckError, ScaleLimitError

__all__ = [
    "count_ddcg_partitions",
    "count_ddcg_rows",
    "count_brute",
]


def _row(k: int, counts: list[int]) -> list[int]:
    """[F(2k, 1), ..., F(2k, k+1)] from the 2k-cycle's counts by block count, checked."""
    if counts[0] or any(counts[k + 2:]):
        raise InternalCheckError(f"impossible block counts for k={k}: {counts}")
    return counts[1:k + 2]


# The deepest cycle, and the widest cap, that a sweep of the 2K-cycle can
# reach under graphs.MAX_LAYER_STATES.  With cap c and K both >= 17, the
# sweep's first 34 vertices place at most 17 of each class, so the cap cuts
# nothing there, and they keep a superset of the 34-cycle's own states (see
# graphs._cycle_sweep), which outgrow the guard.  So a sweep with
# min(c, K) > 16 is refused before anything is built; that refuses nothing
# the guard would let through, while a smaller sweep may still outgrow it.
MAX_CYCLE_K = 16
# k -> (cap, the 2k-cycle's block grid at that cap): the widest grid searched so far
_grids: dict[int, tuple[int, dict[tuple[int, int], int]]] = {}


def _cycle_grid(k: int, cap: int) -> dict[tuple[int, int], int]:
    """The 2k-cycle's block grid, capped at ``cap`` blocks per class, or wider.

    Each class of the cycle has k vertices, so a cap of k or more gives the
    whole grid, and a grid serves every smaller cap.  When row k is kept
    narrower than min(cap, k), or not at all, one search of the 2k-cycle
    (``graphs._cycle_sweep``) yields each row j <= k at min(cap, j), kept
    unless it is kept wider.  So a kept row only widens, and the rows below
    it are kept as wide, up to their own j: row k alone decides.  Raises
    ScaleLimitError before any search when min(cap, k) exceeds MAX_CYCLE_K,
    and when the engine's layers outgrow ``graphs.MAX_LAYER_STATES``.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    cap = min(cap, k)
    if cap > MAX_CYCLE_K:
        raise ScaleLimitError(f"rows and caps past k = {MAX_CYCLE_K} outgrow "
                              f"{graphs.MAX_LAYER_STATES} layer states (got k = {k}, cap {cap})")
    if _grids.get(k, (0,))[0] < cap:
        for j, grid in enumerate(graphs._cycle_sweep(k, cap), start=1):
            if _grids.get(j, (0,))[0] < min(cap, j):
                _grids[j] = min(cap, j), grid
    return _grids[k][1]


_cycle_grid.cache_clear = _grids.clear  # emptied like the functools caches


def count_ddcg_partitions(k: int) -> list[int]:
    """Exact row [F(2k, 1), ..., F(2k, k+1)] from the balanced-quotient engine.

    Raises ScaleLimitError past k = MAX_CYCLE_K, before any search, and
    when the engine's layers outgrow ``graphs.MAX_LAYER_STATES``.
    """
    return _row(k, graphs._grid_counts(_cycle_grid(k, k), 2 * k))


def count_ddcg_rows(k_max: int) -> list[list[int]]:
    """``count_ddcg_partitions(k)`` for k = 1, ..., k_max, from one search at most."""
    _cycle_grid(k_max, k_max)  # the deepest row's search keeps every shallower one
    return [count_ddcg_partitions(k) for k in range(1, k_max + 1)]


def count_brute(k: int) -> list[int]:
    """The same row from the partition-lattice oracle, independent of the engine.

    Raises ScaleLimitError, before it builds the cycle, when the 2k-cycle
    has more than ``graphs.LATTICE_MAX_VERTICES`` vertices: past k = 6.
    """
    graphs._check_lattice(2 * operator.index(k))
    return _row(k, graphs.balanced_quotient_counts_brute(graphs.alternating_cycle(k)))
