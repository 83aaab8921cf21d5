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
``polynomials.exact_moment``.  So every request is a prefix of rows, named
by its deepest row (``count_ddcg_rows``, ``_cycle_grids``), and searches
once; a search that must outgrow the engine's layer guard is refused here,
before it starts.
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


# k -> (cap, the 2k-cycle's block grid at that cap): the widest grid searched so far
_grids: dict[int, tuple[int, dict[tuple[int, int], int]]] = {}


def _cycle_grids(k_max: int, cap: int) -> list[dict[tuple[int, int], int]]:
    """The 2k-cycle's block grid for k = 1, ..., k_max, capped at ``cap`` blocks per class, or wider.

    Each class of the cycle has k vertices, so a cap of k or more gives the
    whole grid, and a grid serves every smaller cap.  When a grid is
    missing, or narrower than asked, one search of the 2k_max-cycle
    (``graphs._cycle_sweep``) yields every row up to k_max; each row's grid
    is kept unless a wider one is kept already.  Raises ScaleLimitError
    before any search when min(cap, k_max) exceeds ``graphs.MAX_CYCLE_K``,
    and when the engine's layers outgrow ``graphs.MAX_LAYER_STATES``.
    """
    k_max = operator.index(k_max)
    if k_max < 1:
        raise ValueError("k must be a positive integer")
    if min(cap, k_max) > graphs.MAX_CYCLE_K:
        raise ScaleLimitError(f"rows and caps past k = {graphs.MAX_CYCLE_K} outgrow "
                              f"{graphs.MAX_LAYER_STATES} layer states (got k = {k_max}, cap {cap})")
    ks = range(1, k_max + 1)
    if any(_grids.get(k, (0,))[0] < min(cap, k) for k in ks):
        for k, grid in zip(ks, graphs._cycle_sweep(k_max, min(cap, k_max))):
            if _grids.get(k, (0,))[0] < min(cap, k):
                _grids[k] = min(cap, k), grid
    return [_grids[k][1] for k in ks]


_cycle_grids.cache_clear = _grids.clear  # emptied like the functools caches


def count_ddcg_partitions(k: int) -> list[int]:
    """Exact row [F(2k, 1), ..., F(2k, k+1)] from the balanced-quotient engine.

    Raises ScaleLimitError past k = ``graphs.MAX_CYCLE_K``, before any
    search, and when the engine's layers outgrow ``graphs.MAX_LAYER_STATES``.
    """
    return _row(k, graphs._grid_counts(_cycle_grids(k, k)[-1], 2 * k))


def count_ddcg_rows(k_max: int) -> list[list[int]]:
    """``count_ddcg_partitions(k)`` for k = 1, ..., k_max, from one search at most."""
    _cycle_grids(k_max, k_max)  # the deepest row's search keeps every shallower one
    return [count_ddcg_partitions(k) for k in range(1, k_max + 1)]


def count_brute(k: int) -> list[int]:
    """The same row from the partition-lattice oracle, independent of the engine.

    Raises ScaleLimitError, before it builds the cycle, when the 2k-cycle
    has more than ``graphs.LATTICE_MAX_VERTICES`` vertices: past k = 6.
    """
    graphs._check_lattice(2 * operator.index(k))
    return _row(k, graphs.balanced_quotient_counts_brute(graphs.alternating_cycle(k)))
