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
``polynomials.exact_moment``.  A caller that needs many rows names them in
one call (``count_ddcg_rows``, ``_cycle_grids``), which searches once.
``count_brute`` is the independent oracle:
the same row from ``graphs.balanced_quotient_counts_brute``, which walks the
full partition lattice through the graph-core quotient and balance
predicate.  Counts are exact Python integers.
"""

from __future__ import annotations

import operator

from . import graphs
from .errors import InternalCheckError

__all__ = [
    "count_ddcg_partitions",
    "count_ddcg_rows",
    "count_brute",
    "BRUTE_MAX_K",
]

# The lattice oracle walks the 2k-cycle's Bell(2k) partitions: at k = 6,
# 4.2M of them in about a minute of CPU on a 2-core box.
BRUTE_MAX_K = graphs.LATTICE_MAX_VERTICES // 2


def _row(k: int, counts: list[int]) -> list[int]:
    """[F(2k, 1), ..., F(2k, k+1)] from the 2k-cycle's counts by block count, checked."""
    if counts[0] or any(counts[k + 2:]):
        raise InternalCheckError(f"impossible block counts for k={k}: {counts}")
    return counts[1:k + 2]


# k -> (cap, the 2k-cycle's block grid at that cap): the widest grid searched so far
_grids: dict[int, tuple[int, dict[tuple[int, int], int]]] = {}


def _cycle_grids(ks, cap: int) -> dict[int, dict[tuple[int, int], int]]:
    """The 2k-cycle's block grid for every k in ``ks``, capped at ``cap`` blocks per class, or wider.

    Each class of the cycle has k vertices, so a cap of k or more gives the
    whole grid, and a grid serves every smaller cap.  When a grid is
    missing, or narrower than asked, one search of the deepest cycle
    (``graphs._cycle_sweep``) yields every row up to max(ks); each row's
    grid is kept unless a wider one is kept already.  So a call searches at
    most once, whatever the order of ``ks``, and a caller with many rows
    passes them all in one call.  Raises ScaleLimitError when the engine's
    layers outgrow ``graphs.MAX_LAYER_STATES``.
    """
    ks = [operator.index(k) for k in ks]
    if min(ks, default=0) < 1:
        raise ValueError("k must be a positive integer")
    if any(_grids.get(k, (0,))[0] < min(cap, k) for k in ks):
        k_max = max(ks)
        for j, grid in enumerate(graphs._cycle_sweep(k_max, min(cap, k_max)), start=1):
            if _grids.get(j, (0,))[0] < min(cap, j):
                _grids[j] = min(cap, j), grid
    return {k: _grids[k][1] for k in ks}


_cycle_grids.cache_clear = _grids.clear  # emptied like the functools caches


def count_ddcg_partitions(k: int) -> list[int]:
    """Exact row [F(2k, 1), ..., F(2k, k+1)] from the balanced-quotient engine.

    Raises ScaleLimitError when the engine's layers outgrow
    ``graphs.MAX_LAYER_STATES``.
    """
    return _row(k, graphs._grid_counts(_cycle_grids((k,), k)[k], 2 * k))


def count_ddcg_rows(ks) -> list[list[int]]:
    """``count_ddcg_partitions(k)`` for every k in ``ks``, in order, from one search at most.

    The deepest row is counted first: its search keeps every shallower one.
    """
    rows = {k: count_ddcg_partitions(k) for k in sorted(set(ks), reverse=True)}
    return [rows[k] for k in ks]


def count_brute(k: int) -> list[int]:
    """The same row from the partition-lattice oracle, independent of the engine.

    Raises ScaleLimitError above ``BRUTE_MAX_K``, before it walks.
    """
    return _row(k, graphs.balanced_quotient_counts_brute(graphs.alternating_cycle(k)))
