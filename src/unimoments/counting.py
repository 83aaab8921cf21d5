"""Count partitions of the alternating 2k-cycle whose quotient is balanced.

For each block count j this computes F(2k, j), the number of set partitions
of the cycle's 2k vertices into j blocks whose quotient graph is a d.d.c.g.
The weighted sum over j of F(2k, j) times the falling factorial (N)_j gives
N^(2k+1) times the k-th mean spectral moment of the squared ensemble.

The counts come from the balanced-quotient engine,
``graphs.balanced_quotient_counts``, applied to the alternating 2k-cycle:
a layered state dynamic program that places the cycle's vertices in order,
keeps its row indices (odd vertices) and column indices (even vertices) in
separate blocks, and prunes exactly on the imbalance mass and the edge
parity.  ``count_brute`` is the independent oracle: the same row from
``graphs.balanced_quotient_counts_brute``, which walks the full partition
lattice through the graph-core quotient and balance predicate.  Counts are
exact Python integers.
"""

from __future__ import annotations

from . import graphs
from .errors import InternalCheckError

__all__ = [
    "count_ddcg_partitions",
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


def count_ddcg_partitions(k: int) -> list[int]:
    """Exact row [F(2k, 1), ..., F(2k, k+1)] from the balanced-quotient engine.

    Raises ScaleLimitError when the engine's layers outgrow
    ``graphs.MAX_LAYER_STATES``.
    """
    return _row(k, graphs.balanced_quotient_counts(graphs.alternating_cycle(k)))


def count_brute(k: int) -> list[int]:
    """The same row from the partition-lattice oracle, independent of the engine.

    Raises ScaleLimitError above ``BRUTE_MAX_K``, before it walks.
    """
    return _row(k, graphs.balanced_quotient_counts_brute(graphs.alternating_cycle(k)))
