"""Count partitions of the alternating 2k-cycle whose quotient is balanced.

For each block count j this computes F(2k, j), the number of set partitions
of the cycle's 2k vertices into j blocks whose quotient graph is a d.d.c.g.
The weighted sum over j of F(2k, j) times the falling factorial (N)_j gives
N^(2k+1) times the k-th mean spectral moment of the squared ensemble.

The counts come from the balanced-quotient engine,
``graphs.balanced_quotient_counts``, applied to the alternating 2k-cycle:
a layered state dynamic program that places the cycle's vertices in order,
keeps its row indices (odd vertices) and column indices (even vertices) in
separate blocks, and prunes exactly on the imbalance mass, the edge parity
and the block cap k + 1.  ``count_brute`` is the independent oracle: it
walks the full partition lattice through the graph-core quotient and
balance predicate.  Counts are exact Python integers.
"""

from __future__ import annotations

from . import graphs
from .errors import InternalCheckError, ScaleLimitError

__all__ = [
    "count_ddcg_partitions",
    "count_brute",
    "BRUTE_MAX_K",
]

# Bell(12) ~ 4.2e6 partitions is the most the lattice-walking oracle will do.
BRUTE_MAX_K = 6


def count_ddcg_partitions(k: int) -> list[int]:
    """Exact row [F(2k, 1), ..., F(2k, k+1)] from the balanced-quotient engine.

    Raises ScaleLimitError when the engine's layers outgrow
    ``graphs.MAX_LAYER_STATES``.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    counts = graphs.balanced_quotient_counts(graphs.alternating_cycle(k))
    if any(counts[k + 2:]) or counts[0]:
        raise InternalCheckError(f"impossible block counts for k={k}: {counts}")
    return counts[1:k + 2]


def count_brute(k: int) -> list[int]:
    """Unpruned oracle: walk every partition, quotient the cycle, test balance.

    Deliberately routed through the graph-core operations rather than the
    engine so the two paths stay independent.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > BRUTE_MAX_K:
        raise ScaleLimitError(f"brute-force oracle limited to k <= {BRUTE_MAX_K}")
    cycle = graphs.alternating_cycle(k)
    buckets = [0] * (2 * k + 1)
    for partition in graphs.iter_partitions(2 * k):
        q = graphs.quotient(cycle, partition)
        if graphs.is_ddcg(q):
            buckets[partition.block_count - 1] += 1
    if any(buckets[k + 1:]):
        raise InternalCheckError(f"balanced quotient with more than k+1 blocks: {buckets}")
    return buckets[:k + 1]
