"""Colored directed multigraphs, set partitions, and traffic-state evaluation.

The central objects are directed multigraphs whose edges carry one of two
colors (red for a matrix with i.i.d. unit-circle entries, blue for its
adjoint), set partitions of the vertex set in restricted-growth-string form,
and the quotient construction that merges the vertices inside each block
while keeping every edge.

A colored graph is *balanced* (a double directed colored graph, d.d.c.g.)
when for every ordered vertex pair (u, v), loops included, the number of red
edges u -> v equals the number of blue edges v -> u.  Balanced quotients are
exactly the ones that survive expectation over the unit circle, and each one
contributes a falling factorial to the trace of the graph operation.  This
module counts the balanced quotients of any colored graph exactly, bucketed
by block count (``balanced_quotient_counts``), and evaluates traffic states
from those counts.  The lattice path (``iter_partitions``, ``quotient``,
``is_ddcg``) and brute-force Monte Carlo evaluators stay as independent
oracles at small scale.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ScaleLimitError
from .sampling import unimodular_batch

__all__ = [
    "Color",
    "ColoredDigraph",
    "SetPartition",
    "alternating_cycle",
    "quotient",
    "is_ddcg",
    "balanced_quotient_counts",
    "injective_traffic_value",
    "tau_via_quotients",
    "traffic_state_brute",
    "injective_traffic_brute",
    "iter_partitions",
]

# Brute-force evaluators sum over N**V (or (N)_V) vertex maps per sample.
BRUTE_MAX_N = 6
BRUTE_MAX_VERTICES = 6
# Samples drawn from the stream at once by the brute-force evaluators.
_BRUTE_CHUNK = 1024

# The most states one layer of balanced_quotient_counts may hold.  Two
# layers are alive at once.  The 2k-cycle at 2k = 32, the deepest row the
# Monte Carlo powers need, has a widest layer of 808,035 states, and its
# count peaked at 288 MiB RSS; so a layer at the cap and the one built from
# it stay under 1 GiB.
MAX_LAYER_STATES = 2_000_000


class Color(Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class ColoredDigraph:
    """Directed multigraph with an ordered edge list and red/blue edge colors.

    Edges are (tail, head, color) triples; loops and parallel edges are
    allowed, and the edge order is preserved by every transformation.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Color], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for tail, head, color in self.edges:
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise ValueError(f"edge ({tail}, {head}) out of range for {self.vertex_count} vertices")
            if not isinstance(color, Color):
                raise ValueError(f"edge color must be a Color, got {color!r}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0, ..., n-1} encoded as a restricted growth string.

    ``rgs[i]`` is the block index of element i; blocks are numbered by first
    appearance, so ``rgs[0] == 0`` and each entry exceeds the running maximum
    by at most one.
    """

    rgs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rgs", tuple(self.rgs))
        mx = -1
        for i, b in enumerate(self.rgs):
            if b > mx + 1 or b < 0:
                raise ValueError(f"not a restricted growth string at position {i}: {self.rgs}")
            if b == mx + 1:
                mx = b

    @property
    def size(self) -> int:
        return len(self.rgs)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, b in enumerate(self.rgs):
            out[b].append(i)
        return out


def _iter_rgs(n: int):
    """Yield every restricted growth string of length n, reusing one buffer.

    Callers must copy the yielded list if they keep it.
    """
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def extend(i, mx):
        if i == n:
            yield rgs
            return
        for c in range(mx + 2):
            rgs[i] = c
            yield from extend(i + 1, mx if c <= mx else c)

    yield from extend(1, 0)


def iter_partitions(n: int):
    """Iterate over all set partitions of {0, ..., n-1}."""
    for rgs in _iter_rgs(n):
        yield SetPartition(tuple(rgs))


def alternating_cycle(k: int) -> ColoredDigraph:
    """The 2k-cycle whose edge colors alternate red, blue, red, blue, ...

    Vertex i connects to (i+1) mod 2k by edge e_i, red at even i.  This is
    the graph whose trace encodes the k-th power of the squared ensemble.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    two_k = 2 * k
    edges = tuple(
        (i, (i + 1) % two_k, Color.RED if i % 2 == 0 else Color.BLUE)
        for i in range(two_k)
    )
    return ColoredDigraph(two_k, edges)


def quotient(g: ColoredDigraph, partition: SetPartition) -> ColoredDigraph:
    """Merge the vertices inside each block of ``partition``, keeping all edges.

    The result has one vertex per block; the edge list keeps its length,
    order, and colors, with endpoints remapped to block indices.
    """
    if partition.size != g.vertex_count:
        raise ValueError(
            f"partition of {partition.size} elements does not match {g.vertex_count} vertices"
        )
    rgs = partition.rgs
    edges = tuple((rgs[t], rgs[h], c) for t, h, c in g.edges)
    return ColoredDigraph(partition.block_count, edges)


def is_ddcg(g: ColoredDigraph) -> bool:
    """True iff red edges u -> v and blue edges v -> u are equinumerous for all (u, v).

    Single pass over the edge list accumulating a signed count per ordered
    pair: +1 for a red edge (u, v), -1 for a blue edge whose reversal is
    (u, v).  Balanced means every accumulated count is zero.
    """
    balance: dict[tuple[int, int], int] = {}
    for tail, head, color in g.edges:
        key = (tail, head) if color is Color.RED else (head, tail)
        delta = 1 if color is Color.RED else -1
        new = balance.get(key, 0) + delta
        if new:
            balance[key] = new
        else:
            balance.pop(key, None)
    return not balance


def injective_traffic_value(g: ColoredDigraph, n: int) -> Fraction:
    """Exact injective traffic state of ``g`` with red = U, blue = U*.

    Equals (n)_|V| / n when the colored graph is balanced and 0 otherwise;
    (n)_j is the falling factorial, which vanishes once |V| > n.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not is_ddcg(g):
        return Fraction(0)
    return Fraction(math.perm(n, g.vertex_count), n)


def _vertex_classes(g: ColoredDigraph) -> list[int]:
    """Class 0 for the row indices of ``g`` and 1 for its column indices.

    A red edge stands for U[head, tail] and a blue one for conj U[tail, head],
    so a red head or a blue tail is a row, and a red tail or a blue head a
    column.  When some vertex is both (a word with U U in it, or a loop),
    every vertex is in class 0; isolated vertices are always in class 0.
    """
    classes: list[int | None] = [None] * g.vertex_count
    for tail, head, color in g.edges:
        row, column = (head, tail) if color is Color.RED else (tail, head)
        for v, c in ((row, 0), (column, 1)):
            if classes[v] not in (None, c):
                return [0] * g.vertex_count
            classes[v] = c
    return [c or 0 for c in classes]


def balanced_quotient_counts(g: ColoredDigraph) -> list[int]:
    """Entry j is the number of partitions into j blocks whose quotient of ``g`` is balanced.

    The list has ``g.vertex_count + 1`` entries; entry 0 is 1 only for the
    empty graph, whose one (empty) partition has no blocks.

    Every edge pairs a row index with a column index (``_vertex_classes``),
    and merging a row block with a column block changes no balance.  So the
    vertices are split into classes, and blocks never mix classes: the
    search counts G(a, b), the balanced pairs of a row partition with a
    blocks and a column partition with b blocks, and turns them into counts
    by block count with (N)_a (N)_b = sum_t C(a, t) C(b, t) t! (N)_(a+b-t),
    t being the number of row blocks merged with a column block.  A graph
    with a vertex in both roles keeps one class, and b = 0.

    A forward dynamic program over the vertices in index order assigns each
    vertex a block of its class and applies every edge when its later
    endpoint is placed.  After vertex v, a vertex is *active* if it has an
    edge to a vertex not yet placed, and the *ledger* holds, for each
    (column block u, row block w), red edges u -> w minus blue edges w -> u
    among the edges placed so far.  The completions of a prefix depend only
    on its state: the block count of each class, the blocks of the active
    vertices, and the ledger.  A layer maps each state to the number of
    prefixes that reach it.  Blocks are relabelled by first appearance within
    their class (active vertices first, then ledger entries), and the blocks
    of class c neither active nor in the ledger are interchangeable, so a new
    vertex of class c joins any one of them through a single state of weight
    m_c - r_c.

    Two prunes are exact, so the counts are too:

    * bound: every unplaced edge moves the ledger's l1 mass by exactly 1, so
      a state whose l1 exceeds the number of unplaced edges dies;
    * parity: for the same reason l1 always has the parity of the edges
      placed so far, so nothing balances when the edge count is odd.

    Raises ScaleLimitError when a layer outgrows MAX_LAYER_STATES.
    """
    vertex_count, edge_count = g.vertex_count, g.edge_count
    counts = [0] * (vertex_count + 1)
    if edge_count % 2:
        return counts
    classes = _vertex_classes(g)
    column = max(classes, default=0)  # the class of a ledger entry's first block
    last_neighbour = list(range(vertex_count))
    placed_with: list[list[tuple[int, int, int]]] = [[] for _ in range(vertex_count)]
    for tail, head, color in g.edges:
        later = max(tail, head)
        last_neighbour[tail] = max(last_neighbour[tail], later)
        last_neighbour[head] = max(last_neighbour[head], later)
        # red u -> w adds 1 to pair (u, w); blue w -> u takes 1 from the same pair
        placed_with[later].append((tail, head, 1) if color is Color.RED else (head, tail, -1))
    # A key is [m_0, m_1, r_0, r_1, active blocks..., (u, w, balance + E) per
    # ledger entry], with r_c the number of blocks of class c that are active
    # or in the ledger.  Every item is in 0..max(V, 2E): one byte each
    # whenever that fits.
    code = "B" if max(vertex_count, 2 * edge_count) < 256 else "I"
    layer = {array(code, [0, 0, 0, 0]).tobytes(): 1}
    active: list[int] = []
    remaining = edge_count
    for v in range(vertex_count):
        slot = {u: i for i, u in enumerate(active)}
        slot[v] = len(active)
        edges = [(slot[x], slot[y], delta) for x, y, delta in placed_with[v]]
        remaining -= len(edges)
        slot_classes = [classes[u] for u in slot]
        active = [u for u in active + [v] if last_neighbour[u] > v]
        keep = [slot[u] for u in active]
        layer = _next_layer(layer, code, slot_classes, column, edges, keep, remaining,
                            edge_count)
    for key, ways in layer.items():  # the ledger is empty: l1 <= 0 edges left
        a, b = array(code, key)[:2]
        for t in range(min(a, b) + 1):
            counts[a + b - t] += ways * math.comb(a, t) * math.comb(b, t) * math.factorial(t)
    return counts


def _next_layer(layer: dict, code: str, slot_classes: list[int], column: int, edges, keep,
                remaining: int, offset: int) -> dict:
    """Place one vertex in every state of ``layer``; see balanced_quotient_counts.

    ``slot_classes`` holds the class of each active vertex of a key of
    ``layer``, in order, then that of the new vertex; in ``edges`` and
    ``keep`` a slot indexes that list.  A ledger entry's first block has
    class ``column`` and its second class 0.
    """
    width = len(slot_classes) - 1
    new_class = slot_classes[width]
    keep_classes = [(x, slot_classes[x]) for x in keep]
    unset = offset * 2 + width + 2  # above every block label
    nxt: dict[bytes, int] = {}
    for key, ways in layer.items():
        items = array(code, key)
        m_0, m_1 = items[0], items[1]
        m_c, r = items[new_class], items[2 + new_class]
        labels = list(items[4:width + 4])
        ledger = {}
        l1 = 0
        for i in range(width + 4, len(items), 3):
            u, w, balance = items[i], items[i + 1], items[i + 2] - offset
            ledger[u, w] = balance
            l1 += abs(balance)
        # join one of the r_c touched blocks of the new vertex's class, one of
        # its m_c - r_c untouched blocks, or a new block; labels 0..r_c-1 are
        # the first kind
        same = (m_0, m_1)
        choices = [(c, same, 1) for c in range(r)]
        if m_c > r:
            choices.append((r, same, m_c - r))
        choices.append((r, (m_0 + 1, m_1) if new_class == 0 else (m_0, m_1 + 1), 1))
        for c, blocks_per_class, weight in choices:
            blocks = labels + [c]
            child = dict(ledger)
            child_l1 = l1
            for x, y, delta in edges:
                pair = (blocks[x], blocks[y])
                old = child.get(pair, 0)
                new = old + delta
                child_l1 += abs(new) - abs(old)
                if new:
                    child[pair] = new
                else:
                    del child[pair]
            if child_l1 > remaining:
                continue
            relabel: tuple[dict[int, int], dict[int, int]] = ({}, {})
            rows, columns = relabel[0], relabel[column]
            out = [*blocks_per_class, 0, 0]
            for x, cls in keep_classes:
                fresh = relabel[cls]
                out.append(fresh.setdefault(blocks[x], len(fresh)))
            triples = []
            loose = []
            for (u, w), balance in child.items():
                a, b = columns.get(u, unset), rows.get(w, unset)
                if a == unset or b == unset:
                    loose.append((a, b, balance, u, w))
                else:
                    triples.append((a, b, balance + offset))
            loose.sort()
            for _, _, balance, u, w in loose:
                a = columns.setdefault(u, len(columns))
                b = rows.setdefault(w, len(rows))
                triples.append((a, b, balance + offset))
            triples.sort()
            for triple in triples:
                out.extend(triple)
            out[2], out[3] = len(relabel[0]), len(relabel[1])
            child_key = array(code, out).tobytes()
            nxt[child_key] = nxt.get(child_key, 0) + ways * weight
        if len(nxt) > MAX_LAYER_STATES:
            raise ScaleLimitError(
                f"a balanced-quotient layer outgrew {MAX_LAYER_STATES} states"
            )
    return nxt


def tau_via_quotients(g: ColoredDigraph, n: int) -> Fraction:
    """Exact traffic state of ``g``: the sum over balanced quotients of (n)_blocks / n."""
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    counts = balanced_quotient_counts(g)
    return Fraction(sum(c * math.perm(n, j) for j, c in enumerate(counts)), n)


def _check_brute_scale(g: ColoredDigraph, n: int):
    if n > BRUTE_MAX_N or g.vertex_count > BRUTE_MAX_VERTICES:
        raise ScaleLimitError(
            f"brute-force evaluator limited to N <= {BRUTE_MAX_N} and "
            f"<= {BRUTE_MAX_VERTICES} vertices (got N={n}, V={g.vertex_count})"
        )
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")


def _edge_products(u: np.ndarray, edges, maps: np.ndarray) -> np.ndarray:
    """Product over edges of the matrix entry each vertex map selects.

    ``maps`` has shape (V, M): column m is one map from vertices to indices.
    A red edge contributes U[head, tail]; a blue edge contributes the
    conjugate of U[tail, head] (the adjoint's (head, tail) entry).
    """
    prod = np.ones(maps.shape[1], dtype=np.complex128)
    for tail, head, color in edges:
        if color is Color.RED:
            prod *= u[maps[head], maps[tail]]
        else:
            prod *= np.conj(u[maps[tail], maps[head]])
    return prod


def _brute_estimate(g, n, samples, seed, maps, with_stderr):
    values = np.empty(samples, dtype=np.complex128)
    for start in range(0, samples, _BRUTE_CHUNK):
        chunk = unimodular_batch(n, seed, start, min(_BRUTE_CHUNK, samples - start))
        for s, u in enumerate(chunk, start):
            values[s] = _edge_products(u, g.edges, maps).sum() / n
    mean = complex(values.mean())
    if not with_stderr:
        return mean
    if samples < 2:
        return mean, 0.0
    # combined real+imaginary sample variance of the per-sample values
    var = float((np.abs(values - values.mean()) ** 2).sum() / (samples - 1))
    return mean, math.sqrt(var / samples)


def traffic_state_brute(g: ColoredDigraph, n: int, samples: int, seed: int,
                        with_stderr: bool = False):
    """Monte Carlo estimate of the traffic state by literal summation over all vertex maps.

    Deterministic given (seed, samples).  Exponential in the vertex count,
    hence the small-scale guard; this is an oracle, not a production path.
    With ``with_stderr`` returns (mean, standard error) instead of the mean.
    """
    _check_brute_scale(g, n)
    v = g.vertex_count
    if v == 0:
        maps = np.zeros((0, 1), dtype=np.intp)
    else:
        maps = np.indices((n,) * v).reshape(v, -1)
    return _brute_estimate(g, n, samples, seed, maps, with_stderr)


def injective_traffic_brute(g: ColoredDigraph, n: int, samples: int, seed: int,
                            with_stderr: bool = False):
    """Monte Carlo estimate of the injective traffic state (injective vertex maps only)."""
    _check_brute_scale(g, n)
    v = g.vertex_count
    perms = list(itertools.permutations(range(n), v))
    if not perms:
        return (0j, 0.0) if with_stderr else 0j
    maps = np.array(perms, dtype=np.intp).T.reshape(v, -1)
    return _brute_estimate(g, n, samples, seed, maps, with_stderr)
