"""Colored directed multigraphs, set partitions, and traffic-state evaluation.

The central objects are directed multigraphs whose edges carry one of two
colors (red for a matrix with i.i.d. unit-circle entries, blue for its
adjoint), set partitions of the vertex set as restricted growth strings
(plain tuples), and the quotient construction that merges the vertices
inside each block while keeping every edge.

A colored graph is *balanced* (a double directed colored graph, d.d.c.g.)
when for every ordered vertex pair (u, v), loops included, the number of red
edges u -> v equals the number of blue edges v -> u.  Balanced quotients are
exactly the ones that survive expectation over the unit circle, and each one
contributes a falling factorial to the trace of the graph operation.  This
module counts the balanced quotients of any colored graph exactly, bucketed
by block count (``balanced_quotient_counts``), and evaluates traffic states
at one n from the same search capped at n blocks per class.  For the
alternating cycles one search does for many: the 2K-cycle's layers hold the
block grid of every 2k-cycle with k <= K (``_cycle_sweep``).  Two kinds of
independent oracle check it at small scale: the partition-lattice oracle
``balanced_quotient_counts_brute``, which walks ``iter_partitions`` through
``quotient`` and ``is_ddcg``, and the brute-force Monte Carlo evaluator
``traffic_state_brute``, which sums the edge-entry product of sampled
matrices over every vertex map in one tensor contraction.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ScaleLimitError
from .sampling import ROOTS, check_seed, unimodular_batch

__all__ = [
    "Color",
    "ColoredDigraph",
    "alternating_cycle",
    "quotient",
    "is_ddcg",
    "balanced_quotient_counts",
    "balanced_quotient_counts_brute",
    "tau_via_quotients",
    "traffic_state_brute",
    "iter_partitions",
]

# The lattice oracle walks Bell(V) partitions: Bell(12) = 4,213,597 at most.
LATTICE_MAX_VERTICES = 12
# The brute-force evaluator sums over N**V vertex maps per sample.
BRUTE_MAX_N = 6
BRUTE_MAX_VERTICES = 6
# Samples x N**max(V, 2) at most in one brute-force contraction.  Its arrays hold
# the sample index and at most max(V, 2) vertex indices, so at the ceiling
# (V = N = 6) chunks of 11 samples keep each within 8 MiB.
_BRUTE_BUDGET = 1 << 19
# Samples at most: their values are one complex128 array, 128 MiB at the cap.
_BRUTE_MAX_SAMPLES = 1 << 23
# Edges at most: an entry's net exponent, at most twice the edges in the variance,
# stays below ``ROOTS`` (``sampling``).  einsum's pairwise path has no operand cap.
_BRUTE_MAX_EDGES = (ROOTS - 1) // 2

# The most states one layer of balanced_quotient_counts may hold.  Two
# layers are alive at once, and each state holds its map of block counts.
# The 2k-cycle at 2k = 32, the deepest row the Monte Carlo powers need, has
# a widest layer of 539,744 states, and its count peaked at 422 MiB RSS.
# At 2k = 34 the layer built from those 539,744 states outgrows the cap,
# and the refusal comes at 613 MiB: about 400 bytes per live state.  So a
# layer at the cap and the one built from it stay near 800 MiB, under 1 GiB.
MAX_LAYER_STATES = 1_000_000


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
        if not isinstance(self.vertex_count, int) or self.vertex_count < 0:
            raise ValueError(f"vertex_count must be a nonnegative int, got {self.vertex_count!r}")
        for tail, head, color in self.edges:
            if not (isinstance(tail, int) and isinstance(head, int)
                    and 0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise ValueError(f"edge ({tail}, {head}): endpoints must be ints in range({self.vertex_count})")
            if not isinstance(color, Color):
                raise ValueError(f"edge color must be a Color, got {color!r}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def iter_partitions(n: int):
    """Yield every set partition of {0, ..., n-1} as a restricted growth string.

    Entry i of the tuple is the block of element i.  Blocks are numbered by
    first appearance, so entry 0 is 0 and each entry exceeds the running
    maximum by at most one.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n} elements")
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def extend(i, mx):
        if i == n:
            yield tuple(rgs)
            return
        for c in range(mx + 2):
            rgs[i] = c
            yield from extend(i + 1, mx if c <= mx else c)

    yield from extend(1, 0)


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


def quotient(g: ColoredDigraph, rgs: tuple[int, ...]) -> ColoredDigraph:
    """Merge the vertices inside each block of the restricted growth string ``rgs``.

    The result has one vertex per block and keeps every edge, in order and
    with its color, with endpoints remapped to block indices.
    """
    if len(rgs) != g.vertex_count:
        raise ValueError(
            f"partition of {len(rgs)} elements does not match {g.vertex_count} vertices"
        )
    blocks = 0
    for i, b in enumerate(rgs):
        if not (isinstance(b, int) and 0 <= b <= blocks):
            raise ValueError(f"not a restricted growth string at position {i}: {rgs}")
        if b == blocks:
            blocks += 1
    edges = tuple((rgs[t], rgs[h], c) for t, h, c in g.edges)
    return ColoredDigraph(blocks, edges)


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
    if operator.index(n) < 1:
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
    search (``_layers``) counts G(a, b), the balanced pairs of a row
    partition with a blocks and a column partition with b blocks, and this
    function turns them into counts by block count with
    (N)_a (N)_b = sum_t C(a, t) C(b, t) t! (N)_(a+b-t), t being the number
    of row blocks merged with a column block.  A graph with a vertex in both
    roles keeps one class, and b = 0.

    Raises ScaleLimitError when a layer of the search outgrows
    MAX_LAYER_STATES.
    """
    return _grid_counts(_block_grid(g), g.vertex_count)


def _grid_counts(grid: dict[tuple[int, int], int], vertex_count: int) -> list[int]:
    """``balanced_quotient_counts`` of a graph with ``vertex_count`` vertices from its block grid."""
    counts = [0] * (vertex_count + 1)
    for (a, b), ways in grid.items():
        for t in range(min(a, b) + 1):
            counts[a + b - t] += ways * math.comb(a, t) * math.comb(b, t) * math.factorial(t)
    return counts


def _check_lattice(vertex_count: int) -> None:
    """Refuse a partition-lattice walk over more than LATTICE_MAX_VERTICES vertices."""
    if vertex_count > LATTICE_MAX_VERTICES:
        raise ScaleLimitError(f"partition-lattice oracle limited to {LATTICE_MAX_VERTICES} "
                              f"vertices (got {vertex_count})")


def balanced_quotient_counts_brute(g: ColoredDigraph) -> list[int]:
    """``balanced_quotient_counts`` by walking every partition of the vertices.

    Each restricted growth string quotients ``g``, and ``is_ddcg`` tests the
    quotient, so this shares only the balance predicate with the engine.
    Raises ScaleLimitError above LATTICE_MAX_VERTICES vertices, before it
    walks.
    """
    _check_lattice(g.vertex_count)
    counts = [0] * (g.vertex_count + 1)
    for rgs in iter_partitions(g.vertex_count):
        q = quotient(g, rgs)
        if is_ddcg(q):
            counts[q.vertex_count] += 1
    return counts


def _block_grid(g: ColoredDigraph, cap: int | None = None) -> dict[tuple[int, int], int]:
    """G(a, b) of ``balanced_quotient_counts`` at each (a, b) where it is not 0,
    with a, b <= ``cap`` if one is given, read off the last layer of ``_layers``.
    """
    if g.edge_count % 2:
        return {}
    for layer in _layers(g, cap):
        pass
    # at most the one key with no active block and an empty ledger (l1 <= 0 edges left)
    return next(iter(layer.values()), {})


def _key_code(g: ColoredDigraph) -> str:
    # A key is [r_0, r_1, active blocks..., (u, w, balance) per ledger entry]:
    # labels in 0..V, and |balance| <= min(edges placed, edges left) <= E/2
    # by the l1 bound.  One signed byte each whenever max(V, E) < 128.
    return "b" if max(g.vertex_count, g.edge_count) < 128 else "i"


def _layers(g: ColoredDigraph, cap: int | None):
    """Yield the layers of the block-grid search after 0, 1, ..., V vertices placed.

    A forward dynamic program over the vertices in index order assigns each
    vertex a block of its class and applies every edge when its later
    endpoint is placed.  After vertex v, a vertex is *active* if it has an
    edge to a vertex not yet placed, and the *ledger* holds, for each
    (column block u, row block w), red edges u -> w minus blue edges w -> u
    among the edges placed so far.  The completions of a prefix depend only
    on its state: the blocks of the active vertices, the ledger, and the
    block count of each class.  Blocks are relabelled by first appearance
    within their class (active vertices first, then ledger entries), and r_c
    counts the labelled blocks of class c.  A layer maps each state's key,
    which leaves out the block counts, to a map from the row and column
    block counts (a, b) to the number of prefixes that reach it.

    A new vertex of class c joins one of the r_c labelled blocks of its
    class, which leaves the map as it is, or takes the label r_c: either one
    of the m_c - r_c unlabelled blocks, which are interchangeable, or a new
    block, m_c being a (class 0) or b (class 1).  Those two make one child
    key, and for each w at (a, b) its map holds w (m_c - r_c) at (a, b) and
    w where m_c is one more.

    One prune is exact, so the counts are too: every unplaced edge moves the
    ledger's l1 mass by exactly 1, so a state whose l1 exceeds the number of
    unplaced edges dies.  So l1 has the parity of the edges placed, and
    nothing balances when the edge count is odd: ``_block_grid`` tests that
    parity, before it searches; this search does not.

    The cap is exact too.  A class's block count never falls along a path,
    so a path is dropped once a class has ``cap`` blocks and would open
    another: the label r_c is skipped when r_c = cap, and the new block when
    m_c = cap.  What is left is the uncapped grid restricted to a, b <= cap,
    which is all that (n)_a (n)_b at n = cap can see.  No class has more
    blocks than vertices, so without a cap it is ``g.vertex_count``.

    The first layer, before any vertex, holds the one empty key.  Only the
    layer just yielded and the one being built are alive at once.  Raises
    ScaleLimitError when a layer outgrows MAX_LAYER_STATES.
    """
    cap = g.vertex_count if cap is None else cap
    classes = _vertex_classes(g)
    column = max(classes, default=0)  # the class of a ledger entry's first block
    last_neighbour = list(range(g.vertex_count))
    placed_with: list[list[tuple[int, int, int]]] = [[] for _ in range(g.vertex_count)]
    for tail, head, color in g.edges:
        later = max(tail, head)
        last_neighbour[tail] = max(last_neighbour[tail], later)
        last_neighbour[head] = max(last_neighbour[head], later)
        # red u -> w adds 1 to pair (u, w); blue w -> u takes 1 from the same pair
        placed_with[later].append((tail, head, 1) if color is Color.RED else (head, tail, -1))
    code = _key_code(g)
    unset = g.vertex_count  # above every block label
    layer = {array(code, [0, 0]).tobytes(): {(0, 0): 1}}
    yield layer
    active: list[int] = []
    remaining = g.edge_count
    for v in range(g.vertex_count):
        # a slot indexes the active vertices of a key, in order, then v
        width = len(active)
        slot = {u: i for i, u in enumerate(active)}
        slot[v] = width
        edges = [(slot[x], slot[y], delta) for x, y, delta in placed_with[v]]
        remaining -= len(edges)
        new_class = classes[v]
        active = [u for u in active + [v] if last_neighbour[u] > v]
        keep_classes = [(slot[u], classes[u]) for u in active]
        nxt: dict[bytes, dict[tuple[int, int], int]] = {}
        for key, prefixes in layer.items():
            items = array(code, key)
            r = items[new_class]
            labels = list(items[2:width + 2])
            ledger = {}
            l1 = 0
            for i in range(width + 2, len(items), 3):
                ledger[items[i], items[i + 1]] = items[i + 2]
                l1 += abs(items[i + 2])
            # labels 0..r_c-1 are the labelled blocks of the new vertex's class;
            # label r_c is an unlabelled block or a new one, unless r_c = cap
            for c in range(min(r + 1, cap)):
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
                out = [0, 0]
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
                        triples.append((a, b, balance))
                loose.sort()
                for _, _, balance, u, w in loose:
                    a = columns.setdefault(u, len(columns))
                    b = rows.setdefault(w, len(rows))
                    triples.append((a, b, balance))
                triples.sort()
                for triple in triples:
                    out.extend(triple)
                out[0], out[1] = len(relabel[0]), len(relabel[1])
                child_key = array(code, out).tobytes()
                merged = nxt.setdefault(child_key, {})
                if c < r:
                    for ab, ways in prefixes.items():
                        merged[ab] = merged.get(ab, 0) + ways
                    continue
                for (a, b), ways in prefixes.items():
                    m = b if new_class else a
                    if m > r:
                        merged[a, b] = merged.get((a, b), 0) + ways * (m - r)
                    if m < cap:
                        grown = (a, b + 1) if new_class else (a + 1, b)
                        merged[grown] = merged.get(grown, 0) + ways
            if len(nxt) > MAX_LAYER_STATES:
                raise ScaleLimitError(
                    f"a balanced-quotient layer outgrew {MAX_LAYER_STATES} states"
                )
        layer = nxt
        yield layer


def _cycle_sweep(k_max: int, cap: int):
    """Yield ``_block_grid(alternating_cycle(k), cap)`` for k = 1, ..., k_max, from one search.

    The search is the 2k_max-cycle's.  Up to vertex 2k - 1 it places the
    same edges as the 2k-cycle's own search and keeps the same active
    vertices, 0 and the current one; only its l1 bound is looser, so it
    keeps a superset of the states, each with the same map.  The 2k-cycle
    then closes with blue 2k - 1 -> 0, which balances a state exactly when
    its ledger holds one entry, +1 between vertex 0's column block and
    vertex 2k - 1's row block: the key [1, 1, 0, 0, (0, 0, 1)].  So the
    2k-cycle's grid is that key's map in the layer after 2k vertices, and
    the 2k_max-cycle's own grid is the last layer's.
    """
    g = alternating_cycle(k_max)
    closing = array(_key_code(g), [1, 1, 0, 0, 0, 0, 1]).tobytes()
    for placed, layer in enumerate(_layers(g, cap)):
        if placed == g.vertex_count:
            yield next(iter(layer.values()), {})
        elif placed and placed % 2 == 0:
            yield layer.get(closing, {})


def _grid_value(grid: dict[tuple[int, int], int], n: int) -> int:
    """Sum of G(a, b) (n)_a (n)_b over a block grid: n times its graph's traffic state at n."""
    return sum(w * math.perm(n, a) * math.perm(n, b) for (a, b), w in grid.items())


def tau_via_quotients(g: ColoredDigraph, n: int) -> Fraction:
    """Exact traffic state of ``g``: the sum over balanced quotients of (n)_blocks / n.

    Summed as G(a, b) (n)_a (n)_b / n over the block grid capped at n (see
    ``balanced_quotient_counts``), since (n)_a = 0 for a > n.
    """
    if operator.index(n) < 1:
        raise ValueError("matrix dimension must be >= 1")
    return Fraction(_grid_value(_block_grid(g, n), n), n)


def traffic_state_brute(g: ColoredDigraph, n: int, samples: int, seed: int,
                        with_stderr: bool = False):
    """Monte Carlo estimate of the traffic state, summing every vertex map of sampled U.

    The mean over samples of the edge-entry product summed over the n^V
    vertex maps, over n.  The sum over maps is one einsum per chunk of
    samples, in which index x < V is vertex x and index V the sample.  A red
    edge tail -> head reads U[head, tail] and a blue one conj U[tail, head];
    a vertex that no edge reads multiplies the sum by n.  Uses no quotient,
    so it checks ``tau_via_quotients`` independently.  Deterministic given
    (seed, samples), whose seed is checked first, even with no edge to draw
    for; exponential in the vertex count, with one value held per sample,
    hence the small-scale guards.  With ``with_stderr`` returns (mean,
    standard error) instead of the mean.

    Entries are uniform 256th roots of unity (``sampling``), so the estimate
    is exact only while every entry's net exponent stays below 256, in the
    variance too: hence at most 127 edges.
    """
    n, samples = operator.index(n), operator.index(samples)
    check_seed(seed)
    if n > BRUTE_MAX_N or g.vertex_count > BRUTE_MAX_VERTICES:
        raise ScaleLimitError(f"brute-force evaluator limited to N <= {BRUTE_MAX_N} and <= "
                              f"{BRUTE_MAX_VERTICES} vertices (got N={n}, V={g.vertex_count})")
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if samples < 1:
        raise ValueError(f"need at least one sample (got {samples})")
    if samples > _BRUTE_MAX_SAMPLES:
        raise ScaleLimitError(f"brute-force evaluator limited to {_BRUTE_MAX_SAMPLES} samples "
                              f"(got {samples})")
    if len(g.edges) > _BRUTE_MAX_EDGES:
        raise ScaleLimitError(f"brute-force evaluator limited to {_BRUTE_MAX_EDGES} edges "
                              f"(got {len(g.edges)})")
    v = g.vertex_count
    values = np.full(samples, n ** v / n, dtype=np.complex128)  # with no edge
    if g.edges:
        scale = n ** (v - len({x for e in g.edges for x in e[:2]})) / n
        # equal edges read one entry, and only they: one factor each, to their count
        reads = [(color, [v, head, tail] if color is Color.RED else [v, tail, head], times)
                 for (tail, head, color), times in Counter(g.edges).items()]

        def operands(u):
            entries = {Color.RED: u, Color.BLUE: u.conj()}
            return [x for color, axes, times in reads for x in
                    (entries[color] ** times if times > 1 else entries[color], axes)] + [[v]]

        # Every factor carries the sample index and the path is planned for one
        # sample, so each sample meets the same sums in every chunk; a chunk of
        # one sample, which einsum would sum in another order, borrows the next.
        path = np.einsum_path(*operands(np.ones((1, n, n), dtype=np.complex128)),
                              optimize=("greedy", n ** v))[0]
        size = max(1, _BRUTE_BUDGET // n ** max(v, 2))
        for start in range(0, samples, size):
            count = min(size, samples - start)
            chunk = unimodular_batch(n, seed, start, max(count, 2))
            values[start:start + count] = np.einsum(*operands(chunk), optimize=path)[:count] * scale
    mean = complex(values.mean())
    # combined real+imaginary sample variance of the per-sample values (0 for one sample)
    var = float((np.abs(values - values.mean()) ** 2).sum() / max(samples - 1, 1))
    return (mean, math.sqrt(var / samples)) if with_stderr else mean
