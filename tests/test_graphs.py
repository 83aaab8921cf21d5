"""Graph-core tests: quotients, the balance predicate, and traffic values."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimoments import (
    Color,
    ColoredDigraph,
    ScaleLimitError,
    alternating_cycle,
    balanced_quotient_counts,
    balanced_quotient_counts_brute,
    count_ddcg_partitions,
    exact_moment,
    is_ddcg,
    iter_partitions,
    monomial_to_pochhammer,
    quotient,
    tau_via_quotients,
    traffic_state_brute,
)
from unimoments import graphs
from unimoments.graphs import injective_traffic_value
from unimoments.tables import REFERENCE_COUNTS
from unimoments.sampling import unimodular_batch

from test_counting import ROW_24

R, B = Color.RED, Color.BLUE
BELL = [1, 1, 2, 5, 15, 52, 203]


@st.composite
def colored_digraphs(draw, max_vertices=5, max_edges=8, min_vertices=1):
    v = draw(st.integers(min_vertices, max_vertices))
    m = draw(st.integers(0, max_edges if v else 0))
    edges = tuple(
        (
            draw(st.integers(0, v - 1)),
            draw(st.integers(0, v - 1)),
            draw(st.sampled_from([R, B])),
        )
        for _ in range(m)
    )
    return ColoredDigraph(v, edges)


@st.composite
def role_consistent_digraphs(draw, max_vertices=7, max_edges=8):
    """Graphs whose every vertex is a row index or a column index, never both.

    A role is drawn for each vertex first, then only edges that fit the
    roles: red column -> row (U[row, column]) and blue row -> column
    (conj U[row, column]).  Vertices no edge reaches stay isolated.
    """
    v = draw(st.integers(0, max_vertices))
    is_row = draw(st.lists(st.booleans(), min_size=v, max_size=v))
    rows = [x for x in range(v) if is_row[x]]
    columns = [x for x in range(v) if not is_row[x]]
    m = draw(st.integers(0, max_edges if rows and columns else 0))
    edges = []
    for _ in range(m):
        row, column = draw(st.sampled_from(rows)), draw(st.sampled_from(columns))
        edges.append((column, row, R) if draw(st.booleans()) else (row, column, B))
    return ColoredDigraph(v, tuple(edges))


@st.composite
def rgs_strings(draw, n):
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(draw(st.integers(0, max(rgs) + 1)))
    return tuple(rgs)


class TestIterPartitions:
    @pytest.mark.parametrize("n", range(7))
    def test_hits_bell_with_distinct_strings(self, n):
        parts = list(iter_partitions(n))
        assert len(parts) == BELL[n]
        assert len(set(parts)) == len(parts)
        assert all(type(p) is tuple and len(p) == n for p in parts)

    def test_yields_restricted_growth_strings_in_order(self):
        assert list(iter_partitions(3)) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_negative_size_refused(self):
        with pytest.raises(ValueError):
            list(iter_partitions(-1))


class TestAlternatingCycle:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_structure(self, k):
        g = alternating_cycle(k)
        assert g.vertex_count == 2 * k
        assert g.edge_count == 2 * k
        reds = 0
        for i, (tail, head, color) in enumerate(g.edges):
            assert (tail, head) == (i, (i + 1) % (2 * k))
            assert color == (R if i % 2 == 0 else B)
            reds += color is R
        assert reds == k

    def test_cycle_itself_balanced_only_for_k1(self):
        # singleton quotient of the 2-cycle is balanced; longer cycles are not
        assert is_ddcg(alternating_cycle(1))
        for k in range(2, 6):
            assert not is_ddcg(alternating_cycle(k))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            alternating_cycle(0)


class TestQuotient:
    def test_merge_opposite_cycle_vertices(self):
        g = quotient(alternating_cycle(2), (0, 1, 0, 2))
        assert g.vertex_count == 3
        assert g.edges == ((0, 1, R), (1, 0, B), (0, 2, R), (2, 0, B))

    def test_singleton_partition_is_identity(self):
        g = alternating_cycle(3)
        assert quotient(g, tuple(range(6))) == g

    def test_full_merge_gives_loops(self):
        g = quotient(alternating_cycle(1), (0, 0))
        assert g.vertex_count == 1
        assert g.edges == ((0, 0, R), (0, 0, B))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 elements"):
            quotient(alternating_cycle(2), (0, 1, 0))

    @pytest.mark.parametrize("rgs", [(1, 0), (0, 2), (0, -1), (0, 0.5)])
    def test_non_restricted_growth_string_rejected(self, rgs):
        with pytest.raises(ValueError, match="restricted growth string"):
            quotient(alternating_cycle(1), rgs)

    @given(colored_digraphs(), st.data())
    def test_preserves_edge_list_shape(self, g, data):
        rgs = data.draw(rgs_strings(g.vertex_count))
        q = quotient(g, rgs)
        assert q.edge_count == g.edge_count
        for (t1, h1, c1), (t2, h2, c2) in zip(g.edges, q.edges):
            assert c2 == c1
            assert (t2, h2) == (rgs[t1], rgs[h1])


class TestIsDdcg:
    def test_balanced_three_vertex_quotient(self):
        assert is_ddcg(quotient(alternating_cycle(2), (0, 1, 0, 2)))

    def test_unmatched_red_loop(self):
        assert not is_ddcg(quotient(alternating_cycle(2), (0, 0, 1, 2)))

    def test_loop_pair_balances(self):
        assert is_ddcg(ColoredDigraph(1, ((0, 0, R), (0, 0, B))))
        assert not is_ddcg(ColoredDigraph(1, ((0, 0, R),)))

    def test_parallel_edges_need_equal_multiplicity(self):
        two_red_one_blue = ColoredDigraph(2, ((0, 1, R), (0, 1, R), (1, 0, B)))
        assert not is_ddcg(two_red_one_blue)
        balanced = ColoredDigraph(2, ((0, 1, R), (0, 1, R), (1, 0, B), (1, 0, B)))
        assert is_ddcg(balanced)

    def test_same_direction_colors_do_not_cancel(self):
        # red u->v pairs with blue v->u, not with blue u->v
        assert not is_ddcg(ColoredDigraph(2, ((0, 1, R), (0, 1, B))))

    @given(colored_digraphs())
    def test_unequal_color_counts_never_balance(self, g):
        reds = sum(1 for *_, c in g.edges if c is R)
        if reds != g.edge_count - reds:
            assert not is_ddcg(g)


class TestInjectiveTrafficValue:
    def test_pochhammer_over_n(self):
        g = quotient(alternating_cycle(2), (0, 1, 0, 2))  # balanced, 3 vertices
        assert injective_traffic_value(g, 5) == Fraction(5 * 4 * 3, 5) == 12

    def test_unbalanced_vanishes(self):
        g = quotient(alternating_cycle(2), (0, 0, 1, 2))
        for n in (1, 2, 7):
            assert injective_traffic_value(g, n) == 0

    def test_more_vertices_than_dimension_vanishes(self):
        chain = ColoredDigraph(
            4,
            ((0, 1, R), (1, 0, B), (1, 2, R), (2, 1, B), (2, 3, R), (3, 2, B)),
        )
        assert is_ddcg(chain)
        assert injective_traffic_value(chain, 3) == 0
        assert injective_traffic_value(chain, 4) == Fraction(math.perm(4, 4), 4) == 6

    @pytest.mark.parametrize("n, error", [(0, ValueError), (-2, ValueError),
                                          (2.5, TypeError), (2.0, TypeError), ("2", TypeError)])
    @pytest.mark.parametrize("g", [alternating_cycle(2), quotient(alternating_cycle(2), (0, 1, 0, 2))],
                             ids=["unbalanced", "balanced"])
    def test_invalid_dimension_refused(self, g, n, error):
        with pytest.raises(error, match="dimension|interpreted as an integer"):
            injective_traffic_value(g, n)

    @settings(deadline=None)
    @given(colored_digraphs(max_vertices=6), st.sampled_from([1, 2, 3, 5]))
    @example(alternating_cycle(3), 5)
    def test_sums_over_the_partitions_to_the_traffic_state(self, g, n):
        # every vertex map factors through the partition of its fibres, and the maps
        # injective on the blocks of a partition give its quotient's injective state
        via_lattice = sum((injective_traffic_value(quotient(g, p), n)
                           for p in iter_partitions(g.vertex_count)), Fraction(0))
        assert via_lattice == tau_via_quotients(g, n)


class TestTauViaQuotients:
    def test_two_cycle(self):
        assert tau_via_quotients(alternating_cycle(1), 2) == 2

    def test_four_cycle(self):
        assert tau_via_quotients(alternating_cycle(2), 2) == 6
        assert tau_via_quotients(alternating_cycle(2), 1) == 1

    def test_matches_count_weighted_pochhammer(self):
        # tau over the 2k-cycle must equal sum_j F(2k,j) (n)_j / n, and n^(2k) times the
        # exact moment: below n = k, _block_grid's capped search against _cycle_sweep's
        for k in range(1, 7):
            row = count_ddcg_partitions(k)
            for n in (1, 2, 3, 5):
                expected = Fraction(
                    sum(c * math.perm(n, j) for j, c in enumerate(row, start=1)), n
                )
                tau = tau_via_quotients(alternating_cycle(k), n)
                assert tau == expected
                assert tau == exact_moment(k, n) * n ** (2 * k)

    def test_fourteen_isolated_vertices(self):
        # every partition balances, and sum_j S(14, j) (n)_j = n^14
        for n in (1, 2, 5):
            assert tau_via_quotients(ColoredDigraph(14, ()), n) == n**13

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_non_integer_dimension_refused_before_the_search(self, no_counting, n):
        with pytest.raises(TypeError):
            tau_via_quotients(alternating_cycle(3), n)


def restricted(grid, cap):
    return {(a, b): w for (a, b), w in grid.items() if a <= cap and b <= cap}


class TestBlockCap:
    """The engine capped at c blocks per class is the uncapped grid restricted to a, b <= c."""

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(colored_digraphs(max_vertices=7, max_edges=8, min_vertices=0),
                     role_consistent_digraphs()))
    @example(ColoredDigraph(0, ()))
    @example(alternating_cycle(3))
    @example(ColoredDigraph(5, ((1, 0, R), (1, 0, R), (0, 1, B), (0, 1, B), (3, 2, R),
                                (2, 3, B))))
    @example(ColoredDigraph(4, ((1, 2, R), (1, 2, R), (2, 1, B), (2, 1, B))))
    def test_capped_grid_is_the_restriction(self, g):
        grid = graphs._block_grid(g)
        for cap in range(1, g.vertex_count + 1):
            assert graphs._block_grid(g, cap) == restricted(grid, cap)
        counts = balanced_quotient_counts(g)
        for n in range(1, g.vertex_count + 2):
            expected = Fraction(sum(c * math.perm(n, j) for j, c in enumerate(counts)), n)
            assert tau_via_quotients(g, n) == expected

    @pytest.mark.parametrize("k", range(1, 12))
    def test_capped_cycle_grid_is_the_restriction(self, k):
        g = alternating_cycle(k)
        grid = graphs._block_grid(g)
        for cap in range(1, k + 1):
            assert graphs._block_grid(g, cap) == restricted(grid, cap)


@functools.cache
def own_grid(k, cap):
    """The 2k-cycle's grid at ``cap`` from its own search."""
    return graphs._block_grid(alternating_cycle(k), cap)


class TestCycleSweep:
    """One search of the 2K-cycle gives the grid of every 2k-cycle with k <= K."""

    @pytest.mark.parametrize("k_max", [*range(1, 11), pytest.param(11, marks=pytest.mark.slow)])
    def test_every_row_at_every_cap(self, k_max):
        for cap in range(1, 2 * k_max + 1):
            assert list(graphs._cycle_sweep(k_max, cap)) == [
                own_grid(k, cap) for k in range(1, k_max + 1)]

    def test_refused_where_the_deepest_row_is(self, monkeypatch):
        # the 2k = 10 cycle's widest layer holds 6 states, and the sweep holds its layers
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 5)
        with pytest.raises(ScaleLimitError, match="5 states"):
            list(graphs._cycle_sweep(5, 5))
        assert list(graphs._cycle_sweep(4, 4)) == [own_grid(k, 4) for k in range(1, 5)]
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 6)
        assert list(graphs._cycle_sweep(5, 5)) == [own_grid(k, 5) for k in range(1, 6)]

    def test_the_empty_graph_keeps_its_first_layer(self):
        assert graphs._block_grid(ColoredDigraph(0, ())) == {(0, 0): 1}
        assert balanced_quotient_counts(ColoredDigraph(0, ())) == [1]


class TestBalancedQuotientCounts:
    @settings(deadline=None, max_examples=200)
    @given(colored_digraphs(max_vertices=7, max_edges=8, min_vertices=0))
    @example(ColoredDigraph(0, ()))
    @example(ColoredDigraph(3, ((0, 0, R), (2, 2, B), (0, 2, R), (2, 0, B))))
    @example(ColoredDigraph(4, ((1, 2, R), (1, 2, R), (2, 1, B), (2, 1, B))))
    @example(ColoredDigraph(2, ((0, 1, R), (0, 1, B))))  # sided only if a color's roles flip
    def test_matches_partition_lattice(self, g):
        assert balanced_quotient_counts(g) == balanced_quotient_counts_brute(g)

    @settings(deadline=None, max_examples=200)
    @given(role_consistent_digraphs())
    @example(ColoredDigraph(0, ()))
    @example(ColoredDigraph(5, ((1, 0, R), (1, 0, R), (0, 1, B), (0, 1, B), (3, 2, R),
                                (2, 3, B))))  # parallel edges and an isolated vertex
    def test_rows_and_columns_match_partition_lattice(self, g):
        assert balanced_quotient_counts(g) == balanced_quotient_counts_brute(g)

    def test_lattice_oracle_refuses_before_it_walks(self, monkeypatch):
        monkeypatch.setattr(graphs, "iter_partitions", lambda n: pytest.fail("walked"))
        with pytest.raises(ScaleLimitError, match="12 vertices"):
            balanced_quotient_counts_brute(ColoredDigraph(13, ()))

    def test_vertex_classes(self):
        assert graphs._vertex_classes(alternating_cycle(2)) == [1, 0, 1, 0]
        assert graphs._vertex_classes(ColoredDigraph(3, ((0, 1, R), (0, 1, B)))) == [0, 0, 0]
        assert graphs._vertex_classes(ColoredDigraph(3, ((0, 1, R),))) == [1, 0, 0]

    @pytest.mark.parametrize("k", range(1, 14))
    def test_swapped_roles_give_the_reference_rows(self, k):
        # shifting every vertex by one makes vertex 0 a row, so the classes swap;
        # past the reference table, 2k = 24 has a known row and 2k = 26 the unshifted one
        n = 2 * k
        rotated = ColoredDigraph(n, tuple(((t + 1) % n, (h + 1) % n, c)
                                          for t, h, c in alternating_cycle(k).edges))
        assert graphs._vertex_classes(rotated)[:2] == [0, 1]
        if n in REFERENCE_COUNTS:
            expected = [0, *REFERENCE_COUNTS[n]] + [0] * (k - 1)
        elif n == 24:
            expected = [0, *ROW_24] + [0] * (k - 1)
        else:
            expected = [0, *count_ddcg_partitions(k)] + [0] * (k - 1)
        assert balanced_quotient_counts(rotated) == expected

    @pytest.mark.parametrize("k", range(1, 12))
    def test_cycle_grid_is_narayana_on_its_diagonal_and_symmetric(self, k):
        # G(a, b) counts row partitions with a blocks and column partitions with b;
        # on a + b = k + 1 they are the noncrossing pairs, counted by Narayana numbers
        grid = graphs._block_grid(alternating_cycle(k))
        assert grid == {(b, a): ways for (a, b), ways in grid.items()}
        for a in range(1, k + 1):
            assert grid[a, k + 1 - a] == math.comb(k, a) * math.comb(k, a - 1) // k

    def test_states_wider_than_a_byte(self):
        # 2E >= 256 or V >= 256 moves the packed state items to 4 bytes
        pairs = ColoredDigraph(2, ((0, 1, R),) * 64 + ((1, 0, B),) * 64)
        assert balanced_quotient_counts(pairs) == [0, 1, 1]
        bell_256 = sum(monomial_to_pochhammer([0] * 255 + [1]))
        assert sum(balanced_quotient_counts(ColoredDigraph(256, ()))) == bell_256


class TestBruteOracles:
    def test_empty_graph_is_one(self):
        g = ColoredDigraph(1, ())
        assert traffic_state_brute(g, 3, 100, seed=1) == pytest.approx(1.0)

    def test_deterministic_in_seed_and_samples(self):
        g = alternating_cycle(2)
        a = traffic_state_brute(g, 2, 500, seed=9)
        b = traffic_state_brute(g, 2, 500, seed=9)
        assert a == b
        assert a != traffic_state_brute(g, 2, 500, seed=10)

    def test_float_seed_refused(self):
        # truncated, seed 1.9 would run the stream of seed 1
        with pytest.raises(TypeError):
            traffic_state_brute(alternating_cycle(2), 2, 300, seed=1.9)

    @pytest.mark.parametrize("n, samples", [(2.0, 300), (2.5, 300), (2, 10.0), (2, "300")])
    def test_non_integer_size_refused_before_any_work(self, monkeypatch, n, samples):
        monkeypatch.setattr(graphs, "unimodular_batch", lambda *args: pytest.fail("sampled"))
        with pytest.raises(TypeError, match="interpreted as an integer"):
            traffic_state_brute(alternating_cycle(2), n, samples, seed=1)

    def test_chunking_does_not_change_the_estimate(self, monkeypatch):
        # on the graphs with loops, a lone sample summed on its own changed the last bits
        loops_2 = ColoredDigraph(2, ((0, 1, R), (0, 0, B), (0, 1, B), (1, 1, R)))
        loop_4 = ColoredDigraph(4, ((2, 1, B), (1, 2, B), (0, 0, B), (3, 2, R)))
        cases = [(alternating_cycle(2), 3), (loops_2, 6), (loop_4, 4),
                 (alternating_cycle(3), 4), (alternating_cycle(3), 6)]
        for g, n in cases:
            whole = traffic_state_brute(g, n, 50, seed=4, with_stderr=True)
            # chunks of one sample each, and of 7: 50 samples leave a lone last one
            for chunk in (1, 7):
                monkeypatch.setattr(graphs, "_BRUTE_BUDGET", chunk * n ** g.vertex_count)
                assert traffic_state_brute(g, n, 50, seed=4, with_stderr=True) == whole
            monkeypatch.undo()

    def test_chunks_stay_within_the_budget_at_the_ceiling(self, monkeypatch):
        counts = []

        def recording(n, seed, start, count):
            counts.append(count)
            return unimodular_batch(n, seed, start, count)

        monkeypatch.setattr(graphs, "unimodular_batch", recording)
        traffic_state_brute(alternating_cycle(3), 6, 30, seed=1)
        assert counts and max(counts) * 6 ** 6 <= graphs._BRUTE_BUDGET

    @pytest.mark.parametrize("samples", [0, -3])
    def test_fewer_than_one_sample_refused(self, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            traffic_state_brute(alternating_cycle(1), 2, samples, seed=0)

    def test_two_cycle_matches_quotient_sum(self):
        g = alternating_cycle(1)
        mean, se = traffic_state_brute(g, 2, 3000, seed=3, with_stderr=True)
        assert abs(mean - 2) <= 4 * se + 1e-9

    def test_injective_matches_exact_value(self):
        g = quotient(alternating_cycle(2), (0, 1, 0, 2))
        mean, se = injective_map_mean(g, 3, 3000, seed=5)
        exact = injective_traffic_value(g, 3)  # (3)_3 / 3 = 2
        assert abs(mean - float(exact)) <= 4 * se + 1e-9

    def test_injective_vanishes_when_unbalanced(self):
        g = quotient(alternating_cycle(2), (0, 0, 1, 2))
        mean, se = injective_map_mean(g, 3, 3000, seed=6)
        assert abs(mean) <= 4 * se + 1e-9

    def test_scale_refusal(self):
        with pytest.raises(ScaleLimitError):
            traffic_state_brute(alternating_cycle(4), 2, 100, seed=0)
        with pytest.raises(ScaleLimitError):
            traffic_state_brute(alternating_cycle(2), 7, 100, seed=0)


def literal_map_sum(g, u, injective):
    """The edge-entry product of one matrix summed over every (injective) vertex map, over n."""
    n = u.shape[0]
    total = 0j
    for f in itertools.product(range(n), repeat=g.vertex_count):
        if injective and len(set(f)) < len(f):
            continue
        term = 1 + 0j
        for tail, head, color in g.edges:
            term *= u[f[head], f[tail]] if color is R else np.conj(u[f[tail], f[head]])
        total += term
    return total / n


def injective_map_mean(g, n, samples, seed):
    """Mean and standard error of ``literal_map_sum`` over injective maps, over sampled U."""
    values = np.array([literal_map_sum(g, u, True) for u in unimodular_batch(n, seed, 0, samples)])
    variance = (np.abs(values - values.mean()) ** 2).sum() / (samples - 1)
    return values.mean(), np.sqrt(variance / samples)


class TestBruteContraction:
    """The contraction of the brute-force oracle is the literal sum over vertex maps.

    Every term has modulus 1, so the tolerance is 1e-12 of the sum of the
    terms' moduli.
    """

    @settings(deadline=None, max_examples=40)
    @given(colored_digraphs(max_vertices=5, max_edges=6, min_vertices=0), st.integers(1, 4))
    @example(ColoredDigraph(0, ()), 2)
    @example(ColoredDigraph(3, ()), 2)  # edgeless
    @example(ColoredDigraph(2, ((0, 0, R), (0, 0, B), (1, 1, R))), 3)  # loops
    @example(ColoredDigraph(3, ((0, 1, R), (0, 1, R), (1, 0, B))), 3)  # parallel, isolated
    @example(ColoredDigraph(4, ((1, 2, R), (2, 1, B))), 4)  # isolated
    def test_equals_the_literal_sum(self, g, n):
        maps = n ** g.vertex_count
        values = [literal_map_sum(g, u, False) for u in unimodular_batch(n, 11, 0, 3)]
        for samples in (1, 3):
            got = traffic_state_brute(g, n, samples, seed=11)
            assert abs(got - sum(values[:samples]) / samples) <= 1e-12 * maps / n


class TestBruteAgainstQuotientSum:
    @settings(deadline=None, max_examples=12)
    @given(colored_digraphs(max_vertices=4, max_edges=6), st.integers(2, 3))
    def test_tau_consistency_on_random_graphs(self, g, n):
        mean, se = traffic_state_brute(g, n, 1500, seed=17, with_stderr=True)
        exact = float(tau_via_quotients(g, n))
        assert abs(mean - exact) <= 4 * se + 1e-9

    def test_tau_consistency_at_the_scale_ceiling(self):
        # six vertices and dimension four, the largest the oracle allows
        g = alternating_cycle(3)
        mean, se = traffic_state_brute(g, 4, 1200, seed=23, with_stderr=True)
        exact = float(tau_via_quotients(g, 4))
        assert abs(mean - exact) <= 4 * se + 1e-9


class TestColoredDigraphValidation:
    @pytest.mark.parametrize("edges", [((0, 2, R),), ((0, 0.5, R), (0.5, 0, B))])
    def test_bad_endpoint(self, edges):
        with pytest.raises(ValueError):
            ColoredDigraph(2, edges)

    def test_bad_color(self):
        with pytest.raises(ValueError):
            ColoredDigraph(2, ((0, 1, "red"),))

    @pytest.mark.parametrize("vertex_count", [2.5, "2", None, -1])
    def test_bad_vertex_count(self, vertex_count):
        with pytest.raises(ValueError, match="vertex_count"):
            ColoredDigraph(vertex_count, ())
