"""Cycle counter tests: engine rows vs known rows and the lattice oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unimoments import (
    InternalCheckError,
    ScaleLimitError,
    count_brute,
    count_ddcg_partitions,
    count_ddcg_rows,
    exact_moment,
)
from unimoments import counting, graphs
from unimoments.tables import REFERENCE_COUNTS

# exact rows for small k: [F(2k, 1), ..., F(2k, k+1)]
KNOWN_ROWS = {
    1: [1, 1],
    2: [1, 5, 2],
    3: [1, 19, 24, 5],
    4: [1, 69, 202, 112, 14],
    5: [1, 251, 1520, 1665, 510, 42],
}

# 2k = 24, the first row past the reference table
ROW_24 = [1, 2704155, 1682760352, 45893092377, 251500233133, 477017639031,
          402718296656, 172857596256, 40475420513, 5314016235, 385479182,
          14263680, 208012]


def one_class_row(monkeypatch, k):
    """The row with every vertex in one class, so that rows and columns may share a block.

    ``balanced_quotient_counts`` searches the cycle itself: the cycle sweep
    behind ``count_ddcg_partitions`` reads its rows off the two-class keys.
    """
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_vertex_classes", lambda g: [0] * g.vertex_count)
        return counting._row(k, graphs.balanced_quotient_counts(graphs.alternating_cycle(k)))


class TestCountRows:
    @pytest.mark.parametrize("k,row", sorted(KNOWN_ROWS.items()))
    def test_pruned_search_reproduces_known_rows(self, k, row):
        assert count_ddcg_partitions(k) == row

    def test_rows_match_the_reference_table(self):
        # through 2k = 22, the deepest reference row
        assert count_ddcg_rows(11) == [list(REFERENCE_COUNTS[2 * k]) for k in range(1, 12)]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_oracle_equivalence_small(self, k):
        assert count_brute(k) == count_ddcg_partitions(k)

    def test_footnote_identities(self):
        for k in range(1, 7):
            row = count_ddcg_partitions(k)
            assert row[0] == 1
            assert row[1] == math.comb(2 * k, k) - 1
            assert row[k] == math.comb(2 * k, k) // (k + 1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            count_ddcg_partitions(0)
        with pytest.raises(ValueError):
            count_ddcg_rows(0)
        with pytest.raises(ValueError):
            count_brute(0)

    def test_brute_scale_refusal(self):
        with pytest.raises(ScaleLimitError):
            count_brute(graphs.LATTICE_MAX_VERTICES // 2 + 1)

    def test_layer_guard(self, monkeypatch, cold_caches):
        # the k = 5 cycle needs 6 states in its widest layer (76 in one class)
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 5)
        with pytest.raises(ScaleLimitError, match="5 states"):
            count_ddcg_partitions(5)
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 6)
        assert count_ddcg_partitions(5) == KNOWN_ROWS[5]

    @pytest.mark.parametrize("search", [
        lambda: count_ddcg_partitions(17),
        lambda: count_ddcg_rows(17),
        lambda: exact_moment(17, 17),
        lambda: exact_moment(40, 17),
        lambda: counting._cycle_grid(20, 18),
    ], ids=["row", "rows", "moment at n = k", "moment at n < k", "grid"])
    def test_past_the_deepest_cycle_refused_before_the_search(self, no_counting, search):
        with pytest.raises(ScaleLimitError, match="past k = 16"):
            search()

    @pytest.mark.parametrize("k", range(1, 9))
    def test_one_class_oracle(self, monkeypatch, k):
        assert one_class_row(monkeypatch, k) == count_ddcg_partitions(k)

    def test_first_row_past_the_reference_table(self):
        assert count_ddcg_partitions(12) == ROW_24

    @pytest.mark.parametrize("k", [12, 13])
    def test_closed_form_columns_past_the_reference_table(self, k):
        row = count_ddcg_partitions(k)
        assert row[0] == 1
        assert row[1] == math.comb(2 * k, k) - 1
        assert row[k] == math.comb(2 * k, k) // (k + 1)


class TestOneSearch:
    def test_a_row_serves_every_later_request(self, block_grid_calls):
        count_ddcg_partitions(12)
        exact_moment(12, 20)
        count_ddcg_rows(7)
        exact_moment(5, 3)
        assert block_grid_calls == [(12, 12)]

    def test_rows_serve_every_shallower_request(self, block_grid_calls):
        assert count_ddcg_rows(5) == [KNOWN_ROWS[k] for k in range(1, 6)]
        assert count_ddcg_partitions(3) == KNOWN_ROWS[3]
        exact_moment(4, 2)
        assert block_grid_calls == [(5, 5)]

    def test_grids_serve_every_shallower_narrower_request(self, block_grid_calls):
        counting._cycle_grid(7, 3)
        counting._cycle_grid(5, 2)  # shallower and narrower: served from the grids kept
        grids = [counting._cycle_grid(k, 3) for k in range(1, 8)]  # all 7 rows, from that search
        assert block_grid_calls == [(7, 3)]
        assert grids == [graphs._block_grid(graphs.alternating_cycle(k), min(3, k)) for k in range(1, 8)]

    def test_a_wider_cap_searches_again(self, block_grid_calls):
        assert exact_moment(9, 2) == Fraction(math.comb(18, 9), 4**9)
        exact_moment(4, 2)
        # rows up to 2k = 18 are kept at cap 2 only, and row 5 at cap 5 after this
        assert exact_moment(5, 7) * 7**11 == sum(
            c * math.perm(7, j) for j, c in enumerate(KNOWN_ROWS[5], start=1))
        exact_moment(3, 4)
        assert block_grid_calls == [(9, 2), (5, 5)]

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 8)), min_size=1, max_size=6))
    def test_a_row_is_searched_exactly_when_kept_narrower(self, block_grid_calls, requests):
        counting._cycle_grid.cache_clear()  # every example starts cold
        kept = {}  # row j -> its width: a search of row k at cap c keeps each j <= k at min(c, j)
        for k, cap in requests:
            width = min(cap, k)
            own = graphs._block_grid(graphs.alternating_cycle(k), width)
            block_grid_calls.clear()
            grid = counting._cycle_grid(k, cap)
            if kept.get(k, 0) < width:
                assert block_grid_calls == [(k, width)]
                for j in range(1, k + 1):
                    kept[j] = max(kept.get(j, 0), min(width, j))
            else:
                assert block_grid_calls == []
            assert {ab: ways for ab, ways in grid.items() if max(ab) <= width} == own


class TestInternalConsistency:
    @pytest.mark.parametrize("counter", [count_ddcg_partitions, count_brute])
    def test_blocks_past_k_plus_one_are_refused(self, one_block_too_many, counter):
        with pytest.raises(InternalCheckError, match="impossible block counts"):
            counter(3)
