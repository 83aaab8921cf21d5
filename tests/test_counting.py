"""Cycle counter tests: engine rows vs known rows and the lattice oracle."""

import math

import pytest

from unimoments import (
    InternalCheckError,
    ScaleLimitError,
    alternating_cycle,
    count_brute,
    count_ddcg_partitions,
    ftable_row,
    is_ddcg,
    iter_partitions,
    quotient,
)
from unimoments import counting, graphs

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
    """The row with every vertex in one class, so that rows and columns may share a block."""
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_vertex_classes", lambda g: [0] * g.vertex_count)
        return count_ddcg_partitions(k)


class TestCountRows:
    @pytest.mark.parametrize("k,row", sorted(KNOWN_ROWS.items()))
    def test_pruned_search_reproduces_known_rows(self, k, row):
        assert count_ddcg_partitions(k) == row

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
            count_brute(0)

    def test_brute_scale_refusal(self):
        with pytest.raises(ScaleLimitError):
            count_brute(counting.BRUTE_MAX_K + 1)

    def test_layer_guard(self, monkeypatch):
        # the k = 5 cycle needs 20 states in its widest layer (87 in one class)
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 19)
        with pytest.raises(ScaleLimitError, match="19 states"):
            count_ddcg_partitions(5)
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 20)
        assert count_ddcg_partitions(5) == KNOWN_ROWS[5]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_one_class_oracle(self, monkeypatch, k):
        assert one_class_row(monkeypatch, k) == count_ddcg_partitions(k)

    def test_first_row_past_the_reference_table(self):
        assert list(ftable_row(12)) == ROW_24

    @pytest.mark.parametrize("k", [12, 13])
    def test_closed_form_columns_past_the_reference_table(self, k):
        row = ftable_row(k)  # the cached rows, computed by count_ddcg_partitions
        assert row[0] == 1
        assert row[1] == math.comb(2 * k, k) - 1
        assert row[k] == math.comb(2 * k, k) // (k + 1)


class TestInternalConsistency:
    def test_blocks_never_exceed_k_plus_one(self):
        # brute search keeps full buckets; anything past k+1 trips a check
        for k in (1, 2, 3):
            count_brute(k)  # raises InternalCheckError on violation

    def test_engine_blocks_past_k_plus_one_are_refused(self, one_block_too_many):
        with pytest.raises(InternalCheckError, match="impossible block counts"):
            count_ddcg_partitions(3)

    def test_search_counts_match_bucket_sum(self):
        # total accepted leaves equal the number of balanced-quotient partitions
        for k in (1, 2, 3):
            total = sum(count_ddcg_partitions(k))
            balanced = sum(
                1
                for p in iter_partitions(2 * k)
                if is_ddcg(quotient(alternating_cycle(k), p))
            )
            assert total == balanced
