"""Cycle counter tests: engine rows vs known rows and the lattice oracle."""

import math

import pytest

from unimoments import (
    ScaleLimitError,
    alternating_cycle,
    bell_number,
    count_brute,
    count_ddcg_partitions,
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


class TestBellNumber:
    def test_known_values(self):
        assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


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
        # the k = 5 cycle needs 87 states in its widest layer
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 86)
        with pytest.raises(ScaleLimitError, match="86 states"):
            count_ddcg_partitions(5)
        monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 87)
        assert count_ddcg_partitions(5) == KNOWN_ROWS[5]


class TestInternalConsistency:
    def test_blocks_never_exceed_k_plus_one(self):
        # brute search keeps full buckets; anything past k+1 trips a check
        for k in (1, 2, 3):
            count_brute(k)  # raises InternalCheckError on violation

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
