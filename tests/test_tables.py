"""Integrity checks on the shipped reference tables."""

import math

from unimoments.tables import CONJECTURED_COUNTS, REFERENCE_COUNTS


def test_coverage_and_row_lengths():
    for table in (REFERENCE_COUNTS, CONJECTURED_COUNTS):
        assert sorted(table) == list(range(2, 24, 2))
        for two_k, row in table.items():
            assert len(row) == two_k // 2 + 1


def test_reference_identities():
    # the three block counts with closed forms: j = 1, 2, and k + 1
    for two_k, row in REFERENCE_COUNTS.items():
        k = two_k // 2
        assert row[0] == 1
        assert row[1] == math.comb(two_k, k) - 1
        assert row[-1] == math.comb(two_k, k) // (k + 1)


def test_prediction_shares_the_closed_form_entries():
    for two_k in REFERENCE_COUNTS:
        actual, predicted = REFERENCE_COUNTS[two_k], CONJECTURED_COUNTS[two_k]
        assert predicted[0] == actual[0]
        assert predicted[1] == actual[1]
        assert predicted[-1] == actual[-1]


def test_prediction_never_exceeds_actual():
    # observed (not proven) in every tabulated entry
    for two_k in REFERENCE_COUNTS:
        for predicted, actual in zip(CONJECTURED_COUNTS[two_k], REFERENCE_COUNTS[two_k]):
            assert predicted <= actual


def test_first_divergence_is_at_twelve():
    for two_k in (2, 4, 6, 8, 10):
        assert CONJECTURED_COUNTS[two_k] == REFERENCE_COUNTS[two_k]
    assert CONJECTURED_COUNTS[12] != REFERENCE_COUNTS[12]
    assert REFERENCE_COUNTS[12][2] - CONJECTURED_COUNTS[12][2] == 12
