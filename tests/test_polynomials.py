"""Basis-conversion, exact-moment, and prediction-comparator tests."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unimoments import (
    InternalCheckError,
    ScaleLimitError,
    borel_entry,
    conjectured_ftable,
    count_ddcg_partitions,
    exact_moment,
    find_disproof,
    monomial_to_pochhammer,
    pochhammer_to_monomial,
)
from unimoments import counting
from unimoments.tables import CONJECTURED_COUNTS, REFERENCE_COUNTS

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def moment_from_monomials(k, n, coeffs):
    """Q_k(n) / n^(2k+1), with Q_k given by its coefficients on N^1, N^2, ..."""
    return Fraction(sum(c * n**j for j, c in enumerate(coeffs, start=1)), n ** (2 * k + 1))


# up to 17 entries: a k = 16 row, the deepest the Monte Carlo powers need
int_vectors = st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=17)


class TestKnownExpansions:
    def test_stirling_rows(self):
        # x^n = sum_j S(n, j) (x)_j
        assert monomial_to_pochhammer([0, 0, 1]) == [1, 3, 1]
        assert monomial_to_pochhammer([0, 0, 0, 1]) == [1, 7, 6, 1]
        assert monomial_to_pochhammer([]) == []

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rows_sum_to_bell(self, n):
        assert sum(monomial_to_pochhammer([0] * (n - 1) + [1])) == BELL[n]

    def test_boundary_columns(self):
        for n in range(1, 12):
            row = monomial_to_pochhammer([0] * (n - 1) + [1])
            assert row[0] == 1
            assert row[-1] == 1

    def test_falling_factorial_of_order_four(self):
        # (x)_4 = x^4 - e_1 x^3 + e_2 x^2 - e_3 x with e_m(1, 2, 3) = 6, 11, 6
        assert pochhammer_to_monomial([0, 0, 0, 1]) == [-6, 11, -6, 1]


class TestBasisConversion:
    def test_single_falling_factorial_expands(self):
        assert pochhammer_to_monomial([0, 1]) == [-1, 1]  # (x)_2 = x^2 - x

    def test_first_moment_row(self):
        assert pochhammer_to_monomial([1, 1]) == [0, 1]  # Q_1 = N^2

    def test_second_moment_row(self):
        assert pochhammer_to_monomial([1, 5, 2]) == [0, -1, 2]  # Q_2 = 2N^3 - N^2

    def test_square_in_pochhammer(self):
        assert monomial_to_pochhammer([0, 1]) == [1, 1]  # x^2 = (x)_1 + (x)_2

    def test_cube_in_pochhammer(self):
        assert monomial_to_pochhammer([0, 0, 1]) == [1, 3, 1]

    def test_explicit_round_trip(self):
        assert monomial_to_pochhammer(pochhammer_to_monomial([7, -2, 5])) == [7, -2, 5]

    @given(int_vectors)
    def test_round_trip_identity(self, b):
        assert monomial_to_pochhammer(pochhammer_to_monomial(b)) == b
        assert pochhammer_to_monomial(monomial_to_pochhammer(b)) == b

    @given(int_vectors, st.integers(1, 12))
    def test_conversion_preserves_evaluation(self, coeffs, n):
        for b, a in ((coeffs, pochhammer_to_monomial(coeffs)),
                     (monomial_to_pochhammer(coeffs), coeffs)):
            via_b = sum(c * math.perm(n, j) for j, c in enumerate(b, start=1))
            via_a = sum(c * n**j for j, c in enumerate(a, start=1))
            assert via_a == via_b

    @pytest.mark.parametrize("convert", [pochhammer_to_monomial, monomial_to_pochhammer])
    def test_faulty_conversion_is_caught(self, perm_off_by_one, convert):
        with pytest.raises(InternalCheckError, match="basis mismatch"):
            convert([1, 5, 2])

    @pytest.mark.parametrize("convert", [pochhammer_to_monomial, monomial_to_pochhammer])
    @pytest.mark.parametrize("coeffs", [[2.5, 1], [0.9, 1], [Fraction(2), 1], ["1", 1]])
    def test_non_integer_coefficients_refused(self, convert, coeffs):
        with pytest.raises(TypeError):
            convert(coeffs)

    @pytest.mark.parametrize("convert", [pochhammer_to_monomial, monomial_to_pochhammer])
    def test_numpy_integers_accepted(self, convert):
        out = convert(np.array([1, 5, 2]))
        assert out == convert([1, 5, 2])
        assert all(type(c) is int for c in out)


class TestMomentCoefficients:
    def test_k6_golden_coefficients(self):
        coeffs = pochhammer_to_monomial(REFERENCE_COUNTS[12])
        assert coeffs == [0, -46, 262, -624, 772, -495, 132]
        assert exact_moment(6, 4) == moment_from_monomials(6, 4, coeffs)

    def test_k7_golden_coefficients(self):
        coeffs = pochhammer_to_monomial(REFERENCE_COUNTS[14])
        assert coeffs == [0, 216, -1204, 3073, -4550, 4039, -2002, 429]
        assert exact_moment(7, 3) == moment_from_monomials(7, 3, coeffs)

    def test_k1_is_square(self):
        assert pochhammer_to_monomial([1, 1]) == [0, 1]
        for n in (1, 2, 5):
            assert exact_moment(1, n) == Fraction(1, n)

    def test_leading_coefficients_agree(self):
        for row in REFERENCE_COUNTS.values():
            assert pochhammer_to_monomial(row)[-1] == row[-1]

    def test_coefficients_sum_to_one_at_unit_dimension(self):
        for k in (1, 2, 3, 6):
            assert sum(pochhammer_to_monomial(REFERENCE_COUNTS[2 * k])) == 1
            assert exact_moment(k, 1) == 1


class TestBorelTriangle:
    def test_small_entries(self):
        assert borel_entry(0, 0) == 1
        assert borel_entry(1, 0) == 2
        assert borel_entry(1, 1) == 1
        assert borel_entry(2, 0) == 5
        assert borel_entry(2, 2) == 2  # Catalan tail: C(2k, k) / (k+1)

    def test_out_of_triangle_is_zero(self):
        assert borel_entry(1, 2) == 0
        assert borel_entry(-1, 0) == 0

    def test_entries_are_integral(self):
        for k in range(20):
            for j in range(k + 1):
                borel_entry(k, j)  # raises if the division is not exact


def conjectured_moment(k, n):
    """The conjectured k-th moment at dimension n, summed from the predicted row."""
    numerator = sum(c * math.perm(n, j) for j, c in enumerate(conjectured_ftable(k), start=1))
    return Fraction(numerator, n ** (2 * k + 1))


class TestConjecturedValues:
    def test_breaking_entry(self):
        assert conjectured_ftable(6)[2] == 10988

    def test_k5_row_still_exact(self):
        assert conjectured_ftable(5) == [1, 251, 1520, 1665, 510, 42]

    def test_deep_entry(self):
        assert conjectured_ftable(9)[3] == 31278521

    @pytest.mark.parametrize("k", range(1, 12))
    def test_matches_shipped_prediction_table(self, k):
        assert tuple(conjectured_ftable(k)) == CONJECTURED_COUNTS[2 * k]

    def test_conjectured_moment_small_k(self):
        for n in (1, 2, 3, 7):
            assert conjectured_moment(1, n) == Fraction(1, n)
            assert conjectured_moment(2, n) == Fraction(2 * n**3 - n**2, n**5)

    def test_conjectured_moment_matches_exact_until_k5(self):
        for k in range(1, 6):
            for n in (1, 2, 3, 4):
                assert conjectured_moment(k, n) == exact_moment(k, n)

    def test_conjectured_moment_wrong_at_k6(self):
        assert conjectured_moment(6, 3) != exact_moment(6, 3)

    def test_two_prediction_forms_agree(self):
        # the falling-factorial form of the prediction must re-expand to the
        # Borel-triangle monomial form for every dimension
        for k in range(1, 9):
            pred = conjectured_ftable(k)
            borel = [(-1) ** (k - j + 1) * borel_entry(k - 1, k - j + 1) for j in range(1, k + 2)]
            for n in range(1, 2 * k + 4):
                lhs = sum(c * math.perm(n, j) for j, c in enumerate(pred, start=1))
                rhs = sum(c * n**j for j, c in enumerate(borel, start=1))
                assert lhs == rhs


class TestFindDisproof:
    def test_empty_until_k5(self):
        assert find_disproof(5) == []

    def test_first_break(self):
        mismatches = find_disproof(6)
        assert (6, 3, 10988, 11000) in mismatches
        assert mismatches == [
            (6, 3, 10988, 11000),
            (6, 4, 21109, 21121),
            (6, 5, 11825, 11827),
        ]

    def test_k7_entries_present(self):
        mismatches = find_disproof(7)
        assert (7, 3, 78428, 78806) in mismatches
        assert (7, 4, 248339, 249137) in mismatches

    def test_one_search(self, block_grid_calls):
        find_disproof(8)
        assert block_grid_calls == [(8, 8)]

    def test_explicit_rows_override(self, monkeypatch):
        rows = {1: (1, 1), 2: (1, 5, 3)}  # deliberately wrong F(4, 3)
        monkeypatch.setattr(counting, "count_ddcg_rows",
                            lambda k_max: [rows[k] for k in range(1, k_max + 1)])
        assert find_disproof(2) == [(2, 3, 2, 3)]

    def test_past_the_deepest_cycle_refused_before_the_search(self, no_counting):
        with pytest.raises(ScaleLimitError, match="past k = 16"):
            find_disproof(10**9)


class TestExactMoment:
    def test_first_moment_always_reciprocal_dimension(self):
        for n in (1, 2, 3, 9):
            assert exact_moment(1, n) == Fraction(1, n)

    def test_known_values(self):
        assert exact_moment(2, 3) == Fraction(45, 243)
        assert exact_moment(3, 2) == Fraction(40, 128)

    def test_dimension_two_closed_form(self):
        # at N=2 only j = 1, 2 survive, so Q_k(2) = 2 * C(2k, k) exactly
        for k in range(1, 7):
            assert exact_moment(k, 2) == Fraction(math.comb(2 * k, k), 4**k)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_row_sum_equals_the_polynomial(self, k):
        coeffs = pochhammer_to_monomial(count_ddcg_partitions(k))
        for n in range(1, 10):
            assert exact_moment(k, n) == moment_from_monomials(k, n, coeffs)

    @pytest.mark.parametrize("k, n", [(1, 0), (2, -1), (0, 2), (-1, 3)])
    def test_invalid_arguments(self, k, n):
        with pytest.raises(ValueError):
            exact_moment(k, n)

    @pytest.mark.parametrize("k, n", [(3, 2.0), (3, 2.5), (3.0, 2), (3, "2")])
    def test_non_integer_arguments_refused_before_the_search(self, no_counting, k, n):
        with pytest.raises(TypeError):
            exact_moment(k, n)


def test_thousand_random_round_trips():
    rng = random.Random(20240817)
    for _ in range(1000):
        length = rng.randint(1, 16)
        vec = [rng.randint(-10**12, 10**12) for _ in range(length)]
        assert monomial_to_pochhammer(pochhammer_to_monomial(vec)) == vec
