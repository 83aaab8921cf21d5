"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success as well as failure.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from unimoments import (
    Color,
    ColoredDigraph,
    alternating_cycle,
    conjectured_ftable,
    count_brute,
    count_ddcg_partitions,
    exact_moment,
    find_disproof,
    monomial_to_pochhammer,
    pochhammer_to_monomial,
    tau_via_quotients,
    traffic_state_brute,
    validate_against_exact,
)
from unimoments import counting, graphs
from unimoments.tables import CONJECTURED_COUNTS, REFERENCE_COUNTS

R, B = Color.RED, Color.BLUE


def check(criterion, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def timed_rows():
    """Rows for 2k <= 12 from the balanced-quotient engine, with wall time."""
    started = time.perf_counter()
    rows = {k: count_ddcg_partitions(k) for k in range(1, 7)}
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def row_k7():
    return count_ddcg_partitions(7)


def test_criterion_1_reference_counts_through_2k12(timed_rows):
    rows, elapsed = timed_rows
    exact = all(tuple(rows[k]) == REFERENCE_COUNTS[2 * k] for k in range(1, 7))
    check(
        1,
        f"counts for 2k <= 12 match the reference table exactly "
        f"(computed in {elapsed:.1f}s <= 60s)",
        exact and elapsed <= 60.0,
    )


def test_criterion_1_stretch_2k14(row_k7):
    # non-gating stretch scale; it happens to be cheap here
    check(
        "1 (stretch)",
        "counts for 2k = 14 match the reference table exactly",
        tuple(row_k7) == REFERENCE_COUNTS[14],
    )


def test_criterion_2_prediction_break_at_2k12(timed_rows):
    rows, _ = timed_rows
    table_mismatches = [
        (two_k // 2, j, predicted, actual)
        for two_k in sorted(REFERENCE_COUNTS)
        if two_k <= 12
        for j, (predicted, actual) in enumerate(
            zip(CONJECTURED_COUNTS[two_k], REFERENCE_COUNTS[two_k]), start=1
        )
        if predicted != actual
    ]
    found = find_disproof(6)
    ok = (
        conjectured_ftable(6)[2] == 10988
        and rows[6][2] == 11000
        and found == table_mismatches
        and (6, 3, 10988, 11000) in found
        and 11000 - 10988 == 12
    )
    check(
        2,
        "prediction gives 10988 where the count is 11000; the mismatch list "
        "for k <= 6 equals the reference-table differences exactly",
        ok,
    )


def test_criterion_3_prediction_exact_through_k5(timed_rows):
    rows, _ = timed_rows
    ok = all(conjectured_ftable(k) == rows[k] for k in range(1, 6))
    check(3, "prediction equals the exact counts for every j when k <= 5", ok)


def test_criterion_4_closed_form_block_counts(timed_rows, row_k7):
    rows, _ = timed_rows
    rows = dict(rows)
    rows[7] = row_k7
    ok = all(
        row[0] == 1
        and row[1] == math.comb(2 * k, k) - 1
        and row[k] == math.comb(2 * k, k) // (k + 1)
        for k, row in rows.items()
    )
    check(4, "computed rows k <= 7 satisfy the j = 1, 2, k+1 closed forms", ok)


def test_criterion_5_golden_polynomials(timed_rows, row_k7):
    rows, _ = timed_rows
    p6 = pochhammer_to_monomial(rows[6])
    p7 = pochhammer_to_monomial(row_k7)
    ok = (
        p6 == [0, -46, 262, -624, 772, -495, 132]
        and p7 == [0, 216, -1204, 3073, -4550, 4039, -2002, 429]
    )
    check(5, "k = 6 and k = 7 moment polynomials match the known coefficients", ok)


def test_criterion_6_basis_round_trip():
    rng = random.Random(987654321)
    ok = True
    for _ in range(1000):
        vec = [rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 16))]
        ok = ok and monomial_to_pochhammer(pochhammer_to_monomial(vec)) == vec
        ok = ok and pochhammer_to_monomial(monomial_to_pochhammer(vec)) == vec
    check(6, "basis conversions round-trip 1000 random integer vectors exactly", ok)


def test_criterion_7_oracle_equivalence():
    ok = True
    for k in range(1, 6):
        ok = ok and count_brute(k) == count_ddcg_partitions(k)
    check(7, "engine counts equal brute force for k <= 5", ok)


def test_criterion_8_monte_carlo_agreement():
    started = time.perf_counter()
    report = validate_against_exact(6, [2, 3, 4, 8], 100_000, seed=20240817)
    elapsed = time.perf_counter() - started
    # at dimension 2 the exact moment collapses to a binomial closed form
    closed_form = all(
        exact_moment(k, 2) == Fraction(math.comb(2 * k, k), 4**k) for k in range(1, 7)
    )
    n2_within = all(abs(e.z) <= 4.0 for e in report.entries if e.n == 2)
    ok = report.passed and closed_form and n2_within and elapsed <= 300.0
    check(
        8,
        f"{report.fraction_within_4:.0%} of (N, k) pairs within 4 sigma, "
        f"max |z| = {report.max_abs_z:.2f} <= 6, N = 2 matches the binomial "
        f"closed form ({elapsed:.0f}s <= 300s)",
        ok,
    )


def _hand_built_graphs():
    return [
        ColoredDigraph(1, ()),  # empty product
        alternating_cycle(1),
        alternating_cycle(2),
        ColoredDigraph(1, ((0, 0, R), (0, 0, B))),  # balanced loop pair
        ColoredDigraph(1, ((0, 0, R),)),  # unmatched loop
        ColoredDigraph(2, ((0, 1, R), (1, 0, B))),  # balanced pair
        ColoredDigraph(3, ((0, 1, R), (1, 0, B), (1, 2, R), (2, 1, B))),  # chain
        ColoredDigraph(3, ((0, 1, R), (1, 2, R), (2, 0, R))),  # all-red triangle
        ColoredDigraph(
            4, ((0, 1, R), (1, 0, B), (0, 2, R), (2, 0, B), (0, 3, R), (3, 0, B))
        ),  # balanced star
        ColoredDigraph(5, ((0, 1, R), (1, 2, B), (2, 3, R), (3, 4, B))),  # open path
    ]


def test_criterion_9_traffic_consistency_small_graphs():
    graphs = _hand_built_graphs()
    assert len(graphs) == 10
    worst = 0.0
    ok = True
    for index, g in enumerate(graphs):
        for n in (2, 3):
            mean, se = traffic_state_brute(g, n, 4000, seed=1000 + index,
                                           with_stderr=True)
            exact = float(tau_via_quotients(g, n))
            gap = abs(mean - exact)
            ok = ok and gap <= 4 * se + 1e-9
            if se:
                worst = max(worst, gap / se)
    check(
        9,
        f"quotient-sum traffic values match the sampling oracle within 4 "
        f"standard errors on 10 graphs at N = 2, 3 (worst {worst:.2f} sigma)",
        ok,
    )


def test_criterion_10_reference_data_shipped_for_large_columns():
    started = time.perf_counter()
    ok = all(tuple(count_ddcg_partitions(two_k // 2)) == REFERENCE_COUNTS[two_k]
             for two_k in (18, 20, 22))
    check(
        10,
        f"computed columns 2k = 18, 20 and 22 match the shipped reference data "
        f"({time.perf_counter() - started:.1f}s)",
        ok,
    )


def test_criterion_10_opportunistic_2k16():
    row = count_ddcg_partitions(8)
    check(
        "10 (opportunistic)",
        "recomputed 2k = 16 column matches the reference table",
        tuple(row) == REFERENCE_COUNTS[16],
    )


@pytest.mark.slow
def test_criterion_10_recomputed_2k18_2k20(monkeypatch):
    sided = {k: count_ddcg_partitions(k) for k in (9, 10)}
    # with every vertex in one class, row and column indices may share a block
    monkeypatch.setattr(graphs, "_vertex_classes", lambda g: [0] * g.vertex_count)
    started = time.perf_counter()
    # counting._row refuses stray counts at 0 blocks or past k + 1, as count_ddcg_partitions does
    ok = all(counting._row(k, graphs.balanced_quotient_counts(alternating_cycle(k))) == sided[k]
             and tuple(sided[k]) == REFERENCE_COUNTS[2 * k] for k in (9, 10))
    check(
        "10 (recomputed)",
        f"2k = 18 and 20 recomputed with rows and columns in one class match "
        f"the sided rows and the reference table ({time.perf_counter() - started:.0f}s)",
        ok,
    )
