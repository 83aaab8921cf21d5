"""Exact moments at one N against a labelled transfer count of the 2k-cycle.

The transfer count shares no code with the engine, the set partitions or the
basis conversion: it walks the index sequences of tr((U U*)^k) directly.  Its
symmetry-reduced form keeps one state per orbit of relabellings, which takes
it to N = 4 and 5, so that columns 4 and 5 of the deep rows are checked too.
"""

import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import chain, permutations, product

import pytest

from unimoments import count_ddcg_partitions, exact_moment

from test_counting import ROW_24


def transfer_count(k: int, n: int) -> int:
    """Q_k(n): labellings of the 2k-cycle from [n] whose red/blue ledger balances.

    Even vertices are column indices and odd vertices row indices.  The edge
    leaving an even vertex adds one to the ledger at (column, row), the edge
    leaving an odd vertex takes one away.  Vertex 0 is fixed at column 0 and
    the total multiplied by n, as every column label gives the same count.
    A ledger whose l1 norm exceeds the edges left can no longer balance.
    """
    layer = {(0, (0,) * (n * n)): 1}
    for edge in range(2 * k):
        left = 2 * k - edge - 1
        from_column = edge % 2 == 0
        following = defaultdict(int)
        for (label, ledger), ways in layer.items():
            for other in range(n) if left else (0,):  # the last edge closes at vertex 0
                column, row = (label, other) if from_column else (other, label)
                cells = list(ledger)
                cells[column * n + row] += 1 if from_column else -1
                if sum(map(abs, cells)) <= left:
                    following[other, tuple(cells)] += ways
        layer = following
    return n * sum(layer.values())


def canonical_ledger(cells, current: int, column: bool) -> tuple[tuple[int, ...], ...]:
    """One ledger per orbit of ``cells`` under relabellings that move ``current`` to 0.

    ``cells[column][row]`` is the ledger, and ``current`` a column label if
    ``column``, else a row label.  The other labels of the current class are
    grouped by the sorted entries of their line, which no relabelling
    changes, and the groups are put in the order of that key (refinement
    before permuting, McKay 1981).  Each order of the labels within their
    groups, the current one first, is followed by a sort of the lines of the
    other class, and the least result is kept.  Labels whose line is zero
    are interchangeable, so they are not permuted.
    """
    lines = cells if column else list(zip(*cells))  # lines[x]: x in the current class
    groups = defaultdict(list)
    for x in range(len(cells)):
        if x != current:
            groups[tuple(sorted(lines[x]))].append(x)
    orders = product(*(permutations(group) if any(key) else (group,)
                       for key, group in sorted(groups.items())))
    least = min(tuple(sorted(zip(*(lines[x] for x in (current, *chain(*order))))))
                for order in orders)
    return tuple(zip(*least)) if column else least


def plain_canonical_ledger(cells, current: int, column: bool) -> tuple[tuple[int, ...], ...]:
    """``canonical_ledger`` without the refinement: every order of the labels
    with a nonzero line is tried, and the zero lines are put last.  It picks
    another ledger of the orbit; it is the check of the refined form."""
    lines = cells if column else list(zip(*cells))
    rest = [x for x in range(len(cells)) if x != current]
    moving = [x for x in rest if any(lines[x])]
    still = [x for x in rest if not any(lines[x])]
    least = min(tuple(sorted(zip(*(lines[x] for x in (current, *order, *still)))))
                for order in permutations(moving))
    return tuple(zip(*least)) if column else least


def reduced_transfer_count(k: int, n: int, canonical=canonical_ledger) -> int:
    """``transfer_count`` with the states of a layer merged into orbits.

    Permuting the row labels and the column labels maps walks to walks one
    to one, and a state's number of completions depends only on its orbit,
    so each layer keeps one canonical state per orbit (``canonical``, which
    puts the current label at 0), with the walks that reach the whole orbit.
    For the same reason the labels of the other class whose ledger line is
    zero lead to one orbit, so a step takes one of them, weighted by their
    number.  The closing edge needs no memory of vertex 0's label: its
    column marginal is balanced only when the last column label is vertex
    0's, so the walks that end on the zero ledger are the closed ones.
    """
    zero = ((0,) * n,) * n
    layer = {zero: 1}  # vertex 0 at column label 0
    for edge in range(2 * k):
        left = 2 * k - edge - 1
        from_column = edge % 2 == 0
        following = defaultdict(int)
        for ledger, ways in layer.items():
            lines = list(zip(*ledger)) if from_column else ledger  # the other class's
            fresh = [x for x in range(n) if not any(lines[x])]
            steps = [(x, 1) for x in range(n) if any(lines[x])]
            if fresh:
                steps.append((fresh[0], len(fresh)))
            for other, weight in steps:
                cells = [list(line) for line in ledger]
                if from_column:
                    cells[0][other] += 1
                else:
                    cells[other][0] -= 1
                if sum(abs(x) for line in cells for x in line) <= left:
                    following[canonical(cells, other, not from_column)] += ways * weight
        layer = following
    return n * layer.get(zero, 0)


def transfer_row(k: int) -> list[Fraction]:
    """Row [F(2k, 1), ..., F(2k, k+1)] from the transfer counts Q_k(1), ..., Q_k(k+1).

    Q_k(n) = sum_j F(2k, j) (n)_j, of degree k + 1, with Q_k(0) = 0; the j-th
    forward difference of the falling factorial (n)_i at 0 is j! when i = j
    and 0 otherwise, so F(2k, j) = Δ^j Q_k(0) / j!.
    """
    values = [0] + [reduced_transfer_count(k, n) for n in range(1, k + 2)]
    row = []
    for j in range(1, k + 2):
        values = [b - a for a, b in zip(values, values[1:])]
        row.append(Fraction(values[0], math.factorial(j)))
    return row


@pytest.mark.parametrize("k", [
    *range(1, 8),
    10,  # under 1 s
    pytest.param(12, marks=pytest.mark.slow),  # about 9 s
])
def test_transfer_row_equals_the_engine_row(k):
    row = transfer_row(k)
    assert row == count_ddcg_partitions(k)
    if k == 12:  # columns 6..12 of ROW_24 have no other check that skips the engine
        assert row == ROW_24


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("k", range(1, 8))
def test_reduced_transfer_count_equals_the_plain_one(k, n):
    want = transfer_count(k, n)
    assert reduced_transfer_count(k, n) == want
    assert reduced_transfer_count(k, n, plain_canonical_ledger) == want


# every ledger of a small space: the refined form must merge exactly the ledgers
# that the plain one merges, the orbits
@pytest.mark.parametrize("n, values", [(2, (-1, 0, 1, 2)), (3, (0, 1)), (3, (-1, 1))])
@pytest.mark.parametrize("column", [True, False])
def test_refined_form_merges_the_orbits(n, values, column):
    for current in range(n):
        pairs = set()
        for entries in product(values, repeat=n * n):
            cells = [entries[i * n:(i + 1) * n] for i in range(n)]
            pairs.add((canonical_ledger(cells, current, column),
                       plain_canonical_ledger(cells, current, column)))
        assert len({refined for refined, _ in pairs}) == len({plain for _, plain in pairs}) == len(pairs)


@pytest.mark.parametrize("n", [4, 5])
def test_refined_form_is_the_same_across_an_orbit(n):
    rng = random.Random(n)
    for _ in range(200):
        cells = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        current, column = rng.randrange(n), rng.random() < 0.5
        columns, rows = rng.sample(range(n), n), rng.sample(range(n), n)  # new label -> old
        moved = [[cells[c][r] for r in rows] for c in columns]
        moved_current = (columns if column else rows).index(current)
        assert (canonical_ledger(moved, moved_current, column)
                == canonical_ledger(cells, current, column))


# The deepest k first, so that one capped sweep serves every row of an n.
@pytest.mark.parametrize("n, k", [
    (3, 32),  # 2.7 s, half of it the engine: column 3 of row 2k = 64, where the prediction fails
    pytest.param(4, 16, marks=pytest.mark.slow),  # 2-3 s, half of it the engine
    pytest.param(4, 15, marks=pytest.mark.slow),  # 2 s on its own
    *[(4, k) for k in range(14, 0, -1)],
    pytest.param(5, 14, marks=pytest.mark.slow),  # 4 s, 2.7 of it the engine
    *[(5, k) for k in range(13, 0, -1)],
])
def test_exact_moment_equals_the_reduced_transfer_count(k, n):
    assert exact_moment(k, n) * n ** (2 * k + 1) == reduced_transfer_count(k, n)


# Below n = k the exact value comes from the engine capped at n blocks per class;
# at n = 3 it runs to 2k = 48, past every row the engine can count whole.
@pytest.mark.parametrize("n, k", [
    *[(n, k) for n in (2, 3) for k in range(1, 15)],
    *[(4, k) for k in range(1, 11)],
    (3, 15),  # with Q_15(4) and F(30, 1), F(30, 2): columns 3 and 4 of row 2k = 30
    (3, 16),
    (3, 20),
    pytest.param(3, 24, marks=pytest.mark.slow),  # 1.5 s, two thirds of it the transfer count
])
def test_exact_moment_equals_the_transfer_count(k, n):
    assert exact_moment(k, n) * n ** (2 * k + 1) == transfer_count(k, n)


@pytest.mark.parametrize("k", range(1, 17))
def test_dimension_two_is_twice_a_central_binomial(k):
    # Q_k(2) = 2 F(2k, 1) + 2 F(2k, 2), with F(2k, 1) = 1 and F(2k, 2) = C(2k, k) - 1
    assert transfer_count(k, 2) == 2 * math.comb(2 * k, k)
    assert exact_moment(k, 2) == Fraction(math.comb(2 * k, k), 4**k)
