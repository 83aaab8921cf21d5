"""Exact moments at one N against a labelled transfer count of the 2k-cycle.

The transfer count shares no code with the engine, the set partitions or the
basis conversion: it walks the index sequences of tr((U U*)^k) directly.  Its
symmetry-reduced form keeps one state per orbit of relabellings, which takes
it to N = 4 and 5, so that columns 4 and 5 of the deep rows are checked too.
"""

import math
from collections import defaultdict
from fractions import Fraction
from itertools import permutations

import pytest

from unimoments import exact_moment


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
    ``column``, else a row label.  Each order of the labels of the current
    class, the current one first, is followed by a sort of the lines of the
    other class, and the least result is kept.  Labels whose line is zero
    are interchangeable, so only the others are permuted.
    """
    lines = cells if column else list(zip(*cells))  # lines[x]: x in the current class
    rest = [x for x in range(len(cells)) if x != current]
    moving = [x for x in rest if any(lines[x])]
    still = [x for x in rest if not any(lines[x])]
    least = min(tuple(sorted(zip(*(lines[x] for x in (current, *order, *still)))))
                for order in permutations(moving))
    return tuple(zip(*least)) if column else least


def reduced_transfer_count(k: int, n: int) -> int:
    """``transfer_count`` with the states of a layer merged into orbits.

    Permuting the row labels and the column labels maps walks to walks one
    to one, and a state's number of completions depends only on its orbit,
    so each layer keeps one canonical state per orbit (``canonical_ledger``,
    which puts the current label at 0), with the walks that reach the whole
    orbit.  The closing edge needs no memory of vertex 0's label: its column
    marginal is balanced only when the last column label is vertex 0's, so
    the walks that end on the zero ledger are the closed ones.
    """
    zero = ((0,) * n,) * n
    layer = {zero: 1}  # vertex 0 at column label 0
    for edge in range(2 * k):
        left = 2 * k - edge - 1
        from_column = edge % 2 == 0
        following = defaultdict(int)
        for ledger, ways in layer.items():
            for other in range(n):
                cells = [list(line) for line in ledger]
                if from_column:
                    cells[0][other] += 1
                else:
                    cells[other][0] -= 1
                if sum(abs(x) for line in cells for x in line) <= left:
                    following[canonical_ledger(cells, other, not from_column)] += ways
        layer = following
    return n * layer.get(zero, 0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", range(1, 8))
def test_reduced_transfer_count_equals_the_plain_one(k, n):
    assert reduced_transfer_count(k, n) == transfer_count(k, n)


# The deepest k first, so that one capped sweep serves every row of an n.
@pytest.mark.parametrize("n, k", [
    pytest.param(4, 16, marks=pytest.mark.slow),  # 4.5 s, half of it the engine
    pytest.param(4, 15, marks=pytest.mark.slow),  # 2.3 s on its own
    *[(4, k) for k in range(14, 0, -1)],
    pytest.param(5, 14, marks=pytest.mark.slow),  # 6 s, 2.4 of it the engine
    *[(5, k) for k in range(13, 0, -1)],
])
def test_exact_moment_equals_the_reduced_transfer_count(k, n):
    assert exact_moment(k, n) * n ** (2 * k + 1) == reduced_transfer_count(k, n)


# Below n = k the exact value comes from the engine capped at n blocks per class;
# at n = 3 it runs to 2k = 48, past every row the engine can count whole.
@pytest.mark.parametrize("n, k", [
    *[(n, k) for n in (2, 3) for k in range(1, 15)],
    *[(4, k) for k in range(1, 11)],
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
