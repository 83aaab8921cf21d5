"""Exact moments at one N against a labelled transfer count of the 2k-cycle.

The transfer count shares no code with the engine, the set partitions or the
basis conversion: it walks the index sequences of tr((U U*)^k) directly.
"""

import math
from collections import defaultdict
from fractions import Fraction

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
