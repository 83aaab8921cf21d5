"""Exact integer polynomial machinery for the spectral-moment formulas.

The k-th mean spectral moment of the squared ensemble is Q_k(N) / N^(2k+1)
where Q_k has integer coefficients.  Q_k arrives naturally in the falling
factorial basis, with the balanced-quotient counts F(2k, j) as coefficients;
this module converts between that basis and ordinary powers of N in both
directions (Horner expansion one way, synthetic division the other, both
in the Newton basis with nodes 0, 1, 2, ... and both checked by exact
evaluation), takes exact moments at one N from the 2k-cycle's block grid
capped at N (kept by ``counting``, like the rows, and summed by
``graphs._grid_value``), and evaluates the Borel-triangle closed form that
was once believed to produce the same numbers.  Everything is arbitrary-precision integer or rational
arithmetic; no floats.

Coefficient vectors are Python sequences indexed from j = 1: ``coeffs[i]``
is the coefficient of (N)_(i+1) or N^(i+1).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import counting, graphs
from .errors import InternalCheckError

__all__ = [
    "pochhammer_to_monomial",
    "monomial_to_pochhammer",
    "borel_entry",
    "conjectured_ftable",
    "exact_moment",
    "find_disproof",
]


def _check_bases(a: list[int], b: list[int]) -> None:
    """Raise InternalCheckError unless sum_j a[j] x^j == sum_j b[j] (x)_j.

    The difference of the two sides has degree at most m = max(len(a), len(b))
    and vanishes at x = 0, so agreement at x = 1..m proves it zero: the check
    is a proof, not a spot test.  A mismatch means a bug in a conversion, not
    bad input.
    """
    for x in range(1, max(len(a), len(b)) + 1):
        via_monomial = sum(c * x ** j for j, c in enumerate(a, start=1))
        via_pochhammer = sum(c * math.perm(x, j) for j, c in enumerate(b, start=1))
        if via_monomial != via_pochhammer:
            raise InternalCheckError(
                f"basis mismatch at x={x}: {via_monomial} != {via_pochhammer}"
            )


def pochhammer_to_monomial(b) -> list[int]:
    """Coefficients on powers of x for the polynomial sum_j b[j] (x)_j.

    Horner's rule in the Newton basis: x (b_1 + (x-1) (b_2 + ... + (x-n+1) b_n))
    is expanded from the inside, one multiplication by (x - j) and one added
    b_j per coefficient.  Integer coefficients only (``operator.index``);
    the result is checked by exact evaluation before it is returned.
    """
    b = [operator.index(c) for c in b]
    a: list[int] = []  # sum_j b_j (x)_j / x, built from the inside, from x^0 up
    for j in range(len(b), 0, -1):
        a = [hi - j * lo for hi, lo in zip([b[j - 1]] + a, a + [0])]
    _check_bases(a, b)
    return a


def monomial_to_pochhammer(a) -> list[int]:
    """Coefficients on falling factorials for sum_j a[j] x^j.

    Synthetic division: (sum_j a_j x^j) / x is divided by x - 1, x - 2, ...
    in turn, and remainder j is the coefficient of (x)_j.  Integer
    coefficients only (``operator.index``); the result is checked by exact
    evaluation before it is returned.
    """
    a = [operator.index(c) for c in a]
    q = a[::-1]  # the dividend, highest power first
    b = []
    for j in range(1, len(q) + 1):
        for i in range(1, len(q)):
            q[i] += j * q[i - 1]
        b.append(q.pop())
    _check_bases(a, b)
    return b


def borel_entry(k: int, j: int) -> int:
    """Borel-triangle entry C(2k+2, k-j) * C(k+j, j) / (k+1); the division is exact."""
    if k < 0 or j < 0 or j > k:
        return 0
    value, rem = divmod(math.comb(2 * k + 2, k - j) * math.comb(k + j, j), k + 1)
    if rem:
        raise InternalCheckError(f"Borel entry ({k}, {j}) is not an integer")
    return value


def conjectured_ftable(k: int) -> list[int]:
    """The Borel-triangle prediction for [F(2k, 1), ..., F(2k, k+1)].

    The conjectured Q_k is sum_j (-1)^(k-j+1) f(k-1, k-j+1) N^j, f the Borel
    triangle; its monomial coefficients are converted to falling factorials
    by ``monomial_to_pochhammer``.  Agrees with the exact counts for k <= 5 and diverges from k = 6 on.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return monomial_to_pochhammer(
        [(-1) ** (k - j + 1) * borel_entry(k - 1, k - j + 1) for j in range(1, k + 2)]
    )


def exact_moment(k: int, n: int) -> Fraction:
    """Exact k-th mean spectral moment at dimension n: sum_j F(2k, j) (n)_j / n^(2k+1).

    ``graphs._grid_value`` sums G(a, b) (n)_a (n)_b over the 2k-cycle's
    block grid capped at n, which is the whole grid from n = k on:
    ``counting._cycle_grid(k, n)``, searched only when no grid at least that
    wide is kept, and refused there, before any search, when min(n, k)
    exceeds ``counting.MAX_CYCLE_K``.  Raises ScaleLimitError also when the
    engine's layers would outgrow ``graphs.MAX_LAYER_STATES``.
    """
    if operator.index(n) < 1:
        raise ValueError("matrix dimension must be >= 1")
    return Fraction(graphs._grid_value(counting._cycle_grid(k, n), n), n ** (2 * k + 1))


def find_disproof(k_max: int) -> list[tuple[int, int, int, int]]:
    """All (k, j, conjectured, actual) with conjectured != actual for k <= k_max.

    Empty for k_max <= 5; the first entries appear at k = 6.  The rows come
    from ``counting.count_ddcg_rows(k_max)``, which refuses k_max < 1 and,
    before any search, k_max past ``counting.MAX_CYCLE_K``.
    """
    return [(k, j, p, a) for k, row in enumerate(counting.count_ddcg_rows(k_max), start=1)
            for j, (p, a) in enumerate(zip(conjectured_ftable(k), row), start=1) if p != a]
