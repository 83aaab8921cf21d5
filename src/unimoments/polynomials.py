"""Exact integer polynomial machinery for the spectral-moment formulas.

The k-th mean spectral moment of the squared ensemble is Q_k(N) / N^(2k+1)
where Q_k has integer coefficients.  Q_k arrives naturally in the falling
factorial basis, with the balanced-quotient counts F(2k, j) as coefficients;
this module converts between that basis and ordinary powers of N (both
directions, exactly), assembles moment polynomials, and evaluates the
Borel-triangle closed form that was once believed to produce the same
numbers.  Everything is arbitrary-precision integer or rational arithmetic;
no floats.

Coefficient vectors are Python sequences indexed from j = 1: ``coeffs[i]``
is the coefficient of (N)_(i+1) or N^(i+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import counting
from .errors import InternalCheckError

__all__ = [
    "falling_factorial",
    "stirling2",
    "elementary_symmetric",
    "pochhammer_to_monomial",
    "monomial_to_pochhammer",
    "MomentPolynomial",
    "moment_polynomial",
    "borel_entry",
    "conjectured_ftable",
    "conjectured_moment",
    "exact_moment",
    "ftable_row",
    "find_disproof",
]

def falling_factorial(n: int, j: int) -> int:
    """Pochhammer symbol (n)_j = n (n-1) ... (n-j+1); zero once j > n."""
    return math.perm(n, j)


@lru_cache(maxsize=None)
def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into j blocks."""
    if n < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0 or j == 0:
        return 1 if n == j else 0
    if j > n:
        return 0
    return stirling2(n - 1, j - 1) + j * stirling2(n - 1, j)


@lru_cache(maxsize=None)
def elementary_symmetric(m: int, n: int) -> int:
    """e_m(1, 2, ..., n): sum of products of m distinct values from 1..n."""
    if m < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if m == 0:
        return 1
    if m > n:
        return 0
    return elementary_symmetric(m, n - 1) + n * elementary_symmetric(m - 1, n - 1)


def pochhammer_to_monomial(b) -> list[int]:
    """Coefficients on powers of x for the polynomial sum_j b[j] (x)_j.

    a_j = sum_{r >= j} (-1)^(r-j) e_(r-j)(1, ..., r-1) b_r, from expanding
    each falling factorial by the Vieta relations.
    """
    b = [int(x) for x in b]
    n = len(b)
    return [
        sum(
            (-1) ** (r - j) * elementary_symmetric(r - j, r - 1) * b[r - 1]
            for r in range(j, n + 1)
        )
        for j in range(1, n + 1)
    ]


def monomial_to_pochhammer(a) -> list[int]:
    """Coefficients on falling factorials for sum_j a[j] x^j.

    b_j = sum_{r >= j} S(r, j) a_r via the Stirling expansion of x^r.
    """
    a = [int(x) for x in a]
    n = len(a)
    return [
        sum(stirling2(r, j) * a[r - 1] for r in range(j, n + 1))
        for j in range(1, n + 1)
    ]


@dataclass(frozen=True)
class MomentPolynomial:
    """Q_k in both bases: Q_k(N) = sum_j b_j (N)_j = sum_j a_j N^j, j = 1..k+1."""

    k: int
    pochhammer_coeffs: tuple[int, ...]
    monomial_coeffs: tuple[int, ...]

    def numerator(self, n: int) -> int:
        """Exact Q_k(n)."""
        return sum(a * n ** j for j, a in enumerate(self.monomial_coeffs, start=1))

    def moment(self, n: int) -> Fraction:
        """Exact k-th mean spectral moment at dimension n: Q_k(n) / n^(2k+1)."""
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        return Fraction(self.numerator(n), n ** (2 * self.k + 1))


def moment_polynomial(k: int, ftable_row) -> MomentPolynomial:
    """Assemble Q_k from a row of balanced-quotient counts.

    Cross-validates the two bases by exact evaluation at N = 1..2k+3 before
    returning; a mismatch means a bug, not bad input.
    """
    b = tuple(int(x) for x in ftable_row)
    if k < 1 or len(b) != k + 1:
        raise ValueError(f"expected k+1 = {k + 1} counts for k={k}, got {len(b)}")
    a = tuple(pochhammer_to_monomial(b))
    for n in range(1, 2 * k + 4):
        via_monomial = sum(c * n ** j for j, c in enumerate(a, start=1))
        via_pochhammer = sum(c * falling_factorial(n, j) for j, c in enumerate(b, start=1))
        if via_monomial != via_pochhammer:
            raise InternalCheckError(
                f"basis mismatch for k={k} at N={n}: {via_monomial} != {via_pochhammer}"
            )
    return MomentPolynomial(k, b, a)


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

    Obtained by pushing the conjectured monomial coefficients through the
    Stirling change of basis.  Agrees with the exact counts for k <= 5 and
    diverges from k = 6 on.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return [
        sum(
            (-1) ** (k - r + 1) * stirling2(r, j) * borel_entry(k - 1, k - r + 1)
            for r in range(j, k + 2)
        )
        for j in range(1, k + 2)
    ]


def conjectured_moment(k: int, n: int) -> Fraction:
    """The conjectured k-th moment at dimension n, as an exact rational.

    N^(-2k-1) * sum_{j=2}^{k+1} (-1)^(k-j+1) f_(k-1, k-j+1) N^j with f the
    Borel triangle.  Exact for k <= 5 only.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive integers")
    numerator = sum(
        (-1) ** (k - j + 1) * borel_entry(k - 1, k - j + 1) * n ** j
        for j in range(2, k + 2)
    )
    return Fraction(numerator, n ** (2 * k + 1))


@lru_cache(maxsize=None)
def ftable_row(k: int) -> tuple[int, ...]:
    """Row [F(2k, 1), ..., F(2k, k+1)] of exact counts, computed once per k.

    Raises ScaleLimitError when the engine's layers would outgrow
    ``graphs.MAX_LAYER_STATES``.
    """
    return tuple(counting.count_ddcg_partitions(k))


def exact_moment(k: int, n: int) -> Fraction:
    """Exact k-th mean spectral moment at dimension n."""
    return moment_polynomial(k, ftable_row(k)).moment(n)


def find_disproof(k_max: int) -> list[tuple[int, int, int, int]]:
    """All (k, j, conjectured, actual) with conjectured != actual for k <= k_max.

    Empty for k_max <= 5; the first entries appear at k = 6.
    """
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    mismatches = []
    for k in range(1, k_max + 1):
        actual = ftable_row(k)
        predicted = conjectured_ftable(k)
        for j in range(1, k + 2):
            if predicted[j - 1] != actual[j - 1]:
                mismatches.append((k, j, predicted[j - 1], actual[j - 1]))
    return mismatches
