"""Print the spectral-moment polynomials Q_k in both bases.

The k-th mean spectral moment of rho = U U* / N^2 is Q_k(N) / N^(2k+1).
Q_k arrives with falling-factorial coefficients (the balanced-quotient
counts); converting to ordinary powers of N is a Horner expansion of the
nested form N (b_1 + (N-1) (b_2 + ...)), and the way back is synthetic
division by N - 1, N - 2, ...
"""

import math
from fractions import Fraction

from unimoments import count_ddcg_rows, exact_moment, pochhammer_to_monomial


def pretty(coeffs, term):
    parts = []
    for j in range(len(coeffs), 0, -1):
        c = coeffs[j - 1]
        if c:
            parts.append(f"{'+' if c > 0 and parts else ''}{c}*{term}^{j}")
    return " ".join(parts) or "0"


for k, row in enumerate(count_ddcg_rows(7), start=1):
    print(f"k = {k}")
    print(f"  falling factorial: {pretty(row, '(N)')}")
    print(f"  monomial:          {pretty(pochhammer_to_monomial(row), 'N')}")

print()
print("exact moments at small dimensions:")
for k in (1, 2, 3):
    values = ", ".join(f"N={n}: {exact_moment(k, n)}" for n in (1, 2, 3, 4))
    print(f"  k = {k}:  {values}")

print()
print("dimension 2 collapses to a binomial closed form:")
for k in range(1, 7):
    assert exact_moment(k, 2) == Fraction(math.comb(2 * k, k), 4**k)
    print(f"  E[tr(rho^{k})] at N=2  =  C({2 * k},{k}) / 4^{k}  =  {exact_moment(k, 2)}")
