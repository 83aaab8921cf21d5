"""Monte Carlo spot checks of the exact moment polynomials.

Draws matrices with unit-circle entries, estimates E[tr(rho^k)] from traces
of products of rho = U U* / N^2, and scores each estimate against the exact
value.  The k = 1 case is an algebraic identity (every sample gives exactly
1/N), so its z-score is pinned at zero.
"""

import time

from unimoments import estimate_moment, validate_against_exact

print("single estimate, N = 2, k = 3, 100k samples:")
estimate = estimate_moment(2, 3, 100_000, seed=42)
print(f"  mean      = {estimate.mean:.6f}")
print(f"  std error = {estimate.std_error:.2e}")
print(f"  exact     = {estimate.exact:.6f}  (= 5/16)")
print(f"  z         = {estimate.z:+.2f}")

print()
print("sweep over (N, k) with shared samples per dimension:")
started = time.perf_counter()
report = validate_against_exact(5, [2, 3, 4], 50_000, seed=7)
print(f"  {len(report.entries)} pairs in {time.perf_counter() - started:.1f}s")
print(f"  within 4 sigma: {report.fraction_within_4:.0%}   "
      f"max |z| = {report.max_abs_z:.2f}   passed = {report.passed}")
print()
print("   N  k        mean       exact       z")
for entry in report.entries:
    print(f"  {entry.n:2d}  {entry.k}  {entry.mean:10.6f}  {entry.exact:10.6f}  "
          f"{entry.z:+6.2f}")
