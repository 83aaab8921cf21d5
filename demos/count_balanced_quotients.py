"""Count the cycle partitions with balanced quotients, row by row.

For each k the balanced-quotient engine places the 2k cycle vertices one at
a time, row indices (odd vertices) and column indices (even vertices) in
blocks of their own, merging prefixes that reach the same block/imbalance
state, and buckets the balanced partitions by block count.  The three closed-form
columns (j = 1, 2, k+1) come out as 1, a central binomial minus one, and a
Catalan number; everything in between has no known formula.
"""

import math
import time

from unimoments import REFERENCE_COUNTS, count_brute, count_ddcg_partitions

print("exact counts F(2k, j) of balanced-quotient partitions")
print()
for k in range(1, 7):
    started = time.perf_counter()
    row = count_ddcg_partitions(k)
    elapsed = time.perf_counter() - started
    assert tuple(row) == REFERENCE_COUNTS[2 * k]
    print(f"2k = {2 * k:2d}  ({elapsed:5.2f}s)  {row}")

print()
print("closed-form columns for k = 6:")
row = count_ddcg_partitions(6)
print(f"  F(12, 1) = {row[0]} (always 1)")
print(f"  F(12, 2) = {row[1]} = C(12, 6) - 1 = {math.comb(12, 6) - 1}")
print(f"  F(12, 7) = {row[6]} = Catalan(6) = {math.comb(12, 6) // 7}")

print()
print("the unpruned lattice oracle agrees (k = 4):")
print(f"  engine: {count_ddcg_partitions(4)}")
print(f"  brute:  {count_brute(4)}")
