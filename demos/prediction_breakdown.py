"""Where the Borel-triangle closed form stops matching the exact counts.

A closed-form prediction for the counts F(2k, j), built from Borel-triangle
entries pushed through the Stirling change of basis, reproduces every count
up to k = 5.  At k = 6 it undershoots three entries; the most cited one is
F(12, 3), predicted 10988 against an actual 11000.
"""

from unimoments import conjectured_ftable, count_ddcg_rows, find_disproof

print("prediction vs exact, k = 1..6")
print()
for k, actual in enumerate(count_ddcg_rows(6), start=1):
    predicted = conjectured_ftable(k)
    status = "exact" if predicted == actual else "WRONG"
    print(f"k = {k} [{status}]")
    print(f"  predicted: {predicted}")
    print(f"  actual:    {actual}")

print()
print("all mismatches through k = 8:")
for k, j, predicted, actual in find_disproof(8):
    print(f"  k = {k}, j = {j}: predicted {predicted}, actual {actual} "
          f"(short by {actual - predicted})")

print()
print("the prediction never overshoots; it seems to count a proper subfamily.")
