"""
Exact enumeration and upper bounds
==================================

Every closed formula in the package is an exact big-integer computation,
and each one is cross-checked against brute-force enumeration at small
lengths. For three stacks no formula is known; the package computes two
upper bounds instead and verifies them against the true (brute-forced)
counts.

Run:  python3 demos/03_exact_counting.py
"""
from stackwords import (
    bound_summand,
    brute_force_count,
    brute_force_image_descent_counts,
    three_stack_bound,
    trivial_bound,
    two_stack_count_by_descents,
)

print("2-stack sortable permutations refined by descent count (rows n = 1..7):")
for n in range(1, 8):
    row = [two_stack_count_by_descents(n, d) for d in range(n)]
    print(f"  n={n}: {row}  (sum {sum(row)})")
print("Rows are symmetric and sum to the closed-form total.")

print()
print("The true 3-stack sortable counts against both upper bounds:")
print(f"  {'n':>2}  {'count':>8}  {'insertion bound':>15}  {'trivial bound':>15}")
for n in range(1, 9):
    print(
        f"  {n:>2}  {brute_force_count(n, 3):>8}  {three_stack_bound(n):>15}"
        f"  {trivial_bound(n, 3):>15}"
    )
print("The insertion bound is far sharper than (t+1)^(2n), and is exact at n <= 2.")

print()
print("Where the insertion bound comes from, at n = 6: group the 3-stack")
print("sortable permutations by the descent count d of their sorted image;")
print("each group is capped by (2-stack count with d descents) x C(2n-2k, n-1):")
n = 6
tallies = brute_force_image_descent_counts(n)
total_cap = 0
for d in sorted(tallies):
    cap = bound_summand(n, d + 1)
    total_cap += cap
    print(f"  d={d}: {tallies[d]:>5} permutations  <=  cap {cap:>6}")
print(f"  total {sum(tallies.values())} <= {total_cap} = three_stack_bound({n}) = {three_stack_bound(n)}")
