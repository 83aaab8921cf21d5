"""Traffic states of small colored graphs, two independent ways.

The exact route sums a falling factorial over every partition whose quotient
is balanced.  The oracle route sums the edge-entry product over all vertex
maps, as one tensor contraction, and averages it over sampled matrices.
They must agree within noise.
"""

from unimoments import (
    Color,
    ColoredDigraph,
    alternating_cycle,
    is_ddcg,
    tau_via_quotients,
    traffic_state_brute,
)

R, B = Color.RED, Color.BLUE

GRAPHS = {
    "2-cycle (red/blue)": alternating_cycle(1),
    "4-cycle (alternating)": alternating_cycle(2),
    "loop pair on one vertex": ColoredDigraph(1, ((0, 0, R), (0, 0, B))),
    "lone red loop": ColoredDigraph(1, ((0, 0, R),)),
    "balanced 3-chain": ColoredDigraph(3, ((0, 1, R), (1, 0, B), (1, 2, R), (2, 1, B))),
    "all-red triangle": ColoredDigraph(3, ((0, 1, R), (1, 2, R), (2, 0, R))),
}

for name, g in GRAPHS.items():
    balanced = "balanced" if is_ddcg(g) else "unbalanced"
    print(f"{name}  ({g.vertex_count} vertices, {g.edge_count} edges, {balanced})")
    for n in (2, 3):
        exact = tau_via_quotients(g, n)
        mean, se = traffic_state_brute(g, n, 4000, seed=5, with_stderr=True)
        print(f"  N = {n}:  exact = {str(exact):>6}   "
              f"sampled = {mean.real:8.4f} +/- {se:.4f}")
    print()

print("unbalanced graphs can still have nonzero traffic states:")
print("merging vertices in a quotient can create the missing color pairings.")
