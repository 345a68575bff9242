"""A fractional proof cover as a pricing guide.

Every proof must contain, for each witness assignment on the other
side, some variable of the crossing set.  Putting weights on the
variables so that each crossing set collects at least 1 gives a
covering program; its optimum never exceeds the largest proof, and the
largest optimum over all restrictions (the sweep value) is a budget a
careful reader can honor: charge every unread variable in proportion
to its weight, read whichever one fills its own price first, repeat.

Greedy does not honor that budget.  This script shows a four-variable
function where greedy overshoots the sweep value while the guided
reader stays inside, and closes with a function whose sweep value is
pinned exactly by an adversary built from one certified switch.
"""

from fractions import Fraction

from pricedbool import (
    BooleanFunction,
    CostVector,
    SwitchAnalysis,
    adversarial_ratio,
    build_lp,
    competitive_ratio_exhaustive,
    greedy_strategy,
    lp_guided_strategy,
    majority,
    max_proof_size,
    max_restriction_objective,
    solve_lp,
    switch_example,
)


def show_rows(lp):
    for row in lp.rows:
        print("   ", "{" + ", ".join(f"x{v}" for v in sorted(row)) + "} >= 1")


maj = majority(3)
lp = build_lp(maj)
print("covering program for majority of three:")
show_rows(lp)
sol = solve_lp(lp)
weights = ", ".join(f"x{v} = {w}" for v, w in enumerate(sol.values))
print(f"  optimum {sol.objective} at {weights}")

# a function where the greedy reader overshoots the sweep value
f = BooleanFunction([0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1])
costs = CostVector.of([Fraction(84, 5), 44, Fraction(43, 2), 15])
delta = max_restriction_objective(f)
print(f"\na four-variable function with sweep value {delta}"
      f" (largest proof {max_proof_size(f)})")
greedy = competitive_ratio_exhaustive(greedy_strategy(costs), f, costs).ratio
guided = competitive_ratio_exhaustive(lp_guided_strategy(f, costs), f, costs).ratio
print(f"  greedy worst ratio: {greedy} > {delta}")
print(f"  guided worst ratio: {guided} <= {delta}")
assert guided <= delta < greedy

# pinning the sweep value from below: a certified switch, returned with
# the adversary that charges it
dnf = switch_example()
analysis = SwitchAnalysis(dnf)
g = analysis.f
k = len(analysis.switches)
print(f"\n{dnf.text()}  (x4 appears in both polarities)")
gamma = analysis.proof_size
print(f"  largest proof over the settings of the switch: {gamma}")
mixed = analysis.mixed_solution()
print(f"  averaging the per-setting optima is feasible at weight"
      f" {mixed.objective} = {k} + {gamma}")
setting, certificate, side, charge, adversary = analysis.certified_switch()
names = ", ".join(f"x{v}" for v in certificate)
print(f"  setting x4 = {setting[0]} leaves a {side} on {names} that no"
      f" other setting can certify")
for name, alg in (("greedy", greedy_strategy(charge)),
                  ("guided reader", lp_guided_strategy(g, charge))):
    forced = adversarial_ratio(alg, g, adversary, charge)
    print(f"  unit charges on the certificate force the {name} to"
          f" {forced.ratio}")
print(f"  sweep value of the function: {max_restriction_objective(g)}"
      f" (tight on both sides)")
