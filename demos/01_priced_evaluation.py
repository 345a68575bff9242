"""Reading priced variables until a function's value is forced.

Every variable has a price.  A strategy reads one variable at a time
and must stop exactly when the read values force the function's value.
The benchmark for a run is the cheapest proof of the hidden assignment:
the least total price of any variable set whose values already force
the outcome.  The worst ratio between the two, over every assignment,
is the strategy's competitive ratio.
"""

from fractions import Fraction

from pricedbool import (
    CostVector,
    GreedyStrategy,
    PartialAssignment,
    cheapest_proof,
    competitive_ratio_exhaustive,
    parse_dnf,
    run,
    unit_costs,
)

f = parse_dnf("x0 & x1 | x2").function()
costs = CostVector.of([2, 3, Fraction(7, 2)])
print("function: x0 & x1 | x2")
print("prices:  ", {f"x{v}": str(c) for v, c in enumerate(costs.values)})

# one concrete evaluation, cheapest-first
hidden = PartialAssignment.of(3, {0: 1, 1: 0, 2: 1})
transcript = run(GreedyStrategy(costs), f, hidden, costs)
print("\nhidden assignment:", hidden.bit_string())
for record in transcript.reads:
    print(f"  read x{record.variable} = {record.value}  (paid {record.cost})")
print(f"stopped at value {transcript.final_value}, total paid {transcript.total_cost}")

proof, proof_cost = cheapest_proof(f, hidden, costs)
print(f"cheapest proof here: {sorted(proof.variables)} at cost {proof_cost}")
print(f"this run's ratio: {transcript.total_cost / proof_cost}")

# the worst case over all eight assignments
report = competitive_ratio_exhaustive(GreedyStrategy(costs), f, costs)
print(f"\nworst ratio over all assignments: {report.ratio}")
print(f"  attained at {report.worst_assignment.bit_string()}: "
      f"paid {report.algorithm_cost} against a {report.proof_cost} proof")

# with unit prices the same strategy looks different
unit_report = competitive_ratio_exhaustive(GreedyStrategy(unit_costs(3)), f,
                                           unit_costs(3))
print(f"same strategy at unit prices: worst ratio {unit_report.ratio}")
