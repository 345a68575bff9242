"""When every minterm has at most two literals, a third of the largest
maxterm is unavoidable.

Fix a largest maxterm C.  Some of its literals win locally: together
with the rest of C set to 0 they already force the function to 1.  For
the remainder, a majority rule fixes the variables outside C, and at
least half of the remaining literals survive as single-read winners
under it.  Charging unit price to the winners (or the survivors alone)
and answering adversarially forces any strategy to pay for all of them
while a one-variable proof was available, which yields ratio at least
|C|/3.  The paired-pivot family shows the matching upper side: a
two-phase cheapest-first reader stays within s+1 on it.
"""

from fractions import Fraction

from pricedbool import (
    GreedyStrategy,
    PivotPairs,
    PivotTwoPhase,
    adversarial_ratio,
    certificate_sizes,
    competitive_ratio_exhaustive,
    maxterm_adversary,
    maxterm_analysis,
)
from pricedbool.core import random_cost_vector
import random

pairs = PivotPairs(2)
f = pairs.function()
print("the paired-pivot function for s = 2:")
print(" ", pairs.dnf().text())
k, ell = certificate_sizes(f)
print(f"largest minterm {k}, largest maxterm {ell}")

analysis = maxterm_analysis(f)
print("\nchosen largest maxterm:", " ".join(lit.text() for lit in analysis.maxterm))
print("local winners:", sorted(lit.text() for lit in analysis.local_winners) or "none")
print("outside variables fixed to:",
      {f"x{v}": b for v, b in analysis.outside_assignment.items()})
print("survivors under that fixing:", sorted(lit.text() for lit in analysis.survivors))

costs, adversary = maxterm_adversary(f, charge="winners", analysis=analysis)
report = adversarial_ratio(GreedyStrategy(costs), f, adversary, costs)
target = Fraction(ell, 3)
print(f"\nthe charged adversary forces greedy to ratio {report.ratio}"
      f" (needed: at least {target})")
print(f"  it paid {report.algorithm_cost} while a proof of cost"
      f" {report.proof_cost} existed")

print("\nupper side: the two-phase reader on the same family")
rng = random.Random(11)
for s in (1, 2, 3):
    pairs = PivotPairs(s)
    worst = max(
        competitive_ratio_exhaustive(
            PivotTwoPhase(pairs, c), pairs.function(), c).ratio
        for c in (random_cost_vector(pairs.n, rng) for _ in range(10)))
    print(f"  s = {s}: worst sampled ratio {worst} <= {s + 1}")
