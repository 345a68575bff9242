"""Symmetric functions have an exact closed-form competitive ratio.

A symmetric function only depends on how many variables are 1, so it is
a 0/1 profile over the counts 0..n.  Sorting the prices c_1 <= ... <= c_n
and writing d_k for the sum of the k cheapest, the best possible worst
ratio is

    max over k > n-s of   d_k / (d_{n-s} + c_k),

where s is the widest constant block of the profile.  Cheapest-first
reading attains it, and a block-walking adversary shows nothing beats
it.  Over all price vectors the formula tops out at exactly s.
"""

import random

from pricedbool import (
    GreedyStrategy,
    SymmetricProfile,
    adversarial_ratio,
    blocks,
    competitive_ratio_exhaustive,
    extremal_cost_vector,
    ratio_formula,
    ratio_string,
    spread,
    symmetric_adversary,
)
from pricedbool.core import random_cost_vector

profile = SymmetricProfile.from_string("0011100")
f = profile.function()
print(f"profile {profile.text()} on n = {profile.n} variables")
for b in blocks(profile):
    print(f"  value {b.value} while the one-count is in {b.lower}..{b.upper}")
print(f"spread (widest block): {spread(profile)}")

rng = random.Random(7)
costs = random_cost_vector(profile.n, rng, positive=True)
print("\nprices:", ", ".join(f"x{v}={c}" for v, c in enumerate(costs.values)))

formula = ratio_formula(profile, costs)
swept = competitive_ratio_exhaustive(GreedyStrategy(costs), f, costs).ratio
print(f"formula value:            {ratio_string(formula)}")
print(f"exhaustive greedy ratio:  {ratio_string(swept)}")

adversary = symmetric_adversary(profile, costs)
forced = adversarial_ratio(GreedyStrategy(costs), f, adversary, costs).ratio
print(f"adversary forces greedy:  {ratio_string(forced)}")
assert formula == swept == forced

# the extremal prices: zeros outside the widest block's worth of variables
worst = extremal_cost_vector(profile)
print(f"\nextremal prices ({', '.join(str(c) for c in worst.values)}) "
      f"push the formula to {ratio_string(ratio_formula(profile, worst))} "
      f"= the spread")
