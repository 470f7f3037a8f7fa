"""Deciding achievability exactly on desk-scale games.

The oracle runs backward induction over outcome-count states (histories
with the same outcome counts share one value, since every rate depends on
the outcomes only through their multiset), solving each round as a
zero-sum matrix game; the leaf payoff charges the adversary the best
comparator's loss plus its rate penalty. A nonpositive root value
means some strategy meets the rate on every sequence of this game.
"""

import itertools

import numpy as np

from regretlab import AdaptiveRate, Distribution, GameSpec
from regretlab.oracle import achievability_check

binary_columns = [list(v) for v in itertools.product([0.0, 1.0], repeat=2)]

print("game: 2 experts, binary loss columns, horizon 3\n")
game = GameSpec.experts_game(binary_columns, horizon=3)

print("a rate of zero demands zero regret, which no strategy can deliver:")
report = achievability_check(game, AdaptiveRate("uniform_constant", value=0.0))
print(f"  root value {report.value:+.4f} -> achievable: {report.achievable}")
print(f"  adversary's maximising outcome path: {report.worst_path}")

print("\nthe reference-expert rate has enough slack at this horizon:")
fvb = AdaptiveRate("fixed_vs_best", fstar_index=0, class_size=2)
report = achievability_check(game, fvb)
print(f"  root value {report.value:+.2f} -> achievable: {report.achievable}")

print("\nmixture comparators with the prior-relative rate, 101-point grid:")
comparators = [np.array([j / 100, 1 - j / 100]) for j in range(101)]
game_mix = GameSpec.experts_game(binary_columns, horizon=2, comparators=comparators)
rate = AdaptiveRate("pac_bayes", prior=Distribution.uniform(2))
report = achievability_check(game_mix, rate)
print(f"  grid-only root value    {report.value:+.2f}")
print(f"  KL-ball refined value   {report.refined_value:+.2f}  (conservative side)")
print(f"  achievable: {report.achievable}")

print("\nthe smallest achievable constant rate is the plain minimax value:")
game1 = GameSpec.experts_game([[1.0, 0.0], [0.0, 1.0]], horizon=1)
for c in (0.0, 0.25, 0.5, 0.75):
    value = achievability_check(game1, AdaptiveRate("uniform_constant", value=c)).value
    print(f"  constant {c:4.2f} -> root value {value:+.4f}")
