"""The two-level exponential-weights strategy in action.

One low-level exponential-weights instance runs per doubling complexity
radius; a high-level softmax with radius-dependent prior offsets mixes
them. The potential function evaluated at the empty prefix, plus the
KL-radius rate of any comparator, upper-bounds the realised regret to that
comparator on every sequence.
"""

import math

import numpy as np

from regretlab import (
    Distribution,
    RadiusLadder,
    RngSpec,
    TwoLevelState,
    highlevel_weights,
    kl_divergence,
    kl_radius_rate,
    relaxation_value,
    twolevel_predict,
)

n, k = 256, 8
prior = Distribution.uniform(k)
ladder = RadiusLadder.for_game(n, k)
print(f"{k} experts, horizon {n}, ladder radii {ladder.radii}")

# adversarial-ish environment: expert 0 is quietly best
gen = RngSpec(seed=7).generator()
losses = (gen.random((n, k)) < 0.5).astype(float)
losses[:, 0] = (gen.random(n) < 0.35).astype(float)

state = TwoLevelState(prior, ladder, n, "fixed_inverse_sqrt_n")
certificate = relaxation_value(state)
algo_loss = 0.0
for t in range(n):
    q = twolevel_predict(state)
    algo_loss += float(np.dot(q.weights, losses[t]))
    state.update(losses[t])

print(f"\nstrategy loss {algo_loss:.1f}, potential at the start {certificate:.2f} "
      f"(guaranteed <= 4 sqrt(n) = {4 * math.sqrt(n):.1f})")

print("\nregret vs. certified budget, per comparator:")
cum = losses.sum(axis=0)
for label, f in [
    ("best expert", Distribution.point_mass(0, k)),
    ("uniform mix", prior),
    ("wrong expert", Distribution.point_mass(1, k)),
]:
    regret = algo_loss - float(np.dot(f.weights, cum))
    budget = kl_radius_rate(f, prior, n) + certificate
    print(f"  {label:12s} KL {kl_divergence(f, prior):5.2f}  "
          f"regret {regret:8.2f}  budget {budget:8.2f}  slack {budget - regret:8.2f}")

print("\nhigh-level mixing weights after all rounds (low rungs dominate):")
w = highlevel_weights(state).weights
for i, (radius, weight) in enumerate(zip(ladder.radii, w)):
    bar = "#" * int(60 * weight)
    print(f"  rung {i + 1:2d} (R = {radius:6.0f})  {weight:8.5f} {bar}")
