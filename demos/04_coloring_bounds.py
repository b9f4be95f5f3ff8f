"""Probabilistic bounds in action.

First the classical side: a uniform random coloring satisfies every
sqrt(2|S| log M) threshold simultaneously more than half the time. Then
the quantum side: a random quantum coloring satisfies every Delta_P
threshold simultaneously, with the constant c fitted from measured
concentration tails.
"""

import numpy as np

from qdlab import (
    concentration_probe,
    delta_event_count,
    disc_random_bound,
    random_coloring_satisfaction,
    random_projection_system,
    random_quantum_coloring,
    random_set_system,
)

system = random_set_system(20, 20, seed=3)
probe = random_coloring_satisfaction(system, trials=10_000, seed=4)
print("random coloring lemma at N=20, M=20:")
print("  thresholds per set:", np.round(disc_random_bound(system), 2))
print(f"  all-sets satisfaction frequency: {probe.frequency:.3f} (the bound promises >= 0.5)")

print()
n = 16
tails = concentration_probe(n, trials=10_000, seed=5)
print(f"concentration probe at N={n}: c_trace={tails.fit_trace.c_hat:.2f} "
      f"(R^2={tails.fit_trace.r_squared:.2f}), "
      f"c_comm={tails.fit_commutator.c_hat:.2f} (R^2={tails.fit_commutator.r_squared:.2f})")
c = tails.c_hat
print(f"using c = min = {c:.2f}")

for m in (4, 64):
    psys = random_projection_system(n, m, seed=(6, m))
    trials = 400
    colorings = (random_quantum_coloring(n, seed=(7, m, t)).array for t in range(trials))
    hits = delta_event_count(psys, colorings, c)
    print(f"  M={m:3d}: random colorings satisfy all Delta_P simultaneously "
          f"in {hits}/{trials} trials")
