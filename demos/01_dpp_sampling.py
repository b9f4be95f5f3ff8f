"""Determinantal sampling walkthrough.

Builds three kernels (independent coins, a random Hermitian contraction,
a projection), draws exact samples from each, and checks the draws against
the closed-form laws: principal-minor intensities, the Poisson-binomial
size distribution, and the full inclusion-exclusion distribution.
"""

import collections

import numpy as np

from qdlab import (
    exact_distribution,
    joint_intensity,
    random_kernel,
    random_projection,
    sample_many,
    size_pmf,
    validate_kernel,
)

TRIALS = 20_000

print("=== uniform independent coloring: kernel (1/2) I ===")
uniform = validate_kernel(0.5 * np.eye(4))
draws = sample_many(uniform, TRIALS, seed=1)
sizes = collections.Counter(len(s.points) for s in draws)
print("size law (exact):", np.round(size_pmf(uniform), 4))
print("size law (drawn):", [round(sizes.get(k, 0) / TRIALS, 4) for k in range(5)])

print()
print("=== random Hermitian kernel on [5] ===")
kernel = random_kernel(5, seed=7)
print("spectrum:", np.round(kernel.eigenvalues, 4))
draws = sample_many(kernel, TRIALS, seed=2)
# the exact law is indexed by subset mask: bit i set when point i + 1 is drawn
counts = collections.Counter(sum(1 << (p - 1) for p in s.points) for s in draws)
dist = exact_distribution(kernel)
tv = 0.5 * sum(abs(counts.get(m, 0) / TRIALS - p) for m, p in enumerate(dist))
print(f"TV(empirical, exact) over all 32 subsets at {TRIALS} draws: {tv:.4f}")

# repulsion: pairs co-occur no more often than independence allows
for pair in ([1, 2], [2, 5]):
    joint = joint_intensity(kernel, pair)
    prod = joint_intensity(kernel, pair[:1]) * joint_intensity(kernel, pair[1:])
    print(f"P[{pair} both in X] = {joint:.4f} <= product of marginals {prod:.4f}")

print()
print("=== projection kernel: samples have constant size = rank ===")
proj = random_projection(6, seed=3)
draws = sample_many(validate_kernel(proj.array), 2_000, seed=4)
print("rank:", proj.rank, "| observed sizes:", sorted({len(s.points) for s in draws}))
