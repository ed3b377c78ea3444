"""Particle measures, Wasserstein distances, and path-space couplings.

The solver represents every local mean field as an atomic measure, so all
metric structure reduces to exact 1-D computations. This demo exercises the
W1 distance, the truncated path-space coupling distance, and the diagnostic
Holder fit that estimates how smoothly an ensemble moves in time.
"""

import numpy as np

from gmfg import (Measure1D, PathBundle, dirac, empirical, ensemble_distance,
                  holder_modulus, marginals, path_distance_DT, w1,
                  w1_joint_continuity_scan)

mu = Measure1D([0.0, 1.0], [0.5, 0.5])
nu = dirac(0.5)
print("W1 between {0, 1} (half/half) and a point at 0.5:", w1(mu, nu))

gen = np.random.default_rng(0)
samples = gen.standard_normal(20_000)
print("W1 of a 20k-sample empirical normal vs a fine quantile table:",
      round(w1(empirical(samples),
               Measure1D(np.sort(gen.standard_normal(20_000)))), 4))

# A path bundle is a set of particle trajectories per vertex. Shifting every
# path by c moves the coupled path distance by exactly min(c, 1).
K, R = 32, 500
times = np.linspace(0.0, 1.0, K + 1)
steps = gen.standard_normal((2, R, K)) * np.sqrt(1.0 / K)
paths = np.concatenate([np.zeros((2, R, 1)), np.cumsum(steps, axis=2)], axis=2)
b1 = PathBundle(paths, times)
for shift in (0.25, 5.0):
    b2 = PathBundle(paths + shift, times)
    print(f"shift {shift}: per-vertex path distance =",
          path_distance_DT(b1.paths[0], b2.paths[0]),
          " ensemble distance =", ensemble_distance(b1, b2))

# Brownian paths move like sqrt(dt); the Holder fit of their mean
# increments should find an exponent near one half.
c_h, eta = holder_modulus(b1)
print(f"\nHolder fit of the Brownian paths: C_h = {c_h:.4f}, eta = {eta:.3f}")
ens = marginals(b1)
print("joint (vertex, time) continuity scan:",
      round(w1_joint_continuity_scan(ens), 4))
