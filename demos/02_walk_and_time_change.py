"""The walk's one-step law and the time-changed walk.

Prints the jump law at the origin and the exact kernel of the time-changed
walk from the origin, and compares the exact next-cluster-point law from the
hole pass against Monte Carlo frequencies.
"""

import numpy as np

from rcmwalk import (
    BoxGeometry,
    effective_conductances,
    heat_kernel_hat,
    next_point_frequencies,
    sample_environment,
    step_distribution,
    strong_cluster,
    threshold_for_density,
)

env = sample_environment(BoxGeometry(2, 10), 2.0, 11)
dec = strong_cluster(env, threshold_for_density(2.0, 0.6))
print(f"box radius {env.N}; strong cluster {dec.cluster_size} sites, {len(dec.holes)} holes")

# one-step law at the origin
nb, pr = step_distribution(env, env.geometry.origin)
print("jump law at the origin:", np.round(pr, 3))

# the time-changed walk as an exact chain on the cluster, from the origin
origin = env.geometry.origin
assert dec.in_cluster[origin]
curve = heat_kernel_hat(env, dec, origin, [1.0, 2.0, 4.0, 8.0, 16.0])
print("exact time-changed kernel from the origin (t^(d/2) sup of order one is the t^(-d/2) decay):")
for t, sup, rescaled in zip(curve.t, curve.sup, curve.rescaled):
    print(f"  t = {t:4.0f}: sup_y P(Xhat_t = y) = {sup:.4f}   t^(d/2) sup = {rescaled:.3f}")

# --- next-cluster-point law: exact vs Monte Carlo ---------------------------
x = int(dec.holes[0].boundary[0])  # a site touching a hole
ec = effective_conductances(env, dec, x)
print(f"\neffective conductances from site {x} (eta = pi(x) = {ec.eta:.3f}):")
n = 50_000
sites, counts = next_point_frequencies(env, dec, x, n, np.random.default_rng(2))
freq = dict(zip(sites.tolist(), counts.tolist()))
for y, w in sorted(ec.as_dict().items()):
    p = w / ec.eta
    print(f"  next = {y:5d}: exact {p:.4f}   MC {freq.get(y, 0) / n:.4f}   (weight {w:.4f})")
print("table sums to pi(x):", np.isclose(sum(ec.values), ec.eta))
