"""Environments under the power-tail conductance law, and their strong clusters.

Walks through: sampling a box of i.i.d. conductances, checking the law
empirically, and the percolation decomposition into strong cluster and
holes.
"""

import math

from rcmwalk import (
    BoxGeometry,
    hole_volume_report,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)

# --- one environment -------------------------------------------------------
d, N, gamma, seed = 2, 64, 2.0, 7
env = sample_environment(BoxGeometry(d, N), gamma, seed)
print(f"environment: d={d}, radius {N} -> {env.geometry.n_sites} sites, {env.geometry.n_bonds} bonds")
print(f"conductances in ({env.omega.min():.3g}, {env.omega.max():.3g}]")

# the law has CDF a^gamma on [0,1]; compare a few quantiles
for a in (0.1, 0.3, 0.7):
    print(f"  P(omega <= {a}) = {(env.omega <= a).mean():.4f}   (law: {a ** gamma:.4f})")

# --- strong cluster and holes ----------------------------------------------
p = 0.95  # strong-bond density
xi = threshold_for_density(gamma, p)
dec = strong_cluster(env, xi)
rep = hole_volume_report(dec)
frac = dec.cluster_size / env.geometry.n_sites
print(f"\nthreshold xi = {xi:.4f} keeps a fraction {p} of bonds strong")
print(f"strong cluster covers {frac:.2%} of the box; {len(dec.holes)} hole(s), "
      f"largest volume {rep.max_volume}")
print(f"volume envelope (log N)^2.5 = {math.log(N) ** 2.5:.1f} at the box scale")

# lowering the density produces more holes
for p_low in (0.75, 0.6):
    dec_low = strong_cluster(env, threshold_for_density(gamma, p_low))
    vols = sorted((h.volume for h in dec_low.holes), reverse=True)
    print(f"  p={p_low}: {len(dec_low.holes)} holes, largest volumes {vols[:5]}")
