"""Return-probability curves and the quenched decay exponent.

Computes the exact kernel on a Dirichlet box coupled to the horizon, as a
Lanczos bracket (Gauss below, Gauss-Radau above) whose relative width is at
most 1e-12, overlays a Monte Carlo estimate, and fits the log-log slope.
For tail exponents gamma > d/2 the quenched slope sits at -d/2, as the
homogeneous control confirms.
"""

import numpy as np

from rcmwalk import (
    BoxGeometry,
    box_radius_for_horizon,
    clt_lower_bound_check,
    default_time_grid,
    fit_exponent,
    return_prob_curve_exact,
    return_prob_mc,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)

d, gamma = 2, 2.0
t_max = 200.0
n_box = box_radius_for_horizon(t_max)  # keeps truncation below everything else
grid = default_time_grid(10.0, t_max)
print(f"horizon {t_max} -> operator box radius {n_box} (environment radius {n_box + 1})")

env = sample_environment(BoxGeometry(d, n_box + 1), gamma, 5)
curve = return_prob_curve_exact(env, grid, box_radius=n_box)
fit = fit_exponent(curve, (10.0, t_max))
print(f"quenched slope (gamma={gamma} > d/2): {fit.slope:.4f}  "
      f"CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}]")
print(f"surviving mass at t_max: {curve.survival[-1]:.12f} (Dirichlet truncation monitor)")
width = float(np.max((curve.p_hi - curve.p_lo) / curve.p_lo))
print(f"Lanczos bracket: {curve.steps} steps, largest relative width (p_hi - p_lo) / p_lo = {width:.1e}")

# homogeneous control on the same grid: gamma = inf is the all-ones limit of the law
homog = sample_environment(BoxGeometry(d, n_box + 1), np.inf, 0)
hfit = fit_exponent(return_prob_curve_exact(homog, grid, box_radius=n_box), (10.0, t_max))
print(f"homogeneous control slope: {hfit.slope:.4f}  (CLT value -d/2 = {-d / 2})")

# Monte Carlo overlay on a small box
small = sample_environment(BoxGeometry(d, 9), gamma, 5)
small_grid = default_time_grid(0.5, 20.0, 8)
exact = return_prob_curve_exact(small, small_grid)
mc = return_prob_mc(small, small_grid, 20_000, np.random.default_rng(3))
print("\n    t      exact        MC     (z)")
for j, t in enumerate(small_grid):
    z = (mc.p[j] - exact.p[j]) / mc.stderr[j] if mc.stderr[j] > 0 else 0.0
    print(f"  {t:6.2f}  {exact.p[j]:.5f}  {mc.p[j]:.5f}  ({z:+.2f})")

# the reversibility lower bound at a mid-range time
dec = strong_cluster(env, threshold_for_density(gamma, 0.95))
(rep,) = clt_lower_bound_check(env, dec, [64.0], box_radius=n_box)
print(f"\nlower bound at t=64: p = {rep.lhs:.3e} >= {rep.rhs:.3e}  (margin {rep.lhs / rep.rhs:.2f}x)")
