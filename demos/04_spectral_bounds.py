"""Dirichlet spectra, the penalized semigroup, and the survival-bound chain.

Shows the principal eigenvalue of the killed operator (against the closed
form on the all-ones box and against the N^(-(d/gamma+mu))/(8d) floor at
the prescribed killing rate, with the route that certified the floor),
evaluates the penalized survival value four
ways, and runs the survival and exit-time envelope checks.
"""

import numpy as np

from rcmwalk import (
    BoxGeometry,
    OperatorSpec,
    exit_time_tail_check,
    feynman_kac_lanczos,
    feynman_kac_mc,
    feynman_kac_spectral,
    feynman_kac_uniformization,
    homogeneous_lambda1_exact,
    lambda1,
    lambda1_floor_check,
    perturbation_identity_check,
    sample_environment,
    strong_cluster,
    survival_bound_check,
    prescribed_spec,
    threshold_for_density,
)

# --- principal eigenvalue ----------------------------------------------------
N = 24
homog = sample_environment(BoxGeometry(2, N + 1), np.inf, 0)  # gamma = inf: all-ones conductances
rep = lambda1(OperatorSpec(env=homog, box_radius=N))
print(f"all-ones box N={N}: Lambda1 = {rep.Lambda1:.10f}  "
      f"(closed form {homogeneous_lambda1_exact(N):.10f})")

env = sample_environment(BoxGeometry(2, 33), 2.0, 9)
dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
pspec = prescribed_spec(env, dec, 32, mu=0.1)
cert = lambda1_floor_check(pspec)
print(f"random env N=32 at the prescribed rate {pspec.lam:.4f}: "
      f"Lambda1 = {lambda1(pspec).Lambda1:.5f} >= m(N) = {cert.m_N:.5f}  -> {cert.passed}")
print(f"  certified on the {cert.method} route: {cert.neg_pivots} eigenvalues below m(N), "
      f"{cert.iterations} shift-invert solves")

# --- penalized survival value, four ways -------------------------------------
small = sample_environment(BoxGeometry(2, 5), 2.0, 3)
sdec = strong_cluster(small, threshold_for_density(2.0, 0.6))
spec = OperatorSpec(env=small, decomp=sdec, box_radius=4, lam=0.3)
t = 2.0
v_spectral = feynman_kac_spectral(spec, t)
v_uniform = feynman_kac_uniformization(spec, t)
v_lanczos, steps, _ = feynman_kac_lanczos(spec, t)
v_mc, se = feynman_kac_mc(spec, t, 40_000, np.random.default_rng(17))
print(f"\nE[exp(-lam A); alive] at t={t}: spectral {v_spectral:.6f}, "
      f"uniformized {v_uniform:.6f}, Lanczos {v_lanczos:.6f} ({steps} steps), "
      f"MC {v_mc:.6f} (+/- {se:.6f})")

pert = perturbation_identity_check(spec, [t])
print(f"perturbation identities, integrals in closed form, deviate by {pert.max_deviation:.2e}")

# --- survival bound at the coupled horizon (same operator as the floor) -------
sb = survival_bound_check(pspec)
print(f"\nsurvival envelope at t = {sb.t:.0f} (coupled to N=32): "
      f"log lhs = {sb.lhs_log:.2f} <= log rhs = {sb.rhs_log:.2f}  -> {sb.passed} "
      f"({sb.steps} Lanczos steps)")

# --- exit-time tail against the Gaussian-shaped envelope ----------------------
tail = exit_time_tail_check(OperatorSpec(env=env, box_radius=24), np.geomspace(24**2 / 16, 24**2, 8))
print(f"\nexact exit times from B_24: P(tau <= t) from {tail.p_exit.min():.2e} "
      f"to {tail.p_exit.max():.3f}, "
      f"fitted envelope C = {tail.C:.2e}, c = {tail.c:.3f}, "
      f"dominates everywhere: {tail.all_below}")
print(f"Gaussian-slope regression: {tail.gaussian_slope:.2f} (<= -1 keeps the bound shape)")
