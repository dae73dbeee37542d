"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test pins its tolerances directly; statistical checks use fixed seeds
sized so the margins are comfortable.  Run with ``pytest -s`` (or ``-v``)
to see the verdict lines.
"""

import math
import time

import numpy as np
from scipy.linalg import expm
from scipy.special import ive
from scipy.stats import poisson

from rcmwalk import (
    BoxGeometry,
    OperatorSpec,
    UniformizationCache,
    box_radius_for_horizon,
    clt_lower_bound_check,
    default_time_grid,
    derive_environment_seeds,
    effective_conductance_matrix,
    effective_conductances,
    feynman_kac_mc,
    feynman_kac_spectral,
    fit_exponent,
    hole_volume_report,
    homogeneous_lambda1_exact,
    lambda1,
    lambda1_floor_check,
    next_point_frequencies,
    perturbation_identity_check,
    poissonization_lower_bound,
    prescribed_spec,
    return_prob_curve_exact,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)


def _verdict(num: int, name: str, passed: bool, detail: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} [{time.monotonic() - started:5.1f}s] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exact_kernel_vs_dense_oracle():
    started = time.monotonic()
    worst_uniform = worst_lanczos = 0.0
    seeds = derive_environment_seeds(101, 10)
    times = (0.5, 1.0, 2.0, 5.0)
    for seed in seeds:
        env = sample_environment(BoxGeometry(2, 16), 2.0, int(seed))
        cache = UniformizationCache(env, box_radius=15)  # 31x31 = 961 sites
        assert cache.chain.P.shape[0] <= 1000
        L = cache.chain.P.toarray() - np.eye(cache.chain.P.shape[0])
        o = cache.chain.origin
        half = expm(0.5 * L)  # scaling-and-squaring once, then exact powers
        e1 = half @ half
        e2 = e1 @ e1
        e5 = e2 @ e2 @ e1
        dense = np.array([mat[o, o] for mat in (half, e1, e2, e5)])
        worst_uniform = max(worst_uniform, max(abs(cache.return_prob(t) - p) for t, p in zip(times, dense)))
        curve = return_prob_curve_exact(env, times, box_radius=15)  # the engine the curves ship with
        worst_lanczos = max(worst_lanczos, float(np.max(np.abs(curve.p - dense))))
    _verdict(
        1,
        "exact kernel vs dense matrix exponential",
        worst_uniform <= 1e-10 and worst_lanczos <= 1e-10,
        f"max |diff| = {worst_uniform:.2e} (uniformization), {worst_lanczos:.2e} (Lanczos bracket) "
        "over 10 environments, t in {0.5,1,2,5}",
        started,
    )


def test_criterion_02_quenched_exponent_large_gamma():
    started = time.monotonic()
    t_max = 400.0
    n_box = box_radius_for_horizon(t_max)
    grid = default_time_grid(20.0, t_max)
    slopes = []
    for seed in derive_environment_seeds(202, 10):
        env = sample_environment(BoxGeometry(2, n_box + 1), 2.0, int(seed))
        curve = return_prob_curve_exact(env, grid, box_radius=n_box)
        slopes.append(fit_exponent(curve, (20.0, t_max)).slope)
    mean = float(np.mean(slopes))
    _verdict(
        2,
        "quenched exponent, d=2 gamma=2",
        -1.15 <= mean <= -0.85,
        f"mean slope {mean:.4f} over 10 environments (window [20,400], N={n_box})",
        started,
    )


def test_criterion_03_homogeneous_controls():
    started = time.monotonic()
    n2 = box_radius_for_horizon(400.0)
    ones2 = sample_environment(BoxGeometry(2, n2 + 1), math.inf, 0)
    c2 = return_prob_curve_exact(ones2, default_time_grid(20, 400), box_radius=n2)
    s2 = fit_exponent(c2, (20, 400)).slope
    ones3 = sample_environment(BoxGeometry(3, 65), math.inf, 0)
    c3 = return_prob_curve_exact(ones3, default_time_grid(20, 200), box_radius=64)
    s3 = fit_exponent(c3, (20, 200)).slope
    # the walk on Z^d returns with the product of d one-dimensional kernels e^{-s} I_0(s), s = t/d
    free2, free3 = (ive(0, c.t / d) ** d for c, d in ((c2, 2), (c3, 3)))
    err2, err3 = (float(np.max(np.abs(c.p - free) / c.p)) for c, free in ((c2, free2), (c3, free3)))
    # with 2 * steps <= n the d = 2 bracket holds the walk on Z^d; the bracket and the closed form are
    # each rounded, so it holds it up to 16 ulp of p (it missed by up to 3.5 ulp when first measured)
    slack = 16 * np.finfo(float).eps * c2.p
    holds = 2 * c2.steps <= c2.N and bool(np.all((c2.p_lo - slack <= free2) & (free2 <= c2.p_hi + slack)))
    ok = abs(s2 - (-1.0)) <= 0.1 and abs(s3 - (-1.5)) <= 0.1 and max(err2, err3) <= 1e-12 and holds
    _verdict(
        3,
        "homogeneous slope controls",
        ok,
        f"d=2 slope {s2:.4f} (target -1 +/- 0.1), d=3 slope {s3:.4f} (target -1.5 +/- 0.1); "
        f"closed form off by {err2:.1e} (d=2) and {err3:.1e} (d=3) relative (at most 1e-12), "
        f"d=2 bracket holds it: {holds} ({c2.steps} folded steps at n = {c2.N})",
        started,
    )


def test_criterion_04_annealed_exponent():
    started = time.monotonic()
    t_max = 400.0
    n_box = box_radius_for_horizon(t_max)
    grid = default_time_grid(20.0, t_max)
    curves = []
    for seed in derive_environment_seeds(404, 50):
        env = sample_environment(BoxGeometry(2, n_box + 1), 2.0, int(seed))
        curves.append(return_prob_curve_exact(env, grid, box_radius=n_box))
    stack = np.vstack([c.p for c in curves])
    mean_curve = curves[0]
    mean_curve = type(mean_curve)(
        t=grid,
        p=stack.mean(axis=0),
        stderr=np.zeros_like(grid),
        method="exact-uniformization",
        d=2,
        N=n_box,
        gamma=2.0,
        seed=404,
    )
    slope = fit_exponent(mean_curve, (20.0, t_max)).slope
    _verdict(
        4,
        "annealed exponent (average curves, then fit)",
        -1.15 <= slope <= -0.85,
        f"slope {slope:.4f} over 50 environments",
        started,
    )


def test_criterion_05_spectral_gap_floor():
    started = time.monotonic()
    failures = 0
    checks = 0
    for n in (32, 64, 128):
        for seed in derive_environment_seeds(500 + n, 20):
            env = sample_environment(BoxGeometry(2, n + 1), 2.0, int(seed))
            dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
            cert = lambda1_floor_check(prescribed_spec(env, dec, n, mu=0.1))
            checks += 1
            failures += 0 if cert.passed else 1
    worst_eig = 0.0
    for n in (32, 64, 128):
        env = sample_environment(BoxGeometry(2, n + 1), math.inf, 0)
        rep = lambda1(OperatorSpec(env=env, box_radius=n, lam=0.0), tol=1e-12)
        worst_eig = max(worst_eig, abs(rep.Lambda1 - homogeneous_lambda1_exact(n)))
    ok = failures == 0 and worst_eig <= 1e-10
    _verdict(
        5,
        "principal-eigenvalue floor and homogeneous identity",
        ok,
        f"{checks - failures}/{checks} floor checks passed; homogeneous |error| = {worst_eig:.2e}",
        started,
    )


def test_criterion_06_feynman_kac_consistency():
    started = time.monotonic()
    worst_z = 0.0
    fixtures = [
        (seed, n, p, lam, t)
        for seed, (n, p, lam, t) in enumerate(
            [
                (3, 0.60, 0.2, 1.5),
                (3, 0.60, 0.5, 2.5),
                (3, 0.75, 0.2, 2.0),
                (3, 0.75, 0.5, 1.0),
                (4, 0.60, 0.2, 2.0),
                (4, 0.60, 0.5, 1.5),
                (4, 0.75, 0.3, 2.5),
                (4, 0.75, 0.5, 2.0),
                (5, 0.70, 0.3, 1.5),
                (5, 0.65, 0.4, 4.0),
            ]
        )
    ]
    for seed, n, p, lam, t in fixtures:
        env = sample_environment(BoxGeometry(2, n + 1), 2.0, 600 + seed)
        dec = strong_cluster(env, threshold_for_density(2.0, p))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=n, lam=lam)
        exact = feynman_kac_spectral(spec, t)
        est, se = feynman_kac_mc(spec, t, 25_000, np.random.default_rng([600 + seed, 1]))
        assert se > 0, "degenerate fixture: zero Monte Carlo variance"
        worst_z = max(worst_z, abs(est - exact) / se)

    worst_dev = 0.0
    for seed in range(5):
        env = sample_environment(BoxGeometry(2, 3), 2.0, 660 + seed)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.6))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=2, lam=0.3)
        rep = perturbation_identity_check(spec, [2.0])
        worst_dev = max(worst_dev, rep.max_deviation)
    ok = worst_z <= 4.0 and worst_dev <= 1e-12
    _verdict(
        6,
        "penalized-survival value: spectral vs Monte Carlo vs identities",
        ok,
        f"max |z| = {worst_z:.2f} (10 fixtures), max identity deviation = {worst_dev:.2e}",
        started,
    )


def test_criterion_07_time_change_correctness():
    started = time.monotonic()
    xi = threshold_for_density(2.0, 0.75)
    worst_sym = 0.0
    worst_z = 0.0
    bound_violations = 0
    for k, seed in enumerate(derive_environment_seeds(707, 20)):
        env = sample_environment(BoxGeometry(2, 10), 2.0, int(seed))
        dec = strong_cluster(env, xi)
        M = effective_conductance_matrix(env, dec).tocsr()
        worst_sym = max(worst_sym, float(abs(M - M.T).max() / M.max()))
        # strong in-cluster neighbor pairs keep at least their bond weight
        geom = env.geometry
        strong = env.omega >= xi
        for b in np.flatnonzero(strong):
            u, v = int(geom.bond_u[b]), int(geom.bond_v[b])
            if dec.in_cluster[u] and dec.in_cluster[v]:
                if M[u, v] < xi - 1e-12:
                    bound_violations += 1
        # Monte Carlo next-point law at one hole-adjacent site
        if dec.holes:
            x = int(dec.holes[0].boundary[0])
            ec = effective_conductances(env, dec, x)
            n = 20_000
            sites, counts = next_point_frequencies(env, dec, x, n, np.random.default_rng([int(seed), 2]))
            freq = dict(zip(sites.tolist(), counts.tolist()))
            for y, w in ec.as_dict().items():
                prob = w / ec.eta
                se = math.sqrt(prob * (1 - prob) / n)
                if se > 0:
                    worst_z = max(worst_z, abs(freq.get(y, 0) / n - prob) / se)
    ok = worst_sym <= 1e-10 and worst_z <= 4.0 and bound_violations == 0
    _verdict(
        7,
        "effective conductances: symmetry, next-point law, strong-bond floor",
        ok,
        f"max relative asymmetry {worst_sym:.2e}, max |z| = {worst_z:.2f}, {bound_violations} floor violations",
        started,
    )


def test_criterion_08_monotonicity_and_poissonization():
    # The discrete-time bound is checked in its parity-corrected exact form
    # p(t) >= P^{2n}(0,0) P(Poisson(t) <= 2n and even), n = floor(t): the
    # continuous-time kernel mixes even-step returns only, so the variant
    # with the full Poisson CDF overcounts and is violated even on the
    # all-ones lattice (see test_full_cdf_variant_is_not_a_bound).
    started = time.monotonic()
    grid = np.geomspace(0.25, 50.0, 28)
    mono_ok = True
    poiss_ok = True
    literal_ok = True
    for seed in derive_environment_seeds(808, 5):
        env = sample_environment(BoxGeometry(2, 9), 2.0, int(seed))
        cache = UniformizationCache(env, box_radius=8)
        vals = [cache.return_prob(t) for t in grid]
        mono_ok &= all(vals[i + 1] <= vals[i] + 1e-14 for i in range(len(vals) - 1))
        for t in (2.5, 4.7, 9.3, 16.0):
            disc, even_tail = poissonization_lower_bound(cache, t)
            poiss_ok &= cache.return_prob(t) >= disc * even_tail
            literal_ok &= cache.return_prob(t) >= disc * poisson.cdf(2 * math.floor(t), t)
    _verdict(
        8,
        "monotone decay and discrete-time lower bound",
        mono_ok and poiss_ok,
        f"monotone: {mono_ok}, parity-corrected bound: {poiss_ok} "
        f"(full-CDF display form held: {literal_ok}; it is not a true bound)",
        started,
    )


def test_criterion_09_hole_volume_envelope():
    started = time.monotonic()
    violations = 0
    largest = 0
    for n in (128, 256, 512):
        bound = math.log(n) ** 2.5
        for seed in derive_environment_seeds(900 + n, 20):
            env = sample_environment(BoxGeometry(2, n), 2.0, int(seed))
            dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
            rep = hole_volume_report(dec)
            largest = max(largest, rep.max_volume)
            if rep.max_volume > bound:
                violations += 1
    _verdict(
        9,
        "hole volumes under (log n)^(5/2)",
        violations == 0,
        f"0 expected violations, saw {violations}; largest hole volume {largest} "
        f"(bound at n=128 is {math.log(128) ** 2.5:.1f})",
        started,
    )


def test_criterion_10_clt_lower_bound():
    started = time.monotonic()
    times = (32.0, 64.0, 128.0)
    n_box = box_radius_for_horizon(max(times))
    failures = 0
    min_margin = math.inf
    for seed in derive_environment_seeds(1010, 20):
        env = sample_environment(BoxGeometry(2, n_box + 1), 2.0, int(seed))
        dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
        cache = UniformizationCache(env, box_radius=n_box)
        for t in times:
            rep = clt_lower_bound_check(env, dec, t, cache=cache)
            if not rep.passed:
                failures += 1
            min_margin = min(min_margin, rep.lhs / rep.rhs)
    _verdict(
        10,
        "reversibility/Cauchy-Schwarz lower bound",
        failures == 0,
        f"held on 20/20 environments at t in {{32,64,128}}; min lhs/rhs = {min_margin:.3f}",
        started,
    )
