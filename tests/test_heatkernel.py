import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import ive
from scipy.stats import poisson

from rcmwalk import (
    BoxGeometry,
    ReturnProbabilityCurve,
    UniformizationCache,
    ValidationError,
    box_radius_for_horizon,
    clt_lower_bound_check,
    default_time_grid,
    discrete_return_prob,
    fit_exponent,
    heat_kernel_hat,
    homogeneous_environment,
    poisson_truncation_k,
    poisson_weights,
    poissonization_lower_bound,
    return_prob_curve_exact,
    return_prob_exact,
    return_prob_mc,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)


class TestPoissonMachinery:
    def test_truncation_certifies_tail(self):
        for rate in (0.5, 3.0, 40.0, 400.0):
            k = poisson_truncation_k(rate, 1e-12)
            assert poisson.sf(k, rate) < 1e-12

    def test_weights_sum_to_one(self):
        for rate in (0.0, 1.0, 25.0, 300.0):
            k = poisson_truncation_k(max(rate, 1e-9), 1e-14) + 5
            w = poisson_weights(rate, k)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            poisson_truncation_k(-1.0, 1e-6)
        with pytest.raises(ValidationError):
            poisson_truncation_k(1.0, 0.0)


class TestExactKernel:
    def test_t_zero(self, small_env):
        assert return_prob_exact(small_env, 0.0) == 1.0

    def test_matches_dense_expm(self):
        # random environments, operator box within the stored box
        for seed in (5, 6):
            env = sample_environment(BoxGeometry(2, 3), 2.0, seed)
            cache = UniformizationCache(env, box_radius=2)
            L = cache.chain.P.toarray() - np.eye(cache.chain.P.shape[0])
            o = cache.chain.origin
            for t in (0.5, 1.0, 2.0, 5.0):
                oracle = expm(t * L)[o, o]
                assert abs(cache.return_prob(t) - oracle) <= 1e-10

    def test_monotone_in_t(self, small_env):
        cache = UniformizationCache(small_env)
        grid = np.geomspace(0.25, 60.0, 30)
        vals = [cache.return_prob(t) for t in grid]
        assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(len(vals) - 1))

    def test_free_lattice_formula(self):
        # all-ones box vs the product of 1d kernels e^{-s} I_0(s), s = t/d
        env = homogeneous_environment(2, 40)
        cache = UniformizationCache(env, box_radius=39)
        for t in (4.0, 16.0, 48.0):
            free = float(ive(0, t / 2.0) ** 2)
            assert cache.return_prob(t) == pytest.approx(free, rel=1e-8)

    def test_survival_monitor(self, small_env):
        cache = UniformizationCache(small_env, box_radius=3)
        s1, s2 = cache.survival(2.0), cache.survival(20.0)
        assert 0.0 < s2 < s1 <= 1.0

    def test_mass_conservation_free_mode(self, small_env):
        cache = UniformizationCache(small_env, killed=False)
        cache.ensure(150)
        assert max(abs(m - 1.0) for m in cache.mass) <= 1e-12

    def test_curve_provenance(self, small_env):
        grid = default_time_grid(1.0, 10.0, 6)
        curve = return_prob_curve_exact(small_env, grid)
        assert curve.method == "exact-uniformization"
        assert curve.N == small_env.geometry.N - 1
        assert curve.seed == small_env.seed
        assert curve.p[0] <= 1.0 and np.all(curve.stderr == 0)

    def test_tol_validation(self, small_env):
        with pytest.raises(ValidationError):
            return_prob_exact(small_env, 1.0, tol=0.0)


class TestMonteCarloKernel:
    def test_agrees_with_exact(self, small_env):
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        cache = UniformizationCache(small_env)
        mc = return_prob_mc(small_env, grid, 40_000, np.random.default_rng(9))
        for j, t in enumerate(grid):
            ex = cache.return_prob(t)
            assert abs(mc.p[j] - ex) <= 4 * max(mc.stderr[j], 1e-9)

    def test_t_zero_exact_one(self, small_env):
        mc = return_prob_mc(small_env, np.array([0.0, 1.0]), 100, np.random.default_rng(1))
        assert mc.p[0] == 1.0
        assert mc.stderr[0] == 0.0

    def test_stderr_scaling(self, small_env):
        grid = np.array([2.0])
        a = return_prob_mc(small_env, grid, 2_000, np.random.default_rng(3))
        b = return_prob_mc(small_env, grid, 8_000, np.random.default_rng(4))
        ratio = b.stderr[0] / a.stderr[0]
        assert 0.4 <= ratio <= 0.6  # doubling n twice halves the error

    def test_validation(self, small_env):
        with pytest.raises(ValidationError):
            return_prob_mc(small_env, [1.0], 0, np.random.default_rng(0))


class TestDiscreteKernel:
    def test_zero_steps(self, small_env):
        assert discrete_return_prob(small_env, 0) == 1.0

    def test_odd_rejected(self, small_env):
        with pytest.raises(ValidationError):
            discrete_return_prob(small_env, 3)

    def test_even_returns_nonincreasing(self, small_env):
        cache = UniformizationCache(small_env)
        seq = [cache.discrete(2 * k) for k in range(25)]
        assert all(seq[i + 1] <= seq[i] + 1e-15 for i in range(len(seq) - 1))

    def test_poissonization_inequality(self, small_env):
        cache = UniformizationCache(small_env)
        for t in (2.3, 4.7, 9.2, 9.9, 16.0):
            disc, tail = poissonization_lower_bound(cache, t)
            assert cache.return_prob(t) >= disc * tail
            # even-restricted CDF is at most the full CDF
            assert tail <= poisson.cdf(2 * math.floor(t), t)

    def test_full_cdf_variant_is_not_a_bound(self):
        # pinned counterexample: without the parity restriction the product
        # exceeds the kernel, because odd-step returns vanish on the
        # bipartite lattice and cannot be bounded by P^{2n}(0,0)
        env = homogeneous_environment(2, 20)
        cache = UniformizationCache(env, 19)
        disc, even_tail = poissonization_lower_bound(cache, 15.9)
        assert cache.return_prob(15.9) < disc * poisson.cdf(2 * 15, 15.9)
        assert cache.return_prob(15.9) >= disc * even_tail

    def test_penalized_cache_rejected(self, small_env):
        with pytest.raises(ValidationError):
            poissonization_lower_bound(UniformizationCache(small_env, lam=0.5), 4.0)


class TestPenalizedEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.integers(0, 3),
        seed=st.integers(0, 2**31),
        lam=st.floats(0.0, 3.0),
        t=st.floats(0.0, 20.0),
        phi_seed=st.none() | st.integers(0, 2**31),
    )
    def test_survival_matches_expm(self, radius, seed, lam, t, phi_seed):
        env = sample_environment(BoxGeometry(2, radius + 1), 2.0, seed)
        phi = None
        if phi_seed is not None:  # a random strong-cluster indicator over the environment
            phi = np.random.default_rng(phi_seed).random(env.geometry.n_sites) < 0.5
        engine = UniformizationCache(env, radius, lam=lam, phi=phi)
        chain = engine.chain
        phi_box = np.ones(len(chain.sites)) if phi is None else phi[chain.sites]
        G = chain.P.toarray() - np.eye(len(chain.sites)) - lam * np.diag(phi_box)
        exact = float((expm(t * G) @ np.ones(len(chain.sites)))[chain.origin])
        assert abs(engine.survival(t, tol=1e-15) - exact) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        radius=st.integers(0, 3),
        seed=st.integers(0, 2**31),
        lam=st.floats(0.0, 3.0),
        t=st.floats(0.0, 20.0),
    )
    def test_exit_prob_matches_expm(self, radius, seed, lam, t):
        # E[exp(-lam A(tau)); tau <= t] = (int_0^t e^{sG} ds exit)(0) = (G^{-1} (e^{tG} - I) exit)(0)
        env = sample_environment(BoxGeometry(2, radius + 1), 2.0, seed)
        engine = UniformizationCache(env, radius, lam=lam)
        chain = engine.chain
        G = chain.P.toarray() - (1.0 + lam) * np.eye(len(chain.sites))
        flux = (expm(t * G) - np.eye(len(chain.sites))) @ chain.exit
        exact = float(np.linalg.solve(G, flux)[chain.origin])
        assert abs(engine.exit_prob(t, tol=1e-15) - exact) <= 1e-12

    def test_zero_rate_is_the_plain_cache(self, small_env, holey_decomp):
        plain = UniformizationCache(small_env, 6)
        engine = UniformizationCache(small_env, 6, lam=0.0, phi=holey_decomp.in_cluster)
        reference = plain.chain.P.T.tocsr()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(engine._prop, name), getattr(reference, name))
        for t in (0.0, 0.7, 5.0, 31.0):
            assert engine.survival(t) == plain.survival(t)
            assert engine.return_prob(t) == plain.return_prob(t)

    def test_full_cluster_factorizes(self, small_env):
        plain = UniformizationCache(small_env, 6)
        engine = UniformizationCache(small_env, 6, lam=0.8)
        for t in (0.3, 2.0, 9.5, 40.0):
            assert engine.survival(t) == pytest.approx(math.exp(-0.8 * t) * plain.survival(t), rel=1e-12)

    def test_negative_rate_rejected(self, small_env):
        with pytest.raises(ValidationError):
            UniformizationCache(small_env, 3, lam=-0.1)


class TestHeatKernelHat:
    def test_t_zero(self, homog_env):
        dec = strong_cluster(homog_env, 0.5)
        curve = heat_kernel_hat(homog_env, dec, homog_env.geometry.origin, [0.0, 2.0])
        assert curve.sup[0] == 1.0

    def test_homogeneous_rescaled_bounded(self):
        env = homogeneous_environment(2, 14)
        dec = strong_cluster(env, 0.5)
        curve = heat_kernel_hat(env, dec, env.geometry.origin, [4.0, 8.0, 16.0, 32.0])
        assert np.all(curve.rescaled <= 1.0)
        # no blow-up: the rescaled envelope shows no increasing trend
        trend = np.polyfit(np.log(curve.t), np.log(curve.rescaled), 1)[0]
        assert trend <= 0.25
        assert curve.rescaled[-1] <= 2.0 * curve.rescaled[0]

    def test_full_box_sup_matches_exact_kernel(self):
        # with no holes the time change is the identity, so the envelope at
        # each t is the free-boundary kernel's peak, which sits at the start
        env = homogeneous_environment(2, 14)
        dec = strong_cluster(env, 0.5)
        t_grid = [4.0, 8.0, 16.0]
        curve = heat_kernel_hat(env, dec, env.geometry.origin, t_grid)
        cache = UniformizationCache(env, killed=False)
        for j, t in enumerate(t_grid):
            assert abs(curve.sup[j] - cache.return_prob(t)) <= 1e-12

    def test_holey_fixture_matches_dense_expm(self, small_env, holey_decomp):
        # oracle: the trace of the walk on the cluster, from the dense Schur
        # complement of the whole hole block, and its matrix exponential
        geom = small_env.geometry
        n = geom.n_sites
        W = np.zeros((n, n))
        W[geom.bond_u, geom.bond_v] = small_env.omega
        W[geom.bond_v, geom.bond_u] = small_env.omega
        c = np.flatnonzero(holey_decomp.in_cluster)
        h = np.flatnonzero(~holey_decomp.in_cluster)
        assert len(h) > 0
        hole_block = np.diag(small_env.pi_all[h]) - W[np.ix_(h, h)]
        M = W[np.ix_(c, c)] + W[np.ix_(c, h)] @ np.linalg.solve(hole_block, W[np.ix_(h, c)])
        Q = M / small_env.pi_all[c][:, None]
        x = int(holey_decomp.holes[0].boundary[0])
        t_grid = [1.0, 4.0, 16.0]
        curve = heat_kernel_hat(small_env, holey_decomp, x, t_grid)
        start = int(np.searchsorted(c, x))
        for j, t in enumerate(t_grid):
            law = expm(t * (Q - np.eye(len(c))))[start]
            assert abs(curve.sup[j] - law.max()) <= 1e-12
            assert curve.rescaled[j] == t * curve.sup[j]

    def test_off_cluster_rejected(self, small_env, holey_decomp):
        with pytest.raises(ValidationError):
            heat_kernel_hat(small_env, holey_decomp, int(holey_decomp.holes[0].sites[0]), [1.0])


class TestFitExponent:
    def _synthetic(self, exponent, stderr=0.0):
        t = np.geomspace(10, 400, 24)
        p = t**exponent
        return ReturnProbabilityCurve(
            t=t, p=p, stderr=np.full_like(p, stderr), method="exact-uniformization",
            d=2, N=0, gamma=2.0, seed=0,
        )

    def test_exact_power_law(self):
        fit = fit_exponent(self._synthetic(-1.5), (10, 400))
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)
        assert fit.ci_high - fit.ci_low <= 1e-10

    def test_homogeneous_control(self):
        t_max = 400.0
        n = box_radius_for_horizon(t_max)
        env = homogeneous_environment(2, n + 1)
        curve = return_prob_curve_exact(env, default_time_grid(20, t_max), box_radius=n)
        fit = fit_exponent(curve, (20, t_max))
        assert abs(fit.slope - (-1.0)) <= 0.1

    def test_window_validation(self):
        curve = self._synthetic(-1.0)
        with pytest.raises(ValidationError):
            fit_exponent(curve, (390, 400))  # too few points
        with pytest.raises(ValidationError):
            fit_exponent(curve, (400, 10))
        bad = self._synthetic(-1.0)
        bad.p[5] = 0.0
        with pytest.raises(ValidationError):
            fit_exponent(bad, (10, 400))

    def test_weighted_fit_uses_stderr(self):
        fit = fit_exponent(self._synthetic(-1.0, stderr=1e-6), (10, 400))
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.stderr > 0


class TestCltLowerBound:
    def test_homogeneous_holds(self):
        env = homogeneous_environment(2, 24)
        dec = strong_cluster(env, 0.5)
        cache = UniformizationCache(env)
        for t in (1.0, 8.0, 32.0):
            rep = clt_lower_bound_check(env, dec, t, cache=cache)
            assert rep.passed
            assert rep.lhs >= rep.rhs

    def test_small_t_trivial(self, small_env, holey_decomp):
        rep = clt_lower_bound_check(small_env, holey_decomp, 1.0)
        assert rep.passed
        assert rep.lhs > 0.2  # short-time regime stays near e^{-1} scale

    def test_random_envs(self):
        for seed in range(5):
            n = box_radius_for_horizon(32.0)
            env = sample_environment(BoxGeometry(2, n + 1), 2.0, 100 + seed)
            dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
            rep = clt_lower_bound_check(env, dec, 32.0, box_radius=n)
            assert rep.passed

    def test_ball_must_fit(self, small_env, holey_decomp):
        with pytest.raises(ValidationError):
            clt_lower_bound_check(small_env, holey_decomp, 400.0)


class TestGridHelpers:
    def test_time_grid_density(self):
        grid = default_time_grid(10, 1000, 12)
        assert grid[0] == pytest.approx(10)
        assert grid[-1] == pytest.approx(1000)
        assert len(grid) == 25

    def test_box_radius_rule(self):
        assert box_radius_for_horizon(400.0) == 240
        assert box_radius_for_horizon(0.5, c=2.0) >= 2
        with pytest.raises(ValidationError):
            box_radius_for_horizon(0.0)
