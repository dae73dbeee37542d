import math

import numpy as np
import pytest
from scipy.linalg import expm

from rcmwalk import (
    BoxGeometry,
    OperatorSpec,
    UniformizationCache,
    ValidationError,
    dirichlet_form,
    eigenvalue_floor,
    exit_time_tail_check,
    feynman_kac_krylov,
    feynman_kac_mc,
    feynman_kac_spectral,
    feynman_kac_uniformization,
    homogeneous_environment,
    homogeneous_lambda1_exact,
    lambda1,
    lambda1_floor_check,
    perturbation_identity_check,
    prescribed_killing_rate,
    prescribed_spec,
    rayleigh_quotient,
    sample_environment,
    strong_cluster,
    survival_bound_check,
    threshold_for_density,
    transition_matrix,
)


@pytest.fixture(scope="module")
def rand_env():
    return sample_environment(BoxGeometry(2, 4), 2.0, 3)


@pytest.fixture(scope="module")
def rand_decomp(rand_env):
    return strong_cluster(rand_env, threshold_for_density(2.0, 0.6))


class TestDirichletForm:
    def test_point_mass_equals_pi(self):
        # delta at the origin: every incident unit bond contributes once
        env = homogeneous_environment(2, 3)
        sub = env.geometry.sub_box_indices(2)
        f = np.zeros(len(sub))
        f[(len(sub) - 1) // 2] = 1.0
        assert dirichlet_form(env, 2, f) == pytest.approx(4.0)

    def test_constant_sees_only_the_rim(self):
        # f = 1 on B_n: interior differences vanish, the 4(2n+1) bonds
        # crossing into the Dirichlet exterior each contribute 1
        env = homogeneous_environment(2, 4)
        n = 2
        f = np.ones(len(env.geometry.sub_box_indices(n)))
        assert dirichlet_form(env, n, f) == pytest.approx(4 * (2 * n + 1))

    def test_summation_by_parts_identity(self, rand_env):
        chain = transition_matrix(rand_env, 3)
        rng = np.random.default_rng(12)
        for _ in range(50):
            f = rng.standard_normal(len(chain.sites))
            energy = dirichlet_form(rand_env, 3, f)
            operator = float(np.sum(f * (f - chain.P @ f) * chain.pi))
            assert energy == pytest.approx(operator, rel=1e-12)

    def test_shape_validation(self, rand_env):
        with pytest.raises(ValidationError):
            dirichlet_form(rand_env, 3, np.ones(5))
        with pytest.raises(ValidationError):
            dirichlet_form(rand_env, 4, np.ones(81))  # needs env radius >= n+1


class TestLambda1:
    def test_single_site_box(self):
        env = homogeneous_environment(2, 1)
        rep = lambda1(OperatorSpec(env=env, box_radius=0))
        assert rep.Lambda1 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("N", [5, 16, 40])
    def test_homogeneous_analytic(self, N):
        env = homogeneous_environment(2, N + 1)
        rep = lambda1(OperatorSpec(env=env, box_radius=N), tol=1e-12)
        assert abs(rep.Lambda1 - homogeneous_lambda1_exact(N)) <= 1e-10

    def test_homogeneous_d3(self):
        env = homogeneous_environment(3, 6)
        rep = lambda1(OperatorSpec(env=env, box_radius=5))
        assert abs(rep.Lambda1 - homogeneous_lambda1_exact(5)) <= 1e-10

    def test_uniform_killing_shifts_spectrum(self):
        # phi = 1 turns the penalty into an exact spectral shift
        env = homogeneous_environment(2, 9)
        base = lambda1(OperatorSpec(env=env, box_radius=8, lam=0.0)).Lambda1
        shifted = lambda1(OperatorSpec(env=env, box_radius=8, lam=0.37)).Lambda1
        assert shifted == pytest.approx(base + 0.37, abs=1e-10)

    def test_monotone_in_killing(self, rand_env, rand_decomp):
        vals = [
            lambda1(OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=l)).Lambda1
            for l in (0.0, 0.05, 0.2, 0.8)
        ]
        assert all(vals[i + 1] >= vals[i] - 1e-13 for i in range(len(vals) - 1))

    def test_shift_invert_is_deterministic(self):
        # two fresh specs on one environment take the same Lanczos path
        env = sample_environment(BoxGeometry(2, 17), 2.0, 5)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.9))
        reps = [lambda1(prescribed_spec(env, dec, 16)) for _ in range(2)]
        assert reps[0].iterations > 0
        assert reps[0].Lambda1 == reps[1].Lambda1
        assert reps[0].residual == reps[1].residual
        assert reps[0].iterations == reps[1].iterations

    def test_eigvector_normalized_nonnegative(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.2)
        rep = lambda1(spec)
        assert rep.psi1.min() >= -1e-12
        norm = float(np.sum(rep.psi1**2 * spec.chain.pi))
        assert norm == pytest.approx(1.0, rel=1e-10)
        assert rep.residual <= 1e-8

    def test_rayleigh_above_lambda1(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.2)
        rep = lambda1(spec)
        rng = np.random.default_rng(8)
        for _ in range(100):
            f = rng.standard_normal(spec.n_sites)
            assert rayleigh_quotient(spec, f) >= rep.Lambda1 - rep.residual - 1e-12

    def test_operator_self_adjoint_in_pi(self, rand_env, rand_decomp):
        # <f, G g>_pi = <G f, g>_pi for the penalized generator
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        chain = spec.chain
        rng = np.random.default_rng(5)

        def apply_g(v):
            return (chain.P @ v - v) - spec.lam * spec.phi_box * v

        for _ in range(50):
            f = rng.standard_normal(spec.n_sites)
            g = rng.standard_normal(spec.n_sites)
            left = float(np.sum(f * apply_g(g) * chain.pi))
            right = float(np.sum(apply_g(f) * g * chain.pi))
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_floor_check(self):
        env = sample_environment(BoxGeometry(2, 17), 2.0, 55)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
        rep, m_n, ok = lambda1_floor_check(env, dec, 16, mu=0.1)
        assert ok
        assert m_n == pytest.approx(eigenvalue_floor(2, 2.0, 16, 0.1))
        assert rep.lam == pytest.approx(prescribed_killing_rate(2, 2.0, 16, 0.1, dec.threshold))


class TestFeynmanKac:
    def test_three_routes_agree(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        t = 2.0
        fk_s = feynman_kac_spectral(spec, t)
        fk_u = feynman_kac_uniformization(spec, t)
        chain = spec.chain
        G = (chain.P.toarray() - np.eye(spec.n_sites)) - 0.3 * np.diag(spec.phi_box)
        fk_e = float((expm(t * G) @ np.ones(spec.n_sites))[chain.origin])
        assert fk_s == pytest.approx(fk_e, abs=1e-12)
        assert fk_u == pytest.approx(fk_e, abs=1e-12)

    def test_no_killing_equals_survival(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.0)
        survival = UniformizationCache(rand_env, 3).survival(2.0)
        assert abs(feynman_kac_spectral(spec, 2.0) - survival) <= 1e-10

    def test_full_cluster_factorizes(self, rand_env):
        spec = OperatorSpec(env=rand_env, decomp=None, box_radius=3, lam=0.4)
        survival = UniformizationCache(rand_env, 3).survival(1.5)
        assert feynman_kac_spectral(spec, 1.5) == pytest.approx(math.exp(-0.4 * 1.5) * survival, rel=1e-12)

    def test_monte_carlo_agrees(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        exact = feynman_kac_spectral(spec, 2.0)
        est, se = feynman_kac_mc(spec, 2.0, 40_000, np.random.default_rng(17))
        assert abs(est - exact) <= 4 * se

    def test_krylov_with_certificate(self):
        env = sample_environment(BoxGeometry(2, 13), 2.0, 31)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.9))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=12, lam=0.1)
        t = 30.0
        dense = feynman_kac_spectral(spec, t)
        approx, bound = feynman_kac_krylov(spec, t, n_terms=12)
        assert abs(approx - dense) <= bound + 1e-14

    def test_dense_cutoff_guard(self):
        env = homogeneous_environment(2, 40)
        spec = OperatorSpec(env=env, box_radius=39, lam=0.1)
        with pytest.raises(ValidationError):
            feynman_kac_spectral(spec, 1.0)
        # the uniformization route still works at this size
        val = feynman_kac_uniformization(spec, 1.0)
        assert 0.0 < val < 1.0


class TestPerturbationIdentities:
    def test_zero_killing_reduces_to_plain_semigroup(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=2, lam=0.0)
        rep = perturbation_identity_check(spec, [1.0], n_nodes=32)
        assert rep.max_deviation <= 1e-14

    def test_five_by_five_box(self):
        env = sample_environment(BoxGeometry(2, 3), 2.0, 21)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.6))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=2, lam=0.3)
        rep = perturbation_identity_check(spec, [2.0], n_nodes=512)
        assert rep.max_deviation <= 1e-6
        assert rep.quadrature_ok
        # both identities agree with each other at the same tolerance
        assert np.max(np.abs(rep.deviations_first - rep.deviations_second)) <= 1e-6

    def test_node_validation(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=2, lam=0.3)
        with pytest.raises(ValidationError):
            perturbation_identity_check(spec, [1.0], n_nodes=7)


class TestSurvivalBound:
    def test_homogeneous_closed_form_left_side(self):
        env = homogeneous_environment(2, 13)
        spec = OperatorSpec(env=env, decomp=None, box_radius=12, lam=0.05)
        rep = survival_bound_check(spec, t=30.0)
        survival = UniformizationCache(env, 12).survival(30.0)
        expected_fk = math.exp(-0.05 * 30.0) * survival
        assert rep.fk_value == pytest.approx(expected_fk, rel=1e-10)
        assert rep.passed

    def test_zero_killing_degenerates(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.0)
        rep = survival_bound_check(spec, t=5.0)
        assert rep.lhs_log <= 0.0 + 1e-12  # left side is a survival probability
        assert rep.rhs_log >= 0.0
        assert rep.passed

    def test_prescribed_random_envs(self):
        for seed in range(3):
            env = sample_environment(BoxGeometry(2, 17), 2.0, 200 + seed)
            dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
            spec = prescribed_spec(env, dec, 16)
            rep = survival_bound_check(spec)
            assert rep.passed
            assert rep.t == pytest.approx(16 * 16 / math.log(16) ** 1.5)


class TestExitTimeTail:
    def test_gaussian_regime_no_exits(self, rng):
        env = homogeneous_environment(2, 25)
        # t far below N^2 / (4 log n_paths): no path escapes
        rep = exit_time_tail_check(env, 24, np.array([1.0, 2.0, 4.0]), 400, rng)
        assert np.all(rep.p_exit == 0.0)
        assert rep.all_below

    def test_homogeneous_envelope(self):
        env = homogeneous_environment(2, 33)
        grid = np.geomspace(32**2 / 16, 32**2, 8)
        rep = exit_time_tail_check(env, 32, grid, 1500, np.random.default_rng(4))
        assert rep.all_below
        assert rep.p_exit.max() > 0.05
        # decay at least as fast as the e^{-N^2/4t} envelope shape
        assert rep.gaussian_slope is not None and rep.gaussian_slope <= -1.0

    def test_validation(self, small_env, rng):
        with pytest.raises(ValidationError):
            exit_time_tail_check(small_env, small_env.geometry.N, [1.0, 2.0], 10, rng)


class TestOperatorSpecValidation:
    def test_domains(self, rand_env):
        with pytest.raises(ValidationError):
            OperatorSpec(env=rand_env, lam=-0.1)
        with pytest.raises(ValidationError):
            OperatorSpec(env=rand_env, mu=0.0)
        with pytest.raises(ValidationError):
            OperatorSpec(env=rand_env, b=1.0)
        with pytest.raises(ValidationError):
            OperatorSpec(env=rand_env, epsilon=1.0)
        with pytest.raises(ValidationError):
            OperatorSpec(env=rand_env, box_radius=rand_env.geometry.N)

    def test_prescribed_needs_finite_gamma(self):
        env = homogeneous_environment(2, 5)
        dec = strong_cluster(env, 0.5)
        with pytest.raises(ValidationError):
            prescribed_spec(env, dec, 4)
