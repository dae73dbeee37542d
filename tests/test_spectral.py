import math
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.special import gammainc

from rcmwalk import (
    BoxGeometry,
    NumericalError,
    OperatorSpec,
    UniformizationCache,
    ValidationError,
    derive_environment_seeds,
    dirichlet_form,
    eigenvalue_floor,
    ensemble_walk,
    exit_time_tail_check,
    feynman_kac_lanczos,
    feynman_kac_mc,
    feynman_kac_spectral,
    feynman_kac_uniformization,
    heatkernel,
    homogeneous_environment,
    homogeneous_lambda1_exact,
    lambda1,
    lambda1_floor_check,
    negative_pivots,
    perturbation_identity_check,
    prescribed_killing_rate,
    prescribed_spec,
    rayleigh_quotient,
    sample_environment,
    spectral,
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
        spec = prescribed_spec(env, dec, 16, mu=0.1)
        cert = lambda1_floor_check(spec)
        assert cert.passed
        assert cert.m_N == pytest.approx(eigenvalue_floor(2, 2.0, 16, 0.1))
        assert spec.lam == pytest.approx(prescribed_killing_rate(2, 2.0, 16, 0.1, dec.threshold))

    def test_floor_check_reads_the_spec(self, rand_env, rand_decomp):
        # the floor is m(N) at the spec's own box radius and mu, whatever its rate
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.2, mu=0.3)
        cert = lambda1_floor_check(spec)
        assert cert.m_N == eigenvalue_floor(2, 2.0, 3, 0.3)
        assert cert.passed == (lambda1(spec).Lambda1 >= cert.m_N)

    def test_small_box_is_decomposed_once(self, rand_env, rand_decomp, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        rep = lambda1(spec)
        feynman_kac_spectral(spec, 2.0)
        lambda1(spec)
        assert calls == [(49, 49)]
        assert rep.Lambda1 == spec.dense_eig[0][0]


@pytest.fixture(scope="module")
def spec_625():
    # 625 sites: above the dense cutoff of lambda1, so the eigensolve is shift-invert
    env = sample_environment(BoxGeometry(2, 13), 2.0, 4)
    return prescribed_spec(env, strong_cluster(env, threshold_for_density(2.0, 0.95)), 12, mu=0.1)


class TestFloorCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        box=st.sampled_from([(2, 1), (2, 3), (2, 5), (2, 6), (3, 1), (3, 2)]),  # at most 169 sites
        seed=st.integers(0, 2**31),
        p=st.floats(0.3, 0.95),
        lam=st.floats(0.0, 3.0),
        u=st.floats(-0.05, 1.05),
    )
    def test_negative_pivots_count_eigenvalues_below_the_shift(self, box, seed, p, lam, u):
        d, radius = box
        env = sample_environment(BoxGeometry(d, radius + 1), 2.0, seed)
        dec = strong_cluster(env, threshold_for_density(2.0, p))
        S = OperatorSpec(env=env, decomp=dec, box_radius=radius, lam=lam).symmetrized[0]
        eigs = np.linalg.eigvalsh(S.toarray())
        shift = eigs[0] + u * (eigs[-1] - eigs[0])
        assume(np.min(np.abs(eigs - shift)) >= 1e-8 * np.max(np.abs(eigs)))
        assert negative_pivots(S, shift) == int((eigs < shift).sum())

    def test_verdict_matches_the_eigenvalue_on_criterion_05_environments(self):
        n = 32
        for seed in derive_environment_seeds(500 + n, 20):
            env = sample_environment(BoxGeometry(2, n + 1), 2.0, int(seed))
            dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
            spec = prescribed_spec(env, dec, n, mu=0.1)
            cert = lambda1_floor_check(spec)
            assert cert.passed == (lambda1(spec).Lambda1 >= cert.m_N)
            assert (cert.method, cert.neg_pivots, cert.iterations) == ("inertia", 0, 0)

    def test_inertia_route_runs_no_eigensolve(self, monkeypatch, spec_625):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the inertia route must not call lambda1")

        monkeypatch.setattr(spectral, "lambda1", no_eigensolve)
        cert = lambda1_floor_check(spec_625)
        assert (cert.passed, cert.method, cert.neg_pivots, cert.iterations) == (True, "inertia", 0, 0)

    def test_failing_floor_is_confirmed_by_eigsh(self):
        # lam = 0 at N = 32: Lambda1 ~ 1.04e-3 lies below m(N) ~ 1.38e-3
        env = sample_environment(BoxGeometry(2, 33), 2.0, 7)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=32, lam=0.0, mu=0.1)
        cert = lambda1_floor_check(spec)
        assert cert.method == "eigsh"
        assert not cert.passed
        assert cert.iterations > 0
        assert cert.neg_pivots == 1  # one eigenvalue below m(N)
        assert lambda1(spec).Lambda1 < cert.m_N

    @pytest.mark.parametrize("fault", ["perm", "zero", "nan", "singular"])
    def test_invalid_factorization_falls_back(self, monkeypatch, spec_625, fault):
        real = spectral.splu

        def faulty(A, **kwargs):
            lu = real(A, **kwargs)
            if not kwargs.get("options", {}).get("SymmetricMode"):
                return lu  # the eigensolve's own factorization
            if fault == "singular":
                raise RuntimeError("Factor is exactly singular")
            pivots = lu.U.diagonal().copy()
            perm_r = lu.perm_r.copy()
            if fault == "perm":
                perm_r[[0, 1]] = perm_r[[1, 0]]
            else:
                pivots[len(pivots) // 2] = 0.0 if fault == "zero" else np.nan
            return SimpleNamespace(U=diags(pivots), perm_r=perm_r, perm_c=lu.perm_c)

        monkeypatch.setattr(spectral, "splu", faulty)
        assert negative_pivots(spec_625.symmetrized[0], 0.0) is None
        cert = lambda1_floor_check(spec_625)
        assert (cert.passed, cert.method, cert.neg_pivots) == (True, "eigsh", -1)
        assert cert.iterations > 0


class TestFeynmanKac:
    def test_three_routes_agree(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        t = 2.0
        fk_s = feynman_kac_spectral(spec, t)
        fk_u = feynman_kac_uniformization(spec, t)
        fk_l, _ = feynman_kac_lanczos(spec, t)
        chain = spec.chain
        G = (chain.P.toarray() - np.eye(spec.n_sites)) - 0.3 * np.diag(spec.phi_box)
        fk_e = float((expm(t * G) @ np.ones(spec.n_sites))[chain.origin])
        assert fk_s == pytest.approx(fk_e, abs=1e-12)
        assert fk_u == pytest.approx(fk_e, abs=1e-12)
        assert fk_l == pytest.approx(fk_e, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        radius=st.integers(2, 8),
        seed=st.integers(0, 2**31),
        p=st.floats(0.5, 0.7),
        lam=st.floats(0.0, 3.0),
        t=st.floats(0.5, 60.0),
    )
    def test_lanczos_equals_uniformization(self, d, radius, seed, p, lam, t):
        # relative error: at lam = 3, t = 60 the value can fall far below
        # 1e-16, where both routes keep their relative digits; the smaller
        # boxes stop when the step count reaches the number of sites
        env = sample_environment(BoxGeometry(d, radius + 1), 2.0, seed)
        dec = strong_cluster(env, threshold_for_density(2.0, p))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=radius, lam=lam)
        value, steps = feynman_kac_lanczos(spec, t)
        ref = feynman_kac_uniformization(spec, t)
        assert abs(value - ref) <= 1e-10 * ref
        assert steps <= spec.n_sites

    @pytest.fixture(scope="class")
    def bench_specs(self):
        # the environments of perfbench's bounds workload (first repeat) at seeds 301-303
        specs = []
        for seed in (301, 302, 303):
            for env_seed in derive_environment_seeds(seed, 3):
                env = sample_environment(BoxGeometry(2, 65), 2.0, int(env_seed))
                dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
                specs.append([prescribed_spec(env, dec, n, mu=0.1, b=1.5, epsilon=0.9) for n in (32, 64)])
        return specs

    def test_lanczos_on_benchmark_boxes(self, bench_specs):
        for pair in bench_specs:
            for spec in pair:
                t = spec.coupled_horizon()
                value, _ = feynman_kac_lanczos(spec, t)
                ref = feynman_kac_uniformization(spec, t)
                assert abs(value - ref) <= 1e-11 * ref

    def test_lanczos_step_count_on_a_benchmark_box(self, bench_specs):
        # work counts, not time: the first environment at seed 301, N = 64
        # (16,641 sites, t = 482.9), took 165 steps when this guard was set
        # (the uniformization took 885 products); one check of slack
        spec = bench_specs[0][1]
        _, steps = feynman_kac_lanczos(spec, spec.coupled_horizon())
        assert steps <= 165 + heatkernel._CHECK_EVERY

    def test_lanczos_step_cap_raises(self, spec_625, monkeypatch):
        # t = 50 settles after 60 steps; an a priori count of 0 caps the run at 32
        monkeypatch.setattr(spectral, "_krylov_steps", lambda *args: 0.0)
        with pytest.raises(NumericalError, match="did not settle within tolerance"):
            feynman_kac_lanczos(spec_625, 50.0)

    def test_lanczos_closes_at_a_long_horizon(self):
        # N = 256 under the bounds workload's law (263,169 sites, t = 5019):
        # the settled value wanders between checks by up to 3e-12 relative,
        # above _FK_TOL, and the run stops on the rounding floor after 489
        # steps of its 1,264-step cap
        env = sample_environment(BoxGeometry(2, 257), 2.0, int(derive_environment_seeds(301, 3)[0]))
        dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
        spec = prescribed_spec(env, dec, 256, mu=0.1, b=1.5, epsilon=0.9)
        t = spec.coupled_horizon()
        value, steps = feynman_kac_lanczos(spec, t)
        assert abs(value - feynman_kac_uniformization(spec, t)) <= 1e-10 * value
        assert steps <= 489 + heatkernel._CHECK_EVERY

    def test_lanczos_value_that_underflows(self):
        # phi = 1 puts every eigenvalue of S above lam, so the value is below
        # e^{-1200} and reads 0 at every check; the box's 289 sites outlast them
        spec = OperatorSpec(env=homogeneous_environment(2, 9), decomp=None, box_radius=8, lam=3.0)
        value, steps = feynman_kac_lanczos(spec, 400.0)
        assert value == feynman_kac_uniformization(spec, 400.0) == 0.0 and steps < spec.n_sites
        assert survival_bound_check(spec, t=400.0).lhs_log == -math.inf

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_bad_horizon_raises_before_any_product(self, rand_env, rand_decomp, monkeypatch, t):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        monkeypatch.setattr(OperatorSpec, "symmetrized", property(lambda self: pytest.fail("operator used")))
        with pytest.raises(ValidationError, match="horizon"):
            feynman_kac_lanczos(spec, t)
        with pytest.raises(ValidationError, match="horizon"):
            survival_bound_check(spec, t=t)

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

    def test_uniformization_reuses_the_spec_chain(self, rand_env, rand_decomp, monkeypatch):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.3)
        spec.chain
        monkeypatch.setattr(heatkernel, "transition_matrix", lambda *a, **k: pytest.fail("second assembly"))
        assert 0.0 < feynman_kac_uniformization(spec, 2.0) < 1.0
        assert feynman_kac_uniformization(spec, 0.0) == 1.0
        with pytest.raises(ValidationError):
            feynman_kac_uniformization(spec, -1.0)

    def test_dense_cutoff_guard(self):
        env = homogeneous_environment(2, 40)
        spec = OperatorSpec(env=env, box_radius=39, lam=0.1)
        with pytest.raises(ValidationError):
            feynman_kac_spectral(spec, 1.0)
        # the uniformization route still works at this size
        val = feynman_kac_uniformization(spec, 1.0)
        assert 0.0 < val < 1.0


class TestOperatorSpecCaches:
    def test_replace_starts_fresh(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.5)
        lambda1(spec)
        feynman_kac_uniformization(spec, 2.0)
        plain = replace(spec, lam=0.0)
        fresh = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.0)
        assert lambda1(plain).Lambda1 == lambda1(fresh).Lambda1
        assert feynman_kac_uniformization(plain, 2.0) == feynman_kac_uniformization(fresh, 2.0)

    def test_equality_ignores_caches(self, rand_env, rand_decomp):
        a = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.5)
        b = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=0.5)
        lambda1(a)
        lambda1(b)
        feynman_kac_spectral(a, 1.0)
        assert a == b
        assert a != replace(a, lam=0.25)


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
    def test_gaussian_regime_no_exits(self):
        # the walk needs N + 1 jumps to leave B_N, so P(Poisson(t) >= N + 1) bounds the tail;
        # the four straight runs to the rim (4 * 4^-25) bound it from below, where 1 - survival reads 0
        env = homogeneous_environment(2, 25)
        t = np.array([1.0, 2.0, 4.0])
        rep = exit_time_tail_check(OperatorSpec(env=env, box_radius=24), t)
        assert np.all(rep.p_exit >= 0.0)
        assert np.all(rep.p_exit <= gammainc(25, t))
        assert np.all(rep.p_exit >= 4.0**-24 * gammainc(25, t))
        assert rep.all_below

    def test_homogeneous_envelope(self):
        env = homogeneous_environment(2, 33)
        grid = np.geomspace(32**2 / 16, 32**2, 8)
        rep = exit_time_tail_check(OperatorSpec(env=env, box_radius=32), grid)
        assert rep.all_below
        assert rep.p_exit.max() > 0.05
        # decay at least as fast as the e^{-N^2/4t} envelope shape
        assert rep.gaussian_slope is not None and rep.gaussian_slope <= -1.0

    def test_matches_dense_oracle(self):
        # 1 - P(alive at t) from the dense killed semigroup
        t = np.array([0.5, 2.0, 10.0, 40.0, 100.0])
        for seed in range(5):
            env = sample_environment(BoxGeometry(2, 7), 2.0, 500 + seed)
            spec = OperatorSpec(env=env, box_radius=6)
            rep = exit_time_tail_check(spec, t)
            P = spec.chain.P.toarray()
            oracle = [1.0 - expm(tj * (P - np.eye(len(P))))[spec.chain.origin].sum() for tj in t]
            np.testing.assert_allclose(rep.p_exit, oracle, rtol=0, atol=1e-12)

    def test_matches_monte_carlo_exit_times(self):
        env = sample_environment(BoxGeometry(2, 17), 2.0, 41)
        grid = np.geomspace(16**2 / 16, 16**2, 8)
        rep = exit_time_tail_check(OperatorSpec(env=env, box_radius=16), grid)
        n_paths = 4000
        res = ensemble_walk(
            env, env.geometry.origin, n_paths, float(grid.max()), np.random.default_rng(7), kill_radius=16
        )
        for tj, p in zip(grid, rep.p_exit):
            mc = float((res.tau <= tj).mean())
            sigma = math.sqrt(p * (1 - p) / n_paths)
            assert abs(mc - p) <= 4 * sigma

    def test_validation(self, small_env):
        with pytest.raises(ValidationError):
            exit_time_tail_check(OperatorSpec(env=small_env, box_radius=small_env.geometry.N), [1.0, 2.0])
        with pytest.raises(ValidationError):
            exit_time_tail_check(OperatorSpec(env=small_env), [2.0, 1.0])


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

    def test_fields_are_frozen(self, rand_env):
        spec = OperatorSpec(env=rand_env, lam=0.5)
        assert spec.box_radius == rand_env.geometry.N - 1
        with pytest.raises(FrozenInstanceError):
            spec.lam = 0.0

    def test_prescribed_needs_finite_gamma(self):
        env = homogeneous_environment(2, 5)
        dec = strong_cluster(env, 0.5)
        with pytest.raises(ValidationError):
            prescribed_spec(env, dec, 4)
