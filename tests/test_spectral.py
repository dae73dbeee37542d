import inspect
import math
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import coo_matrix, csr_matrix, diags
from scipy.special import gammainc

from rcmwalk import (
    BoxGeometry,
    NumericalError,
    OperatorSpec,
    UniformizationCache,
    ValidationError,
    derive_environment_seeds,
    effective_conductances,
    eigenvalue_floor,
    ensemble_walk,
    exit_time_tail_check,
    feynman_kac_lanczos,
    feynman_kac_mc,
    feynman_kac_spectral,
    feynman_kac_uniformization,
    heat_kernel_hat,
    heatkernel,
    homogeneous_lambda1_exact,
    lambda1,
    lambda1_floor_check,
    negative_pivots,
    next_point_frequencies,
    perturbation_identity_check,
    prescribed_killing_rate,
    prescribed_spec,
    return_prob_mc,
    sample_environment,
    spectral,
    strong_cluster,
    survival_bound_check,
    threshold_for_density,
    walk,
)


@pytest.fixture(scope="module")
def rand_env():
    return sample_environment(BoxGeometry(2, 4), 2.0, 3)


@pytest.fixture(scope="module")
def rand_decomp(rand_env):
    return strong_cluster(rand_env, threshold_for_density(2.0, 0.6))


def _bond_energy(env, n: int, f: np.ndarray) -> float:
    """``sum_b (df(b))^2 omega_b`` over the bonds of ``B_{n+1}``, ``f`` on ``B_n`` extended by zero."""
    geom = env.geometry
    g = np.zeros(geom.n_sites)
    g[geom.sub_box_indices(n)] = f
    return float(np.sum((g[geom.bond_u] - g[geom.bond_v]) ** 2 * env.omega))


class TestDirichletForm:
    # at lam = 0 the symmetrized operator is the Dirichlet form of the killed
    # walk: <g, S g> = E(f, f) for g = sqrt(pi) f, f extended by zero off B_n

    @staticmethod
    def _form(spec, f):
        S, sqrt_pi = spec.symmetrized
        g = sqrt_pi * f
        return float(g @ (S @ g))

    def test_point_mass_equals_pi(self):
        # delta at the origin: every incident unit bond contributes once
        env = sample_environment(BoxGeometry(2, 3), math.inf, 0)
        spec = OperatorSpec(env=env, box_radius=2)
        f = np.zeros(spec.n_sites)
        f[(spec.n_sites - 1) // 2] = 1.0
        assert self._form(spec, f) == pytest.approx(4.0)

    def test_constant_sees_only_the_rim(self):
        # f = 1 on B_n: interior differences vanish, the 4(2n+1) bonds
        # crossing into the Dirichlet exterior each contribute 1
        n = 2
        spec = OperatorSpec(env=sample_environment(BoxGeometry(2, 4), math.inf, 0), box_radius=n)
        assert self._form(spec, np.ones(spec.n_sites)) == pytest.approx(4 * (2 * n + 1))

    def test_summation_by_parts_identity(self, rand_env):
        spec = OperatorSpec(env=rand_env, box_radius=3)
        rng = np.random.default_rng(12)
        for _ in range(50):
            f = rng.standard_normal(spec.n_sites)
            assert self._form(spec, f) == pytest.approx(_bond_energy(rand_env, 3, f), rel=1e-12)


class TestLambda1:
    def test_single_site_box(self):
        env = sample_environment(BoxGeometry(2, 1), math.inf, 0)
        rep = lambda1(OperatorSpec(env=env, box_radius=0))
        assert rep.Lambda1 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("N", [5, 16, 40])
    def test_homogeneous_analytic(self, N):
        env = sample_environment(BoxGeometry(2, N + 1), math.inf, 0)
        rep = lambda1(OperatorSpec(env=env, box_radius=N), tol=1e-12)
        assert abs(rep.Lambda1 - homogeneous_lambda1_exact(N)) <= 1e-10

    def test_homogeneous_d3(self):
        env = sample_environment(BoxGeometry(3, 6), math.inf, 0)
        rep = lambda1(OperatorSpec(env=env, box_radius=5))
        assert abs(rep.Lambda1 - homogeneous_lambda1_exact(5)) <= 1e-10

    def test_closed_form_refuses_a_non_integral_radius(self):
        # 2.5 gave 0.099, the eigenvalue of no box
        for bad in (2.5, "3", math.inf, math.nan, -1):
            with pytest.raises(ValidationError):
                homogeneous_lambda1_exact(bad)
        assert homogeneous_lambda1_exact(np.int64(5)) == homogeneous_lambda1_exact(5)

    def test_uniform_killing_shifts_spectrum(self):
        # phi = 1 turns the penalty into an exact spectral shift
        env = sample_environment(BoxGeometry(2, 9), math.inf, 0)
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
        S, sqrt_pi = spec.symmetrized
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = sqrt_pi * rng.standard_normal(spec.n_sites)
            assert float(g @ (S @ g)) / float(g @ g) >= rep.Lambda1 - rep.residual - 1e-12

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

    @settings(max_examples=60, deadline=None)
    @given(
        box=st.sampled_from([(2, 1), (2, 3), (2, 5), (2, 6), (3, 1), (3, 2)]),
        seed=st.integers(0, 2**31),
        p=st.floats(0.3, 0.95),
        lam=st.floats(0.0, 3.0),
        u=st.floats(-0.05, 1.05),
        r=st.floats(0.0, 1.1),
    )
    def test_test_vector_never_certifies_a_shift_above_the_lowest_eigenvalue(self, box, seed, p, lam, u, r):
        # shifts across the spectrum, and shifts r * lambda_min near its bottom,
        # where the test vector certifies most of them; eigvalsh's own rounding
        # is the only slack
        d, radius = box
        env = sample_environment(BoxGeometry(d, radius + 1), 2.0, seed)
        dec = strong_cluster(env, threshold_for_density(2.0, p))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=radius, lam=lam)
        eigs = np.linalg.eigvalsh(spec.symmetrized[0].toarray())
        slack = 8 * np.finfo(float).eps * eigs[-1]
        for shift in (eigs[0] + u * (eigs[-1] - eigs[0]), r * eigs[0]):
            if spectral._test_vector_floor(spec, shift):
                assert eigs[0] >= shift - slack

    def test_test_vector_certifies_the_benchmark_boxes_with_and_without_holes(self):
        # perfbench's bounds boxes (seed 301) at p = 0.95 have no hole sites;
        # at p = 0.6 they have 214-1,070, and one solve on them still certifies
        for p in (0.95, 0.6):
            for seed in derive_environment_seeds(301, 3):
                env = sample_environment(BoxGeometry(2, 65), 2.0, int(seed))
                dec = strong_cluster(env, threshold_for_density(2.0, p))
                for n in (32, 64):
                    spec = prescribed_spec(env, dec, n, mu=0.1)
                    assert (spec.phi_box == 0).any() == (p == 0.6)
                    m_n = eigenvalue_floor(2, 2.0, n, 0.1)
                    assert spectral._test_vector_floor(spec, m_n)

    def test_test_vector_declines_without_killing(self, spec_625):
        # lam = 0: (S sqrt(pi))_x = exit_x * sqrt(pi_x) vanishes inside the box
        spec = replace(spec_625, lam=0.0)
        assert not spectral._test_vector_floor(spec, lambda1_floor_check(spec).m_N)
        assert not spectral._test_vector_floor(replace(spec_625, decomp=None, lam=0.0), 1e-9)

    def test_no_solve_on_a_box_without_hole_sites(self, monkeypatch, spec_625):
        assert not (spec_625.phi_box == 0).any()
        monkeypatch.setattr(spectral, "splu", lambda *a, **k: pytest.fail("solve on a box without holes"))
        assert spectral._test_vector_floor(spec_625, 0.5 * spec_625.lam)
        assert spectral._test_vector_floor(replace(spec_625, decomp=None), 0.5 * spec_625.lam)

    def test_hole_solve_is_one_factorization_of_the_hole_block(self, monkeypatch, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=3, lam=2.0)
        holes = int((spec.phi_box == 0).sum())
        assert holes > 0
        sizes, real = [], spectral.splu

        def counted(A, **kwargs):
            sizes.append(A.shape)
            return real(A, **kwargs)

        monkeypatch.setattr(spectral, "splu", counted)
        assert spectral._test_vector_floor(spec, 1e-3)
        assert sizes == [(holes, holes)]

    def test_verdict_matches_the_eigenvalue_on_criterion_05_environments(self, monkeypatch):
        # each environment settled on the test-vector route, and again with that route off
        n = 32
        for seed in derive_environment_seeds(500 + n, 20):
            env = sample_environment(BoxGeometry(2, n + 1), 2.0, int(seed))
            dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
            spec = prescribed_spec(env, dec, n, mu=0.1)
            cert = lambda1_floor_check(spec)
            assert cert.passed == (lambda1(spec).Lambda1 >= cert.m_N)
            assert (cert.method, cert.neg_pivots, cert.iterations) == ("barta", 0, 0)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_test_vector_floor", lambda spec, shift: False)
                assert lambda1_floor_check(spec) == replace(cert, method="inertia")

    def test_test_vector_route_runs_no_factorization(self, monkeypatch, spec_625):
        def refuse(*args, **kwargs):
            raise AssertionError("the test-vector route must neither factor S - m(N) I nor call lambda1")

        monkeypatch.setattr(spectral, "negative_pivots", refuse)
        monkeypatch.setattr(spectral, "lambda1", refuse)
        cert = lambda1_floor_check(spec_625)
        assert (cert.passed, cert.method, cert.neg_pivots, cert.iterations) == (True, "barta", 0, 0)

    def test_inertia_route_runs_no_eigensolve(self, monkeypatch, spec_625):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the inertia route must not call lambda1")

        monkeypatch.setattr(spectral, "_test_vector_floor", lambda spec, shift: False)
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

    def test_failing_floor_rests_on_its_own_eigenpair(self):
        # a caller's eigenpair was once taken unchecked: handed the prescribed spec's
        # report, the lam = 0 spec below read passed=True with neg_pivots=1
        assert list(inspect.signature(lambda1_floor_check).parameters) == ["spec", "tol"]
        env = sample_environment(BoxGeometry(2, 33), 2.0, 7)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=32, lam=0.0, mu=0.1)
        cert = lambda1_floor_check(spec)
        assert (cert.passed, cert.neg_pivots, cert.method) == (False, 1, "eigsh")
        own = lambda1(spec)
        assert cert.principal.Lambda1 == own.Lambda1 < cert.m_N
        assert np.array_equal(cert.principal.psi1, own.psi1) and cert.principal.iterations == cert.iterations
        assert lambda1(prescribed_spec(env, dec, 32, mu=0.1)).Lambda1 >= cert.m_N  # the report it was handed
        # kept out of == and repr, and absent where no eigensolve ran
        assert cert == replace(cert, principal=None) and "principal" not in repr(cert)
        barta = lambda1_floor_check(prescribed_spec(env, dec, 32, mu=0.1))
        assert barta.method == "barta" and barta.principal is None

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
        monkeypatch.setattr(spectral, "_test_vector_floor", lambda spec, shift: False)
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
        fk_l, _, _ = feynman_kac_lanczos(spec, t)
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
    @example(d=2, radius=2, seed=2982, p=0.515625, lam=2.96875, t=34.0)  # exhausted 25-site box
    def test_lanczos_equals_uniformization(self, d, radius, seed, p, lam, t):
        # relative error: at lam = 3, t = 60 the value can fall far below
        # 1e-16, where both routes keep their relative digits; the smaller
        # boxes stop when the step count reaches the number of sites
        env = sample_environment(BoxGeometry(d, radius + 1), 2.0, seed)
        dec = strong_cluster(env, threshold_for_density(2.0, p))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=radius, lam=lam)
        value, steps, pairs = feynman_kac_lanczos(spec, t)
        ref = feynman_kac_uniformization(spec, t)
        assert abs(value - ref) <= 1e-10 * ref
        assert steps <= spec.n_sites and 0 < pairs

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
                value, _, _ = feynman_kac_lanczos(spec, t)
                ref = feynman_kac_uniformization(spec, t)
                assert abs(value - ref) <= 1e-11 * ref

    def test_lanczos_step_count_on_a_benchmark_box(self, bench_specs):
        # work counts, not time: the first environment at seed 301, N = 64
        # (16,641 sites, t = 482.9), took 165 steps when this guard was set
        # (the uniformization took 885 products); one check of slack
        spec = bench_specs[0][1]
        _, steps, _ = feynman_kac_lanczos(spec, spec.coupled_horizon())
        assert steps <= 165 + heatkernel._CHECK_EVERY

    @staticmethod
    def _recorded_checks(spec, monkeypatch):
        # the tridiagonal matrices, origin entries, horizon and tolerance of every check of one run
        checks, ritz_sum = [], spectral._ritz_sum

        def recorded(diag, off, c, t, tol):
            checks.append((diag, off, c, t, tol, ritz_sum(diag, off, c, t, tol)))
            return checks[-1][-1]

        monkeypatch.setattr(spectral, "_ritz_sum", recorded)
        value, steps, pairs = feynman_kac_lanczos(spec, spec.coupled_horizon())
        monkeypatch.undo()
        assert pairs == sum(check[-1][1] for check in checks)
        return checks

    def test_subset_check_agrees_with_the_full_eigensolve(self, bench_specs, monkeypatch):
        # every check of the N = 32 and N = 64 runs solves a few of its Ritz
        # pairs, and its sum is the full one within the Cauchy-Schwarz bound on
        # the dropped pairs plus the rounding the run's tolerance floor allows
        eps = np.finfo(float).eps
        for spec in bench_specs[0]:
            for diag, off, c, t, tol, (total, solved) in self._recorded_checks(spec, monkeypatch):
                theta, U = heatkernel._ritz(diag, off)
                full = float(((c[:, None] * U).sum(axis=0) * np.exp(-t * theta) * U[0]).sum())
                assert 0 < solved < len(diag) // 3
                assert np.all(theta[:solved] <= theta[0] + spectral._RITZ_WINDOW / t)
                dropped = np.linalg.norm(c) * math.exp(-t * (theta[0] + spectral._RITZ_WINDOW / t))
                assert dropped < 0.25 * tol * abs(full)
                assert abs(total - full) <= dropped + 4 * t * eps * (2 + spec.lam) * abs(full)

    def test_failed_bound_takes_the_full_solve(self, bench_specs, monkeypatch):
        # a window of 0 keeps only the lowest pair, whose bound never clears the
        # tolerance: every check then solves all its pairs, the full sum bit for bit
        spec = bench_specs[0][0]
        checks = self._recorded_checks(spec, monkeypatch)
        monkeypatch.setattr(spectral, "_RITZ_WINDOW", 0.0)
        for diag, off, c, t, tol, _ in checks:
            total, solved = spectral._ritz_sum(diag, off, c, t, tol)
            theta, U = heatkernel._ritz(diag, off)
            assert solved == len(diag)
            assert total == float(((c[:, None] * U).sum(axis=0) * np.exp(-t * theta) * U[0]).sum())
        value, steps, pairs = feynman_kac_lanczos(spec, spec.coupled_horizon())
        assert pairs == sum(len(check[0]) for check in checks)
        assert abs(value - feynman_kac_uniformization(spec, spec.coupled_horizon())) <= 1e-11 * value

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
        value, steps, _ = feynman_kac_lanczos(spec, t)
        assert abs(value - feynman_kac_uniformization(spec, t)) <= 1e-10 * value
        assert steps <= 489 + heatkernel._CHECK_EVERY

    def test_lanczos_value_that_underflows(self):
        # phi = 1 puts every eigenvalue of S above lam, so the value is below
        # e^{-1200} and reads 0 at every check; the box's 289 sites outlast them
        spec = OperatorSpec(env=sample_environment(BoxGeometry(2, 9), math.inf, 0), decomp=None, box_radius=8, lam=3.0)
        value, steps, _ = feynman_kac_lanczos(spec, 400.0)
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
        env = sample_environment(BoxGeometry(2, 40), math.inf, 0)
        spec = OperatorSpec(env=env, box_radius=39, lam=0.1)
        with pytest.raises(ValidationError):
            feynman_kac_spectral(spec, 1.0)
        # the uniformization route still works at this size
        val = feynman_kac_uniformization(spec, 1.0)
        assert 0.0 < val < 1.0


def _csr_operators(spec):
    """``S`` and the exit engine's two half blocks assembled in sparse rows from the canonical bond list.

    The oracle of the stencil's layout, independent of the box stencil: the
    bonds of ``B_n`` from ``bond_u``, ``bond_v`` and ``omega``, ``pi`` from
    ``pi_all``; ``S`` is ``W`` scaled by ``sqrt(pi)`` on both sides, and the
    half blocks are cut from ``P^T = (W / pi[row])^T``.
    """
    geom = spec.env.geometry
    sites = geom.sub_box_indices(spec.box_radius)
    inv = np.full(geom.n_sites, -1)
    inv[sites] = np.arange(len(sites))
    u, v = inv[geom.bond_u], inv[geom.bond_v]
    keep = (u >= 0) & (v >= 0)
    m = len(sites)
    w = np.tile(spec.env.omega[keep], 2)
    W = coo_matrix((w, (np.r_[u[keep], v[keep]], np.r_[v[keep], u[keep]])), shape=(m, m)).tocsr()
    pi = spec.env.pi_all[sites]
    sqrt_pi = np.sqrt(pi)
    row = np.repeat(np.arange(m), np.diff(W.indptr))
    off = csr_matrix((W.data / (sqrt_pi[row] * sqrt_pi[W.indices]), W.indices, W.indptr), shape=W.shape)
    S = (diags(1.0 + spec.lam * spec.phi_box) - off).tocsc()
    prop = csr_matrix((W.data / pi[row], W.indices, W.indptr), shape=W.shape).T.tocsr()
    return S, sqrt_pi, [prop[p::2, 1 - p :: 2] for p in (0, 1)]


def _assert_same_operator(banded, csr, rng):
    # the same entries, and products bit for bit on random vectors, through @ and through the kernel
    got, ref = banded.tocsr(), csr.tocsr()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    x = rng.standard_normal(csr.shape[1])
    assert np.array_equal(banded @ x, csr @ x)
    assert np.array_equal(walk._banded_product(banded, x), csr @ x)


class TestFloorInputs:
    # a radius or dimension that is not an integer, or out of range, raises instead of giving a floor
    BAD = {
        "radius 1.5": (2, 2.0, 1.5, 0.1),
        "radius inf": (2, 2.0, math.inf, 0.1),
        "radius str": (2, 2.0, "3", 0.1),
        "radius 0": (2, 2.0, 0, 0.1),
        "dimension 2.5": (2.5, 2.0, 3, 0.1),
        "dimension 1": (1, 2.0, 3, 0.1),
        "mu inf": (2, 2.0, 3, math.inf),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_eigenvalue_floor_refuses(self, case):
        with pytest.raises(ValidationError):
            eigenvalue_floor(*self.BAD[case])

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_prescribed_killing_rate_refuses(self, case):
        with pytest.raises(ValidationError):
            prescribed_killing_rate(*self.BAD[case], 0.5)

    def test_integral_inputs_pass(self):
        assert eigenvalue_floor(np.int64(2), 2.0, np.int64(3), 0.1) == eigenvalue_floor(2, 2.0, 3, 0.1) > 0
        assert eigenvalue_floor(2, math.inf, 3, 0.1) == 3.0**-0.1 / 16


class TestBandedLayout:
    @pytest.fixture(scope="class")
    def bench_specs(self):
        # perfbench's bounds boxes (seed 301): no hole sites at p = 0.95, about 450 holes at p = 0.6
        specs = []
        for p in (0.95, 0.6):
            for seed in derive_environment_seeds(301, 3):
                env = sample_environment(BoxGeometry(2, 65), 2.0, int(seed))
                dec = strong_cluster(env, threshold_for_density(2.0, p))
                specs.extend(prescribed_spec(env, dec, n) for n in (32, 64))
        return specs

    def test_box_offsets(self):
        # the 2d + 1 diagonals of canonical order: zero and the strides (2n + 1)^i with both signs
        def offsets(d, n):
            env = sample_environment(BoxGeometry(d, n + 1), math.inf, 0)
            return OperatorSpec(env=env, box_radius=n).symmetrized[0].offsets.tolist()

        assert offsets(2, 3) == [-7, -1, 0, 1, 7]
        assert offsets(3, 1) == [-9, -3, -1, 0, 1, 3, 9]
        assert offsets(3, 0) == [-1, 0, 1]
        env = sample_environment(BoxGeometry(2, 4), math.inf, 0)
        half = heatkernel._half_blocks(OperatorSpec(env=env, box_radius=3).stencil)
        assert [b.offsets.tolist() for b in half] == [[-4, -1, 0, 3], [-3, 0, 1, 4]]

    def test_products_equal_csr_bit_for_bit_on_the_benchmark_boxes(self, bench_specs):
        rng = np.random.default_rng(5)
        assert max(len(spec.decomp.holes) for spec in bench_specs) > 300
        for spec in bench_specs:
            S, sqrt_pi = spec.symmetrized
            ref, ref_sqrt, ref_blocks = _csr_operators(spec)
            assert np.array_equal(sqrt_pi, ref_sqrt)
            _assert_same_operator(S, ref, rng)
            assert np.array_equal(S @ sqrt_pi, ref @ sqrt_pi)
            for half, block in zip(heatkernel._half_blocks(spec.stencil), ref_blocks):
                _assert_same_operator(half, block, rng)

    def test_banded_product_refuses_a_vector_it_cannot_pass_to_the_kernel(self):
        S = OperatorSpec(env=sample_environment(BoxGeometry(2, 4), math.inf, 0), box_radius=3).symmetrized[0]
        for bad in (np.ones(48), np.ones(50), np.ones((49, 1)), np.ones(49, dtype=np.float32), np.ones(98)[::2]):
            with pytest.raises(ValidationError, match="banded product"):
                walk._banded_product(S, bad)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        radius=st.integers(0, 8),
        seed=st.integers(0, 2**31),
        p=st.one_of(st.none(), st.floats(0.3, 0.95)),
        lam=st.floats(0.0, 3.0),
    )
    def test_stencil_operators_equal_the_restriction(self, d, radius, seed, p, lam):
        env = sample_environment(BoxGeometry(d, radius + 1), 2.0, seed)
        # a small box can have no bond above the threshold, and strong_cluster refuses it
        assume(p is None or env.omega.max() >= threshold_for_density(2.0, p))
        dec = None if p is None else strong_cluster(env, threshold_for_density(2.0, p))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=radius, lam=lam)
        rng = np.random.default_rng(seed)
        S, sqrt_pi = spec.symmetrized
        ref, ref_sqrt, ref_blocks = _csr_operators(spec)
        assert np.array_equal(sqrt_pi, ref_sqrt)
        _assert_same_operator(S, ref, rng)
        for half, block in zip(heatkernel._half_blocks(spec.stencil), ref_blocks):
            _assert_same_operator(half, block, rng)


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


def _simpson_identity_oracle(spec, t, n_nodes):
    """Both identity residuals from composite Simpson over dense ``expm`` semigroups.

    Returns, per identity, ``R_t 1 - (P_t 1 - lam I)`` at the origin with
    ``I`` the Richardson-extrapolated Simpson integral, and the Richardson
    estimate ``lam |I_h - I_2h| / 15`` of the Simpson error.
    """
    from scipy.integrate import simpson

    P = spec.chain.P.toarray()
    plain = P - np.eye(len(P))
    penalized = plain - spec.lam * np.diag(spec.phi_box)
    o, ones, phi = spec.chain.origin, np.ones(len(P)), spec.phi_box
    s = np.linspace(0.0, t, n_nodes + 1)
    first = [(expm(sj * plain) @ (phi * (expm((t - sj) * penalized) @ ones)))[o] for sj in s]
    second = [(expm(sj * penalized) @ (phi * (expm((t - sj) * plain) @ ones)))[o] for sj in s]
    r_t, p_t = (expm(t * penalized) @ ones)[o], (expm(t * plain) @ ones)[o]
    out = []
    for g in (np.array(first), np.array(second)):
        fine, coarse = simpson(g, x=s), simpson(g[::2], x=s[::2])
        out.append((r_t - (p_t - spec.lam * (fine + (fine - coarse) / 15.0)), spec.lam * abs(fine - coarse) / 15.0))
    return out


class TestPerturbationIdentities:
    def test_zero_killing_reduces_to_plain_semigroup(self, rand_env, rand_decomp):
        spec = OperatorSpec(env=rand_env, decomp=rand_decomp, box_radius=2, lam=0.0)
        rep = perturbation_identity_check(spec, [1.0])
        assert rep.max_deviation == 0.0

    def test_five_by_five_box(self):
        env = sample_environment(BoxGeometry(2, 3), 2.0, 21)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.6))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=2, lam=0.3)
        rep = perturbation_identity_check(spec, [2.0])
        assert rep.max_deviation <= 1e-13
        # both identities agree with each other at the same tolerance
        assert np.max(np.abs(rep.deviations_first - rep.deviations_second)) <= 1e-13

    def test_agrees_with_simpson_oracle(self):
        # the closed form satisfies both identities to rounding; the quadrature oracle's
        # extrapolated integral satisfies them within its own Richardson estimate
        env = sample_environment(BoxGeometry(2, 3), 2.0, 21)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.6))
        spec = OperatorSpec(env=env, decomp=dec, box_radius=2, lam=0.3)
        rep = perturbation_identity_check(spec, [2.0])
        for closed, (residual, estimate) in zip(
            (rep.deviations_first[0], rep.deviations_second[0]), _simpson_identity_oracle(spec, 2.0, 32)
        ):
            assert estimate > 1e-12  # the quadrature error is above rounding, so the comparison means something
            assert abs(abs(residual) - closed) <= estimate

    def test_strong_killing_and_long_horizons(self):
        # composite Simpson on 512 nodes read 1.3e-5 here at lam = 2
        env = sample_environment(BoxGeometry(2, 9), 0.7, 3)
        dec = strong_cluster(env, threshold_for_density(0.7, 0.6))
        for lam in (2.0, 0.05):
            spec = OperatorSpec(env=env, decomp=dec, box_radius=8, lam=lam)
            assert perturbation_identity_check(spec, [0.5, 5.0, 60.0, 5000.0]).max_deviation <= 1e-13
        spec = OperatorSpec(env=env, decomp=dec, box_radius=8, lam=0.0)
        assert perturbation_identity_check(spec, [0.5, 5.0, 60.0]).max_deviation == 0.0


class TestSurvivalBound:
    def test_homogeneous_closed_form_left_side(self):
        env = sample_environment(BoxGeometry(2, 13), math.inf, 0)
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
        env = sample_environment(BoxGeometry(2, 25), math.inf, 0)
        t = np.array([1.0, 2.0, 4.0])
        rep = exit_time_tail_check(OperatorSpec(env=env, box_radius=24), t)
        assert np.all(rep.p_exit >= 0.0)
        assert np.all(rep.p_exit <= gammainc(25, t))
        assert np.all(rep.p_exit >= 4.0**-24 * gammainc(25, t))
        # this far below t ~ N the tail is the Poisson clock's (e t / N)^N, not e^{-N^2/4t}:
        # its slope against N^2/(4t) reads -0.30, and the Gaussian-slope verdict fails
        assert rep.gaussian_slope == pytest.approx(-0.297, abs=1e-3)
        assert not rep.passed

    def test_homogeneous_envelope(self):
        env = sample_environment(BoxGeometry(2, 33), math.inf, 0)
        grid = np.geomspace(32**2 / 16, 32**2, 8)
        rep = exit_time_tail_check(OperatorSpec(env=env, box_radius=32), grid)
        assert rep.p_exit.max() > 0.05
        # decay at least as fast as the e^{-N^2/4t} envelope shape, and the fitted envelope dominates
        assert rep.gaussian_slope is not None and rep.gaussian_slope <= -1.0
        assert rep.passed
        assert np.all(rep.p_exit <= rep.bound * (1 + 1e-12))

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
        env = sample_environment(BoxGeometry(2, 5), math.inf, 0)
        dec = strong_cluster(env, 0.5)
        with pytest.raises(ValidationError):
            prescribed_spec(env, dec, 4)

    def test_decomposition_of_another_environment_rejected(self):
        # the penalty would sit on the other environment's cluster
        a, b = (sample_environment(BoxGeometry(2, 8), 2.0, seed) for seed in (1, 2))
        dec_b = strong_cluster(b, threshold_for_density(2.0, 0.95))
        with pytest.raises(ValidationError, match="different environment"):
            prescribed_spec(a, dec_b, 7)
        with pytest.raises(ValidationError, match="different environment"):
            OperatorSpec(env=a, decomp=dec_b, box_radius=7, lam=0.5)
        assert prescribed_spec(b, dec_b, 7).decomp is dec_b


def _time_entry_points():
    """Every entry point that takes one time or horizon, as ``call(t)``."""
    env = sample_environment(BoxGeometry(2, 4), math.inf, 0)
    dec = strong_cluster(env, 0.5)
    spec = OperatorSpec(env=env, decomp=dec, box_radius=3, lam=0.3)
    origin = env.geometry.origin
    rng = np.random.default_rng(0)
    return {
        "clt_lower_bound_check": lambda t: heatkernel.clt_lower_bound_check(env, dec, [t]),
        "poissonization_lower_bound": lambda t: heatkernel.poissonization_lower_bound(UniformizationCache(env, 3), t),
        "feynman_kac_spectral": lambda t: feynman_kac_spectral(spec, t),
        "feynman_kac_mc": lambda t: feynman_kac_mc(spec, t, 50, rng),
        "perturbation_identity_check": lambda t: perturbation_identity_check(spec, [t]),
        "ensemble_walk": lambda t: ensemble_walk(env, origin, 10, t, rng),
    }


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(_time_entry_points()))
def test_non_finite_or_negative_time_rejected(entry, t):
    # without the check these returned nan, 0.0 or a passing report, or looped forever
    with pytest.raises(ValidationError):
        _time_entry_points()[entry](t)


def _bad_input_calls():
    """Calls on input outside each entry point's domain, by name."""
    env = sample_environment(BoxGeometry(2, 5), 2.0, 7)
    dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
    spec = OperatorSpec(env=env, decomp=dec, box_radius=3, lam=0.3)
    n, rng = env.geometry.n_sites, np.random.default_rng(0)
    calls = {}
    for name, x in (("negative_site", -1), ("site_past_the_end", n)):
        calls[f"effective_conductances-{name}"] = lambda x=x: effective_conductances(env, dec, x)
        calls[f"heat_kernel_hat-{name}"] = lambda x=x: heat_kernel_hat(env, dec, x, [1.0])
        calls[f"next_point_frequencies-{name}"] = lambda x=x: next_point_frequencies(env, dec, x, 10, rng)
    for lam in (math.nan, math.inf):
        calls[f"operator_spec-lam_{lam}"] = lambda lam=lam: OperatorSpec(env=env, decomp=dec, box_radius=3, lam=lam)
        calls[f"uniformization_cache-lam_{lam}"] = lambda lam=lam: UniformizationCache(env, 3, lam=lam)
    site = int(np.flatnonzero(dec.in_cluster)[0])
    for name, count in (("fractional", 2.5), ("string", "3"), ("zero", 0)):
        calls[f"ensemble_walk-{name}_path_count"] = lambda c=count: ensemble_walk(env, env.geometry.origin, c, 1.0, rng)
        calls[f"next_point_frequencies-{name}_path_count"] = lambda c=count: next_point_frequencies(env, dec, site, c, rng)
        calls[f"return_prob_mc-{name}_path_count"] = lambda c=count: return_prob_mc(env, [1.0], c, rng)
        calls[f"feynman_kac_mc-{name}_path_count"] = lambda c=count: feynman_kac_mc(spec, 1.0, c, rng)
    calls["exit_time_tail_check-empty_grid"] = lambda: exit_time_tail_check(spec, [])
    calls["exit_time_tail_check-2d_grid"] = lambda: exit_time_tail_check(spec, [[1.0, 2.0]])
    calls["perturbation_identity_check-empty_grid"] = lambda: perturbation_identity_check(spec, [])
    calls["perturbation_identity_check-2d_grid"] = lambda: perturbation_identity_check(spec, [[1.0, 2.0]])
    return calls


@pytest.mark.parametrize("call", sorted(_bad_input_calls()))
def test_bad_input_rejected(call):
    # without the checks a site of -1 read the last site, n_sites raised IndexError, a nan or
    # infinite rate returned nan or died in the solver, an empty grid passed or raised ValueError,
    # and a path count of 2.5 or "3" raised a bare TypeError
    with pytest.raises(ValidationError):
        _bad_input_calls()[call]()
