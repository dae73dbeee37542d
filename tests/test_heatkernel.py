import math
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.special import ive
from scipy.stats import poisson

from rcmwalk import (
    BoxGeometry,
    NumericalError,
    OperatorSpec,
    ReturnProbabilityCurve,
    UniformizationCache,
    ValidationError,
    box_radius_for_horizon,
    box_stencil,
    clt_lower_bound_check,
    default_time_grid,
    derive_environment_seeds,
    fit_exponent,
    heat_kernel_hat,
    heatkernel,
    poisson_truncation_k,
    poisson_weights,
    poissonization_lower_bound,
    prescribed_spec,
    return_prob_curve_exact,
    return_prob_exact,
    return_prob_mc,
    sample_environment,
    save_environment,
    strong_cluster,
    threshold_for_density,
    transition_matrix,
)
from rcmwalk.experiments import load_config, parse_config, run_exponent


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
        for rate in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="rate must be finite"):
                poisson_truncation_k(rate, 1e-12)


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
        env = sample_environment(BoxGeometry(2, 40), math.inf, 0)
        cache = UniformizationCache(env, box_radius=39)
        for t in (4.0, 16.0, 48.0):
            free = float(ive(0, t / 2.0) ** 2)
            assert cache.return_prob(t) == pytest.approx(free, rel=1e-8)

    @pytest.mark.parametrize(
        "d, n, t_min, t_max, on_z_d", [(2, 240, 20.0, 400.0, True), (3, 48, 2.0, 30.0, False)]
    )
    def test_curve_bracket_holds_the_free_lattice_formula(self, d, n, t_min, t_max, on_z_d):
        # the walk on Z^d returns with the product of d one-dimensional kernels e^{-s} I_0(s), s = t/d;
        # with 2 * steps <= n the bracket holds for it, and at d = 3 (28 folded steps) the wall 48 sites
        # out is felt by t = 30 far below rounding
        env = sample_environment(BoxGeometry(d, n + 1), math.inf, 0)
        curve = return_prob_curve_exact(env, default_time_grid(t_min, t_max, 8))
        assert curve.N == n and (2 * curve.steps <= n) == on_z_d
        free = ive(0, curve.t / d) ** d
        np.testing.assert_allclose(curve.p_lo, free, rtol=1e-12, atol=0)
        np.testing.assert_allclose(curve.p_hi, free, rtol=1e-12, atol=0)

    def test_survival_monitor(self, small_env):
        cache = UniformizationCache(small_env, box_radius=3)
        s1, s2 = cache.survival(2.0), cache.survival(20.0)
        assert 0.0 < s2 < s1 <= 1.0

    def test_curve_provenance(self, small_env):
        grid = default_time_grid(1.0, 10.0, 6)
        curve = return_prob_curve_exact(small_env, grid)
        assert curve.method == "exact-lanczos"
        assert curve.N == small_env.geometry.N - 1
        assert curve.seed == small_env.seed
        assert curve.p[0] <= 1.0 and np.all(curve.stderr == 0)

    def test_tol_validation(self, small_env):
        # a relative width of 1 or more certifies nothing
        for tol in (0.0, -1e-12, 1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match=r"tolerance must lie in \(0, 1\)"):
                return_prob_exact(small_env, 1.0, tol=tol)
            with pytest.raises(ValidationError, match=r"tolerance must lie in \(0, 1\)"):
                return_prob_curve_exact(small_env, [1.0, 2.0], tol=tol)


# Rounding allowance of the bracket against uniformization: the Poisson mixture
# sums K ~ t + O(sqrt(t)) jump powers, the k-th after k sparse matvecs, so its
# relative rounding stays below about K * eps ~ 1e-13 for K <= 500 (measured
# up to 3e-13 at t = 400); the quadrature rules add about m * eps.  The
# reference truncates its Poisson tail at 1e-20, far below 1e-12 * p here.
BRACKET_RTOL = 1e-12


def _grid(scale: float, increments: list[float], from_zero: bool) -> np.ndarray:
    """Strictly increasing times, consecutive points at least 0.05 * scale apart."""
    t = scale * np.cumsum(increments)
    return np.concatenate([[0.0], t]) if from_zero else t


class TestLanczosBracket:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        radius=st.integers(0, 10),
        gamma=st.sampled_from([0.5, 2.0, 8.0]),
        seed=st.integers(0, 2**31),
        increments=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
        from_zero=st.booleans(),
    )
    def test_bracket_contains_uniformization(self, d, radius, gamma, seed, increments, from_zero):
        # radius 0 ends on breakdown; the next few radii (d = 2 up to 3, d = 3
        # up to 1) stop when the step count reaches the box's even sites, an
        # exhausted Krylov space; larger boxes stop on the bracket width.  Horizons up
        # to 3 (n + 1)^2 keep p above about 1e-5, where BRACKET_RTOL is
        # meaningful.
        radius = radius if d == 2 else radius // 2
        env = sample_environment(BoxGeometry(d, radius + 1), gamma, seed)
        t = _grid(3.0 * (radius + 1) ** 2 / len(increments), increments, from_zero)
        curve = return_prob_curve_exact(env, t, box_radius=radius)
        cache = UniformizationCache(env, radius)
        ref = np.array([cache.return_prob(tj, tol=1e-20) for tj in t])
        assert curve.p is curve.p_lo and curve.method == "exact-lanczos"
        assert np.all(curve.p_lo <= ref * (1 + BRACKET_RTOL))
        assert np.all(curve.p_hi >= ref * (1 - BRACKET_RTOL))
        assert np.all(curve.p_hi - curve.p_lo <= 1e-12 * curve.p_lo)
        assert np.all(np.diff(curve.p) < 0)
        assert np.all(curve.p[t == 0] == 1.0) and np.all(curve.p_hi[t == 0] == 1.0)
        surv = np.array([cache.survival(tj, tol=1e-20) for tj in t])
        assert np.all(np.abs(curve.survival - surv) <= 1e-12)

    @settings(max_examples=12, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        extra=st.integers(0, 8),
        seed=st.integers(0, 2**31),
        increments=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
    )
    def test_short_runs_certify_the_lattice_kernel(self, d, extra, seed, increments):
        # folded step i reads the L1 ball of radius 2i, so with 2 steps <= n the
        # products never see the rim, and a box five layers larger (any
        # extension of the environment) gives the same curve bit for bit, as
        # does the box of radius exactly 2 steps; horizons up to 4 (d = 2) and
        # 0.2 (d = 3) take 10-16 folded steps, checks included, so these radii
        # leave one check of slack
        n = 42 + extra if d == 2 else 30 + extra // 4
        env = sample_environment(BoxGeometry(d, n + 6), 2.0, seed)
        t = _grid((4.0 if d == 2 else 0.2) / len(increments), increments, False)
        near = return_prob_curve_exact(env, t, box_radius=n)
        far = return_prob_curve_exact(env, t, box_radius=n + 5)
        edge = return_prob_curve_exact(env, t, box_radius=2 * near.steps)
        assert 2 * near.steps <= n and far.steps == near.steps == edge.steps
        for name in ("p_lo", "p_hi"):
            assert np.array_equal(getattr(near, name), getattr(far, name))
            assert np.array_equal(getattr(edge, name), getattr(far, name))

    @pytest.mark.parametrize("seed", [5, 10])
    def test_exhausted_box_ends_the_run(self, seed):
        # B_1 in d = 2 has 5 even sites, so the folded Krylov space is full after
        # 5 steps and the Gauss rule is exact; these runs took 74 steps of ghost
        # Ritz values before a step count equal to the dimension ended them
        env = sample_environment(BoxGeometry(2, 2), 8.0, seed)
        t = default_time_grid(1.0, 400.0)
        curve = return_prob_curve_exact(env, t, box_radius=1)
        cache = UniformizationCache(env, 1)
        assert curve.steps <= 5
        assert np.all(np.abs(curve.p - [cache.return_prob(tj, tol=1e-20) for tj in t]) <= 1e-12 * curve.p)
        assert np.all(curve.p_hi == curve.p_lo)
        assert np.all(np.abs(curve.survival - [cache.survival(tj, tol=1e-20) for tj in t]) <= 1e-12)

    def test_t_zero_is_exactly_one(self, small_env):
        curve = return_prob_curve_exact(small_env, [0.0, 1.0, 2.0])
        assert curve.p[0] == curve.p_hi[0] == curve.survival[0] == 1.0

    def test_unreachable_tolerance_raises(self):
        # the box needs more even sites (481 in B_15) than the step cap (202),
        # or the run ends on its exhausted Krylov space first
        env = sample_environment(BoxGeometry(2, 16), 2.0, 11)
        with pytest.raises(NumericalError, match="did not settle within tolerance"):
            return_prob_curve_exact(env, [5.0, 40.0], tol=1e-30)

    def test_mrrr_failure_falls_back_to_implicit_ql(self, small_env, monkeypatch):
        # MRRR can fail on clustered ghost Ritz values (d = 2, n = 1, gamma = 8,
        # t <= 400: 3 of 120 curves before runs stopped at the box's dimension);
        # forced to fail everywhere, every check runs on implicit QL and the bracket holds
        t = default_time_grid(1.0, 30.0, 6)
        plain = return_prob_curve_exact(small_env, t)
        drivers, eig = [], heatkernel.eigh_tridiagonal

        def without_mrrr(diag, off, lapack_driver):
            drivers.append(lapack_driver)
            if lapack_driver == "stemr":
                raise LinAlgError("forced")
            return eig(diag, off, lapack_driver=lapack_driver)

        monkeypatch.setattr(heatkernel, "eigh_tridiagonal", without_mrrr)
        curve = return_prob_curve_exact(small_env, t)
        assert drivers[::2] == ["stemr"] * (len(drivers) // 2) and drivers[1::2] == ["stev"] * (len(drivers) // 2)
        assert curve.steps == plain.steps
        assert np.all(curve.p_lo <= plain.p_hi * (1 + BRACKET_RTOL))
        assert np.all(curve.p_hi >= plain.p_lo * (1 - BRACKET_RTOL))

    def test_one_assembly_per_curve_at_the_given_radius(self, small_env, monkeypatch):
        # a priori step counts 48 (t <= 30) and 15 (t = 3) put the first ball
        # past the L1 radius 2n of these boxes: the whole box, once
        built = _count_assemblies(monkeypatch)
        return_prob_curve_exact(small_env, default_time_grid(1.0, 30.0), box_radius=5)
        assert built == [(5, 10, 11**2)]
        return_prob_exact(small_env, 3.0, box_radius=4)
        assert built == [(5, 10, 11**2), (4, 8, 9**2)]

    def test_step_count_on_the_benchmark_curve(self, monkeypatch):
        # work counts, not time: the first quenched_d2 environment at seed 301
        # (n = 240, t in [20, 400]) took 84 folded steps when this guard was
        # set (168 unfolded ones before), on the ball of radius 174 + 10 (68,081
        # of the box's 231,361 sites), and read no full-box neighbor,
        # conductance or pi table; nor, on a sampled environment, the bond
        # table, the bond ids or the coordinates of the box.  Its four checks
        # (steps 69, 74, 79 and 84) solve the Gauss rule each, and the Radau
        # rule only at the last, the first after the survival settled
        cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "quenched_d2.cfg")
        n = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
        env = sample_environment(BoxGeometry(cfg.d, n + 1), cfg.gamma, int(derive_environment_seeds(301, 1)[0]))
        built = _count_assemblies(monkeypatch)
        solves = []
        monkeypatch.setattr(heatkernel, "_ritz", lambda *a, ritz=heatkernel._ritz: solves.append(a) or ritz(*a))
        grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
        curve = return_prob_curve_exact(env, grid, box_radius=n)
        assert curve.steps <= 100
        assert len(built) == 1 and built[0][2] < 0.35 * (2 * n + 1) ** 2
        assert "neighbor_table" not in env.geometry.__dict__
        assert "omega_by_direction" not in env.__dict__ and "pi_all" not in env.__dict__
        assert "omega" not in env.__dict__
        assert "bond_id_table" not in env.geometry.__dict__ and "all_coords" not in env.geometry.__dict__
        assert curve.steps == 84 and len(solves) == 5
        assert curve.bonds < 0.3 * env.geometry.n_bonds

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        radius=st.integers(1, 30),
        gamma=st.sampled_from([0.5, 2.0, 8.0]),
        seed=st.integers(0, 2**31),
        t_max=st.floats(0.5, 40.0),
        margin=st.sampled_from([10, -12, -200]),
    )
    def test_ball_engine_equals_the_full_box_oracle(self, d, radius, gamma, seed, t_max, margin):
        # margins below 0 make the run outgrow its first ball, -200 from the
        # single site on; each larger ball continues the same recurrence
        radius = radius if d == 2 else 1 + radius // 3
        env = sample_environment(BoxGeometry(d, radius + 1), gamma, seed)
        t = default_time_grid(t_max / 20.0, t_max, 6)
        built = []
        with mock.patch.object(heatkernel, "_BALL_MARGIN", margin), mock.patch.object(
            heatkernel, "_ball_pattern", _counting(built)
        ), mock.patch.object(heatkernel, "transition_matrix", _counting_box_chains(built)):
            curve = return_prob_curve_exact(env, t, box_radius=radius)
        oracle = _box_oracle(env, radius, t)
        for name, ref in zip(("p_lo", "p_hi", "survival", "steps"), oracle):
            assert np.array_equal(getattr(curve, name), ref), name
        # balls only grow, never past the box, and past the first only as far as the run needs
        radii = [b[1] for b in built]
        assert radii == sorted(set(radii)) and radii[-1] <= d * radius
        assert len(radii) == 1 or radii[-1] <= 2 * curve.steps + heatkernel._BLOCK_RADII - 2

    def test_outgrown_ball_on_a_benchmark_environment(self, monkeypatch):
        # repeat 12 of quenched_d2 at seed 302, which took 188 unfolded steps
        # and grew its ball at step 185; folded, it closes after 84 steps
        # (L1 radius 168) inside the first ball (radius 184), as every curve of
        # 60 repeats at seeds 301-303 did.  A first ball 24 radii smaller
        # makes it grow at step 81, the first to read past radius 160.
        env = sample_environment(BoxGeometry(2, 241), 2.0, 4985894894568800940)
        t = default_time_grid(20.0, 400.0, 12)
        built = _count_assemblies(monkeypatch)
        curve = return_prob_curve_exact(env, t, box_radius=240)
        assert curve.steps == 84 and [b[1] for b in built] == [184]
        built.clear()
        monkeypatch.setattr(heatkernel, "_BALL_MARGIN", heatkernel._BALL_MARGIN - 24)
        grown = return_prob_curve_exact(env, t, box_radius=240)
        assert [b[1] for b in built] == [160, 2 * 81 + heatkernel._BLOCK_RADII - 2]
        oracle = _box_oracle(env, 240, t)
        for name, ref in zip(("p_lo", "p_hi", "survival", "steps"), oracle):
            assert np.array_equal(getattr(curve, name), ref), name
            assert np.array_equal(getattr(grown, name), ref), name

    def test_ball_filling_the_box_is_assembled_once(self, monkeypatch):
        # d = 5, n = 6, t <= 16: the first ball (radius 54 + 10) covers B_6 (L1 radius 30)
        env = sample_environment(BoxGeometry(5, 7), 0.8, 3)
        built = _count_assemblies(monkeypatch)
        return_prob_curve_exact(env, default_time_grid(2.0, 16.0, 6), box_radius=6)
        assert built == [(6, 30, 13**5)]

    def test_lone_whole_box_curve_reads_the_killed_box_chain(self, monkeypatch):
        # on its own, a curve whose ball is all of B_n cuts it from one
        # transition_matrix chain; in a run the same ball is a shared pattern
        env = sample_environment(BoxGeometry(2, 9), 2.0, 11)
        grid = default_time_grid(1.0, 30.0, 6)
        patterns, chains = [], []
        monkeypatch.setattr(heatkernel, "_ball_pattern", _counting(patterns))
        monkeypatch.setattr(heatkernel, "transition_matrix", _counting_box_chains(chains))
        alone = return_prob_curve_exact(env, grid, box_radius=8)
        assert chains == [(8, 16, 17**2)] and patterns == []
        shared = {}
        in_run = return_prob_curve_exact(env, grid, box_radius=8, patterns=shared)
        assert chains == [(8, 16, 17**2)] and patterns == [(8, 16, 17**2)] and list(shared) == [(2, 9, 8, 16)]
        for name in ("p_lo", "p_hi", "survival", "steps"):
            assert np.array_equal(getattr(alone, name), getattr(in_run, name)), name

    def test_step_count_where_the_ball_fills_the_box(self, monkeypatch):
        # work counts, not time: the first environment of the d = 5 demo, where
        # every step multiplies the whole box, took 23 folded steps (47 unfolded
        # ones before) when this guard was set
        cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "quenched_d5_smallgamma.cfg")
        n = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
        seed = int(derive_environment_seeds(cfg.master_seed, 1)[0])
        env = sample_environment(BoxGeometry(cfg.d, n + 1), cfg.gamma, seed)
        built = _count_assemblies(monkeypatch)
        grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
        curve = return_prob_curve_exact(env, grid, box_radius=n)
        assert curve.steps <= 30
        assert built == [(n, cfg.d * n, (2 * n + 1) ** cfg.d)]

    def test_one_pattern_per_ball_per_run_and_none_kept(self, tmp_path, monkeypatch):
        # the curves of one exponent run share each ball's pattern, and the
        # patterns go with the run; a direct curve builds its own and keeps none
        cfg = parse_config(
            "[grid]\nt_min = 1.0\nt_max = 30.0\n[ensemble]\nn_environments = 3\nmethod = exact\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        refs, gathered = [], []
        built = _count_assemblies(monkeypatch, refs)
        gather = heatkernel._folded_operator

        def counting_gather(env, pattern):
            gathered.append(env.seed)
            return gather(env, pattern)

        monkeypatch.setattr(heatkernel, "_folded_operator", counting_gather)
        report = run_exponent(cfg, threads=1)
        balls = [(box_radius, radius) for box_radius, radius, _ in built]  # every curve has the same (d, N)
        assert len(report.curves) == 3 and len(set(gathered)) == 3
        assert len(balls) == len(set(balls)) and len(balls) < len(gathered)
        assert refs and all(ref() is None for ref in refs)
        refs.clear()
        n = report.box_radius
        env = sample_environment(BoxGeometry(2, n + 1), 2.0, 5)
        return_prob_curve_exact(env, default_time_grid(1.0, 30.0), box_radius=n)
        assert len(refs) == 1 and refs[0]() is None

    def test_heavy_tail_width_is_not_a_rounding_floor(self):
        # environment 41 of demos/annealed_small_gamma.cfg (gamma = 0.4, n = 379,
        # t <= 800) read width 7.3e-13 on the unfolded recurrence, the rounding
        # of its two eigensolves; folded it read 1.5e-15 when this guard was set
        cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "annealed_small_gamma.cfg")
        n = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
        seed = int(derive_environment_seeds(cfg.master_seed, cfg.n_environments)[41])
        env = sample_environment(BoxGeometry(cfg.d, n + 1), cfg.gamma, seed)
        grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
        curve = return_prob_curve_exact(env, grid, box_radius=n)
        assert np.max((curve.p_hi - curve.p_lo) / curve.p_lo) <= 1.5e-14


def _counting(built: list, patterns: list | None = None):
    """``_ball_pattern`` recording ``(box_radius, radius, sites)`` of each pattern in ``built``.

    ``patterns`` also gets a weak reference to each pattern.
    """
    build = heatkernel._ball_pattern

    def counting(geom, box_radius, radius):
        pattern = build(geom, box_radius, radius)
        built.append((box_radius, radius, sum(bonds.shape[1] for bonds in pattern.site_bonds)))
        if patterns is not None:
            patterns.append(weakref.ref(pattern))
        return pattern

    return counting


def _counting_box_chains(built: list):
    """``transition_matrix`` recording each killed box chain as ``(box_radius, d box_radius, sites)``.

    The record of a pattern of the same ball, the whole box.
    """
    assemble = heatkernel.transition_matrix

    def counting(env, box_radius=None):
        chain = assemble(env, box_radius)
        built.append((chain.box_radius, env.geometry.d * chain.box_radius, len(chain.sites)))
        return chain

    return counting


def _count_assemblies(monkeypatch, patterns: list | None = None) -> list:
    """Every operator the curves read: a ball's pattern, or the box chain of a lone curve's whole-box ball."""
    built = []
    monkeypatch.setattr(heatkernel, "_ball_pattern", _counting(built, patterns))
    monkeypatch.setattr(heatkernel, "transition_matrix", _counting_box_chains(built))
    return built


def _box_oracle(env, n: int, t: np.ndarray, tol: float = 1e-12):
    """The folded Lanczos bracket on the whole of ``B_n``, its sites sorted by L1 distance.

    The engine's recurrence and stopping rule on the full-box chain with the
    rows permuted, each row's entries left in canonical order, and the
    parity blocks cut by scipy's row and column indexing; returns ``p_lo``,
    ``p_hi``, the survival and the step count.
    """
    chain = transition_matrix(env, n)
    P = chain.P
    l1 = np.abs(env.geometry.site_coords(chain.sites)).sum(axis=1)
    order = np.argsort(l1, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    sq = np.sqrt(chain.pi)
    data = P.data * (np.repeat(sq, np.diff(P.indptr)) / sq[P.indices])
    A = csr_matrix((data, position[P.indices], P.indptr), shape=P.shape)[order]
    l1, weight = l1[order], sq[order] / sq[order][0]
    even, odd = np.flatnonzero(l1 % 2 == 0), np.flatnonzero(l1 % 2 == 1)
    w_even, w_odd = weight[even], weight[odd]
    CT, C = A[even][:, odd], A[odd][:, even]
    ball_e, ball_o = (np.searchsorted(l1[side], np.arange(l1.max() + 1), side="right") for side in (even, odd))
    rmax = int(l1.max())
    expected = math.sqrt(2.5 * float(t.max()) * math.log(10.0 / tol))
    first = max(heatkernel._CHECK_EVERY, int(heatkernel._FIRST_CHECK * expected / 2))
    u_prev, u, z = np.zeros(len(even)), np.zeros(len(even)), np.zeros(len(odd))
    u[0] = 1.0
    diag, off, c_even, c_odd, beta, pivot, surv_prev, moved = [], [], [], [], 0.0, 1.0, None, math.inf
    for i in range(1, 33 + 2 * math.ceil(expected)):
        live, prev, rows = (ball_e[min(r, rmax)] for r in (2 * i - 2, max(2 * i - 4, 0), 2 * i))
        reached = ball_o[min(2 * i - 1, rmax)]
        z[:reached] = C[:reached] @ u
        y = CT[:rows] @ z
        alpha = float((u[:live] * y[:live]).sum())
        c_even.append(float((w_even[:live] * u[:live]).sum()))
        c_odd.append(float((w_odd[:reached] * z[:reached]).sum()))
        y[:live] -= alpha * u[:live]
        y[:prev] -= beta * u_prev[:prev]
        diag.append(alpha)
        pivot = alpha - 1.0 - beta * beta / pivot
        beta = 0.0 if i == len(even) else math.sqrt(float((y * y).sum()))
        off.append(beta)
        u_prev, u = u, u_prev
        broke = beta <= heatkernel._BREAKDOWN
        if not broke:
            u[:rows] = y / beta
        if (i < first or (i - first) % heatkernel._CHECK_EVERY) and not broke:
            continue
        p_lo, surv = heatkernel._quadrature(np.array(diag), np.array(off[:-1]), t, np.array(c_even), np.array(c_odd))
        p_hi, _ = heatkernel._quadrature(np.array(diag + [1.0 + beta * beta / pivot]), np.array(off), t)
        if surv_prev is not None:
            moved = float(np.max(np.abs(surv - surv_prev)))
        surv_prev = surv
        if broke or (moved <= tol and np.all(np.abs(p_hi - p_lo) <= tol * p_lo)):
            at_zero = t == 0
            p_hi = np.maximum(p_hi, p_lo)
            p_lo[at_zero], p_hi[at_zero], surv[at_zero] = 1.0, 1.0, 1.0
            return p_lo, p_hi, surv, i
    raise AssertionError("the oracle did not close")


class TestBallBonds:
    """A curve reads the conductances of its ball's bonds alone, numbered from the strides."""

    @pytest.mark.parametrize("d, N", [(2, 5), (3, 3), (5, 2)])
    def test_stride_bond_ids_are_the_tables(self, d, N):
        geom, n = BoxGeometry(d, N), N - 1
        assert np.array_equal(geom.bond_ids(np.arange(geom.n_sites)), geom.bond_id_table)
        for radius in range(d * n + 1):
            sites = geom.l1_ball_indices(n, radius)
            assert np.array_equal(geom.bond_ids(sites), geom.bond_id_table[sites]), radius
            # the pattern's places, read through its ranges, are the ids of each site's bonds in incidence order
            pattern = heatkernel._ball_pattern(geom, n, radius)
            ranges = pattern.bond_ranges
            assert np.all(ranges[:, 0] < ranges[:, 1]) and np.all(ranges[1:, 0] >= ranges[:-1, 1])
            ids = np.concatenate([np.arange(a, b) for a, b in ranges])
            l1 = np.abs(geom.site_coords(sites)).sum(axis=1)
            for parity in (0, 1):
                on = sites[l1 % 2 == parity]
                lower = [(on - geom.strides[i], on)[side] for i in range(d) for side in (0, 1)]
                want = np.array([geom.bond_id_table[x, i // 2] for i, x in enumerate(lower)])
                assert np.array_equal(ids[pattern.site_bonds[parity]], want), (radius, parity)
            touched = np.unique(np.concatenate([geom.bond_id_table[sites].ravel()] + [
                geom.bond_id_table[sites - geom.strides[i], i] for i in range(d)]))
            assert np.isin(touched, ids).all()

    def test_a_curve_leaves_the_environment_as_drawn(self, tmp_path):
        # the range reads of a curve draw no table, and change neither == nor
        # the saved bytes; a curve on the drawn table slices it to the same bits
        geom, t = BoxGeometry(2, 12), default_time_grid(1.0, 30.0, 6)
        ran, fresh = sample_environment(geom, 0.75, 99), sample_environment(geom, 0.75, 99)
        lazy = return_prob_curve_exact(ran, t, box_radius=11, patterns={})
        assert "omega" not in ran.__dict__ and lazy.bonds > 0
        assert ran == fresh
        save_environment(ran, tmp_path / "ran.rcmenv")
        save_environment(fresh, tmp_path / "fresh.rcmenv")
        assert (tmp_path / "ran.rcmenv").read_bytes() == (tmp_path / "fresh.rcmenv").read_bytes()
        sliced = return_prob_curve_exact(ran, t, box_radius=11, patterns={})
        for name in ("p_lo", "p_hi", "survival", "steps", "bonds"):
            assert np.array_equal(getattr(sliced, name), getattr(lazy, name)), name


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
        assert UniformizationCache(small_env).discrete(0) == 1.0

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
        env = sample_environment(BoxGeometry(2, 20), math.inf, 0)
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

    @pytest.mark.parametrize(
        "bad", ["seven", "negative", "nan", "inf", "short", "long", "two_rows"], ids=str
    )
    def test_phi_outside_the_unit_interval_or_off_shape_rejected(self, small_env, bad):
        # phi = 7 with lam = 0.5 gave M negative diagonal entries and survival(1.0) = 0.0302
        n = small_env.geometry.n_sites
        phi = {
            "seven": np.full(n, 7.0),
            "negative": np.r_[np.ones(n - 1), -1e-300],
            "nan": np.r_[np.ones(n - 1), np.nan],
            "inf": np.r_[np.ones(n - 1), np.inf],
            "short": np.ones(n - 1),
            "long": np.ones(n + 1),
            "two_rows": np.ones((2, n)),
        }[bad]
        for lam in (0.0, 0.5):
            with pytest.raises(ValidationError, match=r"phi must hold one value in \[0, 1\]"):
                UniformizationCache(small_env, 3, lam=lam, phi=phi)

    def test_phi_at_the_ends_of_the_unit_interval_accepted(self, small_env):
        n = small_env.geometry.n_sites
        for phi in (np.zeros(n), np.ones(n), np.arange(n) % 2 == 0):
            assert 0 < UniformizationCache(small_env, 3, lam=0.5, phi=phi).survival(1.0) <= 1


def _full_vector_exit_mass(chain, k_max: int) -> np.ndarray:
    """The exit mass from the whole box vector, one rim flux per jump: the loop ``exit_mass`` must reproduce."""
    prop = chain.P.T.tocsr()
    rim = np.flatnonzero(chain.exit)
    rim_exit = chain.exit[rim] / (1.0 + 0.0)
    vec = np.zeros(len(chain.sites))
    vec[chain.origin] = 1.0
    exited = [0.0]
    while len(exited) <= k_max:
        exited.append(exited[-1] + float(vec[rim] @ rim_exit))
        vec = prop @ vec
    return np.array(exited)


def _exit_prob(mass: np.ndarray, t: float, tol: float) -> float:
    w = poisson_weights(t, poisson_truncation_k(t, tol))
    return float(w @ mass[: len(w)])


class TestExitMass:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("radius", range(6))
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_equals_the_full_vector_loop_bit_for_bit(self, d, radius, homogeneous):
        if homogeneous:
            env = sample_environment(BoxGeometry(d, radius + 1), math.inf, 0)
        else:
            env = sample_environment(BoxGeometry(d, radius + 1), 2.0, 100 * d + radius)
        chain = transition_matrix(env, radius)
        k_max = 4 * radius + 9
        assert np.array_equal(heatkernel.exit_mass(box_stencil(env, radius), k_max), _full_vector_exit_mass(chain, k_max))

    def test_equals_the_full_vector_loop_on_a_benchmark_box(self):
        env = sample_environment(BoxGeometry(2, 65), 2.0, int(derive_environment_seeds(301, 1)[0]))
        chain = transition_matrix(env, 32)
        assert np.array_equal(heatkernel.exit_mass(box_stencil(env, 32), 400), _full_vector_exit_mass(chain, 400))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_single_site_box_leaves_at_the_first_jump(self, d):
        # on B_0 every bond leads out: P(tau <= t) = P(Poisson(t) >= 1) = 1 - e^{-t}
        env = sample_environment(BoxGeometry(d, 1), 2.0, 3)
        mass = heatkernel.exit_mass(box_stencil(env, 0), poisson_truncation_k(10.0, 1e-40))
        assert mass[0] == 0.0 and np.all(np.abs(mass[1:] - 1.0) <= 4 * np.finfo(float).eps)
        for t in (1e-3, 0.5, 2.0, 10.0):
            assert _exit_prob(mass, t, 1e-40) == pytest.approx(-math.expm1(-t), rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        radius=st.integers(0, 3),
        seed=st.integers(0, 2**31),
        t=st.floats(0.0, 20.0),
    )
    def test_matches_expm(self, radius, seed, t):
        # P(tau <= t) = (int_0^t e^{sG} ds exit)(0) = (G^{-1} (e^{tG} - I) exit)(0), G = P - I
        env = sample_environment(BoxGeometry(2, radius + 1), 2.0, seed)
        chain = transition_matrix(env, radius)
        G = chain.P.toarray() - np.eye(len(chain.sites))
        flux = (expm(t * G) - np.eye(len(chain.sites))) @ chain.exit
        exact = float(np.linalg.solve(G, flux)[chain.origin])
        mass = heatkernel.exit_mass(box_stencil(env, radius), poisson_truncation_k(t, 1e-15))
        assert abs(_exit_prob(mass, t, 1e-15) - exact) <= 1e-12

    def test_half_products(self, small_env, monkeypatch):
        # k_max - 1 products, each by a block between the two halves of B_6's 169 sites, on its 2d = 4 diagonals
        products, banded_product = [], heatkernel._banded_product

        def counted(A, x):
            products.append((A.shape, len(A.offsets)))
            return banded_product(A, x)

        monkeypatch.setattr(heatkernel, "_banded_product", counted)
        heatkernel.exit_mass(box_stencil(small_env, 6), 30)
        assert sorted(set(products)) == [((84, 85), 4), ((85, 84), 4)]
        assert len(products) == 29

    def test_validation(self, small_env, holey_decomp):
        stencil = box_stencil(small_env, 3)
        for bad in (-1, 2.5, "3"):
            with pytest.raises(ValidationError):
                heatkernel.exit_mass(stencil, bad)
        assert np.array_equal(heatkernel.exit_mass(stencil, 0), [0.0])
        with pytest.raises(ValidationError):  # heat_kernel_hat's chain on the strong cluster, not a box stencil
            heatkernel.exit_mass(heatkernel._time_changed_chain(small_env, holey_decomp, small_env.geometry.origin), 5)
        for radius in (-1, small_env.geometry.N, 2.5):  # a stencil needs all of B_n's bonds in the environment
            with pytest.raises(ValidationError):
                box_stencil(small_env, radius)


def _fresh_distribution(cache: UniformizationCache, t: float) -> np.ndarray:
    """The law at ``t`` from a propagation for that time alone: the loop each row must reproduce."""
    w = cache._weights(t, heatkernel._LAW_TOL)
    vec = np.zeros(cache._prop.shape[0])
    vec[cache.chain.origin] = 1.0
    out = w[0] * vec
    for k in range(1, len(w)):
        vec = cache._prop @ vec
        out += w[k] * vec
    return out


class _CountingProduct:
    def __init__(self, M):
        self.M, self.shape, self.count = M, M.shape, 0

    def __matmul__(self, v):
        self.count += 1
        return self.M @ v


class TestDistribution:
    def test_rows_equal_fresh_propagations_bit_for_bit(self, small_env):
        cache = UniformizationCache(small_env)
        grid = [0.0, 0.3, 2.0, 7.5, 31.0]
        laws = cache.distribution(grid)
        assert laws.shape == (len(grid), len(cache.chain.sites))
        for row, t in zip(laws, grid):
            assert np.array_equal(row, _fresh_distribution(cache, t))

    def test_one_propagation_serves_the_grid(self, small_env):
        cache = UniformizationCache(small_env, 6)
        grid = [1.0, 4.0, 16.0]
        cache._prop = _CountingProduct(cache._prop)
        cache.distribution(grid)
        assert cache._prop.count == poisson_truncation_k(16.0, heatkernel._LAW_TOL)
        assert cache.a == [1.0]  # the cached sequences are left alone

    def test_grid_validation(self, small_env):
        cache = UniformizationCache(small_env, 3)
        for bad in ([], [2.0, 1.0], [-1.0], [[1.0, 2.0]], [math.nan]):
            with pytest.raises(ValidationError):
                cache.distribution(bad)


class TestHeatKernelHat:
    def test_t_zero(self, homog_env):
        dec = strong_cluster(homog_env, 0.5)
        curve = heat_kernel_hat(homog_env, dec, homog_env.geometry.origin, [0.0, 2.0])
        assert curve.sup[0] == 1.0

    def test_homogeneous_rescaled_bounded(self):
        env = sample_environment(BoxGeometry(2, 14), math.inf, 0)
        dec = strong_cluster(env, 0.5)
        curve = heat_kernel_hat(env, dec, env.geometry.origin, [4.0, 8.0, 16.0, 32.0])
        assert np.all(curve.rescaled <= 1.0)
        # no blow-up: the rescaled envelope shows no increasing trend
        trend = np.polyfit(np.log(curve.t), np.log(curve.rescaled), 1)[0]
        assert trend <= 0.25
        assert curve.rescaled[-1] <= 2.0 * curve.rescaled[0]

    def test_full_box_sup_matches_exact_kernel(self):
        # with no holes the time change is the identity, so the envelope at
        # each t is the free-boundary kernel's peak, which sits at the start;
        # reference: the dense exponential of the generator on the bond list
        env = sample_environment(BoxGeometry(2, 14), math.inf, 0)
        geom = env.geometry
        dec = strong_cluster(env, 0.5)
        t_grid = [4.0, 8.0, 16.0]
        curve = heat_kernel_hat(env, dec, geom.origin, t_grid)
        W = np.zeros((geom.n_sites, geom.n_sites))
        W[geom.bond_u, geom.bond_v] = env.omega
        W[geom.bond_v, geom.bond_u] = env.omega
        generator = W / env.pi_all[:, None] - np.eye(geom.n_sites)
        for j, t in enumerate(t_grid):
            law = expm(t * generator)[geom.origin]
            assert law.argmax() == geom.origin
            assert abs(curve.sup[j] - law[geom.origin]) <= 1e-12

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
        env = sample_environment(BoxGeometry(2, n + 1), math.inf, 0)
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
        env = sample_environment(BoxGeometry(2, 24), math.inf, 0)
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

    def test_decomposition_of_another_environment_rejected(self):
        a, b = (sample_environment(BoxGeometry(2, 8), 2.0, seed) for seed in (1, 2))
        dec_b = strong_cluster(b, threshold_for_density(2.0, 0.95))
        with pytest.raises(ValidationError, match="different environment"):
            clt_lower_bound_check(a, dec_b, 9.0)

    def test_cache_of_another_environment_rejected(self):
        # the other environment's cache read 0.04545 where this one's reads 0.04984
        a, b = (sample_environment(BoxGeometry(2, 8), 2.0, seed) for seed in (1, 2))
        dec_a = strong_cluster(a, threshold_for_density(2.0, 0.95))
        with pytest.raises(ValidationError, match="different environment"):
            clt_lower_bound_check(a, dec_a, 9.0, cache=UniformizationCache(b, 7))
        rep = clt_lower_bound_check(a, dec_a, 9.0, cache=UniformizationCache(a, 7))
        assert rep.lhs == pytest.approx(0.04984, abs=1e-5)

    def test_chain_of_another_environment_rejected(self):
        # a cache on a's environment but b's chain read b's 0.04545
        a, b = (sample_environment(BoxGeometry(2, 8), 2.0, seed) for seed in (1, 2))
        dec_a = strong_cluster(a, threshold_for_density(2.0, 0.95))
        with pytest.raises(ValidationError, match="different environment"):
            UniformizationCache(a, chain=transition_matrix(b, 7))
        rep = clt_lower_bound_check(a, dec_a, 9.0, cache=UniformizationCache(a, chain=transition_matrix(a, 7)))
        assert rep.lhs == pytest.approx(0.04984, abs=1e-5)

    @pytest.fixture(scope="class")
    def box12(self):
        env = sample_environment(BoxGeometry(2, 12), 2.0, 3)
        return env, strong_cluster(env, threshold_for_density(2.0, 0.95))

    def test_penalized_cache_refused(self, box12):
        # a cache at lam = 0.5 read the penalized kernel, lhs 5.4e-4 against 4.8e-2, and still passed
        env, dec = box12
        with pytest.raises(ValidationError, match="unpenalized"):
            clt_lower_bound_check(env, dec, 9.0, cache=UniformizationCache(env, box_radius=11, lam=0.5))
        assert clt_lower_bound_check(env, dec, 9.0).lhs == pytest.approx(0.04823, abs=1e-5)

    def test_cache_on_another_radius_refused(self, box12):
        # box radius 5 was ignored and the check ran on the cache's radius 11
        env, dec = box12
        cache = UniformizationCache(env, box_radius=11)
        for radius in (5, 11.0, "11"):
            with pytest.raises(ValidationError, match="box radius"):
                clt_lower_bound_check(env, dec, 9.0, box_radius=radius, cache=cache)
        same = clt_lower_bound_check(env, dec, 9.0, box_radius=np.int64(11), cache=cache)
        assert same == clt_lower_bound_check(env, dec, 9.0, cache=cache)

    def test_chain_on_another_radius_refused(self, box12):
        # the cache ran on the chain's radius 7 although radius 5 was asked for
        env, _ = box12
        chain = transition_matrix(env, 7)
        with pytest.raises(ValidationError, match="box radius 5 given with a chain on radius 7"):
            UniformizationCache(env, box_radius=5, chain=chain)
        assert UniformizationCache(env, box_radius=7, chain=chain).chain is chain


class TestGridHelpers:
    def test_time_grid_density(self):
        grid = default_time_grid(10, 1000, 12)
        assert grid[0] == pytest.approx(10)
        assert grid[-1] == pytest.approx(1000)
        assert len(grid) == 25

    @pytest.mark.parametrize("bad", [[math.nan], [1.0, math.inf], [-math.inf, 1.0], [0.0, math.nan, 2.0]])
    def test_time_grid_rejects_non_finite_times(self, small_env, bad):
        with pytest.raises(ValidationError, match="finite"):
            return_prob_curve_exact(small_env, bad)
        with pytest.raises(ValidationError, match="finite"):
            return_prob_mc(small_env, bad, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("t_min, t_max, per_decade", [(1.0, math.inf, 12), (1.0, 10.0, 1), (1.0, 10.0, 0),
                                                          (1.0, 10.0, -3), (math.nan, 10.0, 12),
                                                          (1.0, 10.0, math.nan), (1.0, 10.0, math.inf),
                                                          (1.0, 10.0, 2.5)])
    def test_time_grid_rule_rejects_bad_input(self, t_min, t_max, per_decade):
        # a nan once raised a bare ValueError, inf an OverflowError, and 2.5 made a grid
        with pytest.raises(ValidationError):
            default_time_grid(t_min, t_max, per_decade)

    def test_box_radius_rule(self):
        assert box_radius_for_horizon(400.0) == 240
        assert box_radius_for_horizon(0.5, c=2.0) >= 2
        with pytest.raises(ValidationError):
            box_radius_for_horizon(0.0)

    @pytest.mark.parametrize("t_max, c", [(math.inf, 2.0), (math.nan, 2.0), (400.0, math.nan), (400.0, 0.0),
                                          (400.0, -1.0), (400.0, math.inf)])
    def test_box_radius_rejects_non_finite_input(self, t_max, c):
        with pytest.raises(ValidationError):
            box_radius_for_horizon(t_max, c)



# 6 is the radius N of the environment below, one past the largest killed box
_NON_RADII = [2.7, "3", math.nan, math.inf, -1, 6]
_RADIUS_ENTRY_POINTS = {
    "transition_matrix": lambda env, decomp, r: transition_matrix(env, r),
    "UniformizationCache": lambda env, decomp, r: UniformizationCache(env, box_radius=r),
    "clt_lower_bound_check": lambda env, decomp, r: clt_lower_bound_check(env, decomp, 4.0, box_radius=r),
    "ball_pattern": lambda env, decomp, r: heatkernel._ball_pattern(env.geometry, r, 4),
    "return_prob_curve_exact": lambda env, decomp, r: return_prob_curve_exact(env, [1.0, 2.0], box_radius=r),
    "return_prob_mc": lambda env, decomp, r: return_prob_mc(env, [1.0], 10, np.random.default_rng(0), box_radius=r),
    "prescribed_spec": lambda env, decomp, r: prescribed_spec(env, decomp, box_radius=r),
    "OperatorSpec": lambda env, decomp, r: OperatorSpec(env, decomp, box_radius=r, lam=1.0),
}


class TestBoxRadius:
    @pytest.fixture(scope="class")
    def case(self):
        env = sample_environment(BoxGeometry(2, 6), 2.0, 1)
        decomp = strong_cluster(env, threshold_for_density(2.0, 0.95))
        assert decomp.in_cluster[env.geometry.origin]  # else the CLT check refuses for another reason
        return env, decomp

    @pytest.mark.parametrize("entry", list(_RADIUS_ENTRY_POINTS))
    @pytest.mark.parametrize("radius", _NON_RADII, ids=["fractional", "string", "nan", "inf", "negative", "N"])
    def test_refused_not_truncated(self, case, entry, radius):
        # a fractional radius used to run on its integer part (a curve with N = 2
        # from 2.7), "3" read as 3, and inf and nan raised bare Python errors
        with pytest.raises(ValidationError):
            _RADIUS_ENTRY_POINTS[entry](*case, radius)

    def test_numpy_integers_accepted(self, case):
        env, decomp = case
        curve = return_prob_curve_exact(env, [1.0, 2.0], box_radius=np.int64(3))
        assert curve.N == 3 and type(curve.N) is int
        spec = OperatorSpec(env, decomp, box_radius=np.int32(3), lam=1.0)
        assert spec.box_radius == 3 and type(spec.box_radius) is int
        assert transition_matrix(env, np.uint8(3)).box_radius == 3
