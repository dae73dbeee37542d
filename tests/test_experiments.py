import ast
import csv
import hashlib
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmwalk import (
    BoxGeometry,
    EmptyClusterError,
    NumericalError,
    ValidationError,
    derive_environment_seeds,
    experiments,
    heatkernel,
    UniformizationCache,
    default_time_grid,
    poisson_truncation_k,
    return_prob_curve_exact,
    sample_environment,
    spectral,
)
from rcmwalk.cli import main
from rcmwalk.experiments import (
    ExperimentConfig,
    config_hash,
    config_to_text,
    load_config,
    parse_config,
    run_bound_suite,
    run_exponent,
)

ROOT = Path(__file__).resolve().parents[1]

FAST_CFG = """
[model]
d = 2
gamma = 2.0
p = 0.9

[grid]
t_min = 5.0
t_max = 60.0
points_per_decade = 8
window_t_min = 5.0
window_t_max = 60.0

[boxes]
N_list = 8, 12

[ensemble]
n_environments = 3
n_paths = 300
master_seed = 42

[output]
directory = {out}
"""


def _cfg(tmp_path, sub="run"):
    return parse_config(FAST_CFG.format(out=tmp_path / sub))


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = _cfg(tmp_path)
        assert parse_config(config_to_text(cfg)) == cfg
        path = tmp_path / "c.cfg"
        path.write_text(config_to_text(cfg))
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(FAST_CFG.format(out=tmp_path).replace("t_min", "t_mim"))

    @pytest.mark.parametrize("line", ["gamma_list = 1.0, 2.0", "homogeneous = true"])
    def test_retired_model_keys_rejected(self, tmp_path, line):
        # one law per run, and gamma = inf is the all-ones box
        text = FAST_CFG.format(out=tmp_path).replace("p = 0.9", f"p = 0.9\n{line}")
        with pytest.raises(ValidationError, match=f"unknown key '{line.split()[0]}' in section \\[model\\]"):
            parse_config(text)

    @pytest.mark.parametrize("name", ["quenched_d2.cfg", "bounds.cfg"])
    def test_benchmark_configs_parse(self, name):
        # both frozen configs still carry n_paths, and quenched_d2 method = exact
        cfg = load_config(ROOT / "perfbench" / "configs" / name)
        assert cfg.gamma == 2.0 and cfg.n_paths == 2000 and cfg.method == "exact"

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown config section"):
            parse_config(FAST_CFG.format(out=tmp_path) + "\n[plotting]\nx = 1\n")

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(gamma=-1.0).validate()
        with pytest.raises(ValidationError):
            ExperimentConfig(p=1.5).validate()
        with pytest.raises(ValidationError):
            ExperimentConfig(method="magic").validate()
        with pytest.raises(ValidationError):
            ExperimentConfig(epsilon=2.0).validate()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_text_round_trip(self, data):
        cfg = data.draw(_configs())
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize(
        "bad",
        [
            {"coupling_c": math.nan},
            {"window_t_min": math.nan},
            {"window_t_min": -5.0},
            {"window_t_max": math.inf},
            {"t_max": math.inf},
            {"t_min": math.nan},
            {"mu": math.inf},
            {"b": math.inf},
            {"gamma": -math.inf},
            {"window_t_min": 300.0, "window_t_max": 100.0},
            {"t_min": 1.0, "t_max": 8.0, "window_t_min": 0.0, "window_t_max": 0.0},  # the default starts at 10
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_values_rejected(self, tmp_path, bad):
        # a bad value must never run as a plausible number (a default window, a NaN box radius)
        cfg = replace(_cfg(tmp_path), **bad)
        with pytest.raises(ValidationError):
            cfg.validate()
        with pytest.raises(ValidationError):
            parse_config(config_to_text(cfg))

    def test_infinite_gamma_accepted(self, tmp_path):
        # the homogeneous limit of the conductance law
        cfg = replace(_cfg(tmp_path), gamma=math.inf)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_window_defaults_exclude_early_times(self):
        cfg = ExperimentConfig(t_min=2.0, t_max=100.0)
        assert cfg.window() == (10.0, 100.0)

    def test_hash_tracks_content(self, tmp_path):
        a = _cfg(tmp_path)
        b = _cfg(tmp_path)
        assert config_hash(a) == config_hash(b)
        b.master_seed = 43
        assert config_hash(a) != config_hash(b)

    def test_hash_leaves_out_only_directory_and_exact_n_paths(self, tmp_path):
        cfg = _cfg(tmp_path)
        assert config_hash(cfg) == config_hash(replace(cfg, directory="elsewhere"))
        for change in ({"mu": 0.2}, {"t_min": 6.0}, {"epsilon": 0.5}, {"N_list": (8,)}):
            # a key stays in the hash whether or not the run's command reads it
            assert config_hash(cfg) != config_hash(replace(cfg, **change)), change

    def test_hash_reads_n_paths_only_for_mc(self, tmp_path):
        exact = _cfg(tmp_path)
        assert exact.method == "exact"
        assert config_hash(exact) == config_hash(replace(exact, n_paths=17))
        mc = replace(exact, method="mc")
        assert config_hash(mc) != config_hash(replace(mc, n_paths=17))

    def test_n_paths_validated_only_for_mc(self, tmp_path):
        cfg = parse_config(FAST_CFG.format(out=tmp_path).replace("n_paths = 300", "n_paths = 0"))
        assert cfg.method == "exact" and cfg.n_paths == 0
        with pytest.raises(ValidationError, match="n_paths"):
            ExperimentConfig(method="mc", n_paths=0).validate()


@st.composite
def _configs(draw):
    """A valid config with every knob drawn, the fit window either default or explicit."""
    t_min = draw(st.floats(0.01, 100.0))
    t_max = t_min * draw(st.floats(1.01, 1e3))
    window = (0.0, 0.0)
    if t_max <= max(t_min, 10.0) or draw(st.booleans()):
        lo = draw(st.floats(t_min, t_max))
        window = (lo, lo * draw(st.floats(1.01, 10.0)))
    cfg = ExperimentConfig(
        d=draw(st.integers(2, 6)),
        gamma=draw(st.one_of(st.floats(0.01, 50.0), st.just(math.inf))),
        p=draw(st.floats(0.01, 0.99)),
        t_min=t_min,
        t_max=t_max,
        points_per_decade=draw(st.integers(2, 40)),
        window_t_min=window[0],
        window_t_max=window[1],
        coupling_c=draw(st.floats(0.1, 10.0)),
        N_list=tuple(draw(st.lists(st.integers(2, 512), min_size=1, max_size=4))),
        mu=draw(st.floats(1e-3, 10.0)),
        b=draw(st.floats(1.01, 5.0)),
        epsilon=draw(st.floats(0.01, 0.99)),
        n_environments=draw(st.integers(0, 100)),
        n_paths=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        method=draw(st.sampled_from(["exact", "mc"])),
        directory=draw(st.text(alphabet="abcxyz0123456789_-./", min_size=1, max_size=20)),
    )
    cfg.validate()
    return cfg


class TestQuenchedRunner:
    def test_report_and_files(self, tmp_path):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg)
        assert rep.kind == "quenched"
        assert len(rep.per_env) == 3
        assert rep.quenched.n_envs == 3 and rep.annealed is None
        out = Path(cfg.directory)
        for name in ("curves.csv", "exponent_fits.csv", "exponent_report.csv", "manifest.txt"):
            assert (out / name).is_file()
        header = (out / "exponent_report.csv").read_text().splitlines()[0]
        assert header == "gamma,d,N,t_min,t_max,slope,ci_low,ci_high,n_envs"

    def test_no_environments_refused_before_the_directory_is_made(self, tmp_path):
        cfg = replace(_cfg(tmp_path), n_environments=0)
        with pytest.raises(ValidationError, match="n_environments must be >= 1"):
            run_exponent(cfg)
        assert not Path(cfg.directory).exists()

    def test_byte_determinism(self, tmp_path):
        rep1 = run_exponent(_cfg(tmp_path, "a"))
        rep2 = run_exponent(_cfg(tmp_path, "b"))
        for name in ("curves.csv", "exponent_fits.csv", "exponent_report.csv"):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2
        assert rep1.config_hash == rep2.config_hash  # the output directory is not hashed

    def test_threads_do_not_change_output(self, tmp_path):
        run_exponent(_cfg(tmp_path, "s"), threads=1)
        run_exponent(_cfg(tmp_path, "t"), threads=2)
        assert (tmp_path / "s" / "curves.csv").read_bytes() == (tmp_path / "t" / "curves.csv").read_bytes()

    def test_cli_bytes_pinned(self, tmp_path):
        # sha256 of the files written by the folded Lanczos engine for this config
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG.format(out=tmp_path / "unused"))
        assert main(["exponent", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        pinned = {
            "curves.csv": "175546fda7d846a339a04ad80910ffd66a1a6a2ab3411d647c7820faaa7db80f",
            "exponent_fits.csv": "d3983ef5b89e60c2041413890c656afd8ecf92d8a273512b619d6394ad08b2ea",
            "exponent_report.csv": "fdc629bc1e53a509ce4a9f57249d11b6c24c5f611a7ec062a52cfa9cfd586ad1",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest
        # every pinned p sits within 1e-12 relative of the uniformization engine
        rows = _read_rows(tmp_path / "out" / "curves.csv")
        assert {r["method"] for r in rows} == {"exact-lanczos"}
        for seed in {r["seed"] for r in rows}:
            mine = [r for r in rows if r["seed"] == seed]
            n = int(mine[0]["N"])
            env = sample_environment(BoxGeometry(2, n + 1), float(mine[0]["gamma"]), int(seed))
            cache = UniformizationCache(env, n)
            for r in mine:
                assert float(r["p_lo"]) == float(r["p"]) <= float(r["p_hi"])
                assert abs(float(r["p"]) / cache.return_prob(float(r["t"])) - 1.0) <= 1e-12

    def test_failing_job_names_gamma_and_seed(self, tmp_path, monkeypatch, threads=1):
        # the failed environment becomes a marker row; the others are fitted and summarized
        cfg = _cfg(tmp_path)
        seeds = derive_environment_seeds(cfg.master_seed, cfg.n_environments)

        def fail_on_second(env, grid, tol=1e-12, box_radius=None, patterns=None):
            if env.seed == seeds[1]:
                raise NumericalError("solver gave up")
            return return_prob_curve_exact(env, grid, tol, box_radius, patterns)

        monkeypatch.setattr(experiments, "return_prob_curve_exact", fail_on_second)
        rep = run_exponent(cfg, threads=threads)
        out = Path(cfg.directory)
        fits = _read_rows(out / "exponent_fits.csv")
        assert [r["status"] for r in fits] == ["ok", f"failed: gamma=2.0, seed={seeds[1]}: solver gave up", "ok"]
        assert fits[1]["slope"] == "nan"
        assert {r["seed"] for r in _read_rows(out / "curves.csv")} == {str(seeds[0]), str(seeds[2])}
        assert rep.quenched.n_envs == 2 and len(rep.curves) == 2

    def test_failing_job_in_a_worker_process(self, tmp_path, monkeypatch):
        self.test_failing_job_names_gamma_and_seed(tmp_path, monkeypatch, threads=2)

    def test_every_job_failing_raises(self, tmp_path, monkeypatch):
        cfg = _cfg(tmp_path)
        seeds = derive_environment_seeds(cfg.master_seed, cfg.n_environments)

        def give_up(env, grid, tol=1e-12, box_radius=None, patterns=None):
            raise NumericalError("solver gave up")

        monkeypatch.setattr(experiments, "return_prob_curve_exact", give_up)
        with pytest.raises(NumericalError, match=rf"^gamma=2\.0, seed={seeds[0]}: solver gave up$") as info:
            run_exponent(cfg, threads=1)
        assert str(info.value.__cause__) == "solver gave up"

    def test_manifest_records_lanczos_steps(self, tmp_path, capsys):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg)
        manifest = (Path(cfg.directory) / "manifest.txt").read_text()
        assert f"lanczos_steps={max(c.steps for c in rep.curves)}\n" in manifest
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert f"  lanczos_steps={max(c.steps for c in rep.curves)}" in capsys.readouterr().out

    def test_manifest_records_the_bonds_read_and_the_zd_curves(self, tmp_path, capsys):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg)
        manifest = (Path(cfg.directory) / "manifest.txt").read_text()
        box_bonds = BoxGeometry(cfg.d, rep.box_radius + 1).n_bonds * len(rep.curves)
        drawn = sum(c.bonds for c in rep.curves)
        certified = sum(2 * c.steps <= c.N for c in rep.curves)
        lines = [f"bonds_drawn={drawn}", f"box_bonds={box_bonds}", f"zd_certified_curves={certified}/{len(rep.curves)}"]
        assert "\n".join(lines) + "\n" in manifest
        assert 0 < drawn < box_bonds  # the balls, not the boxes
        assert main(["report", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert all(f"  {line}\n" in out for line in lines)

    def test_manifest_hashes(self, tmp_path):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg)
        out = Path(cfg.directory)
        manifest = (out / "manifest.txt").read_text()
        assert f"config_hash=sha256:{rep.config_hash}" in manifest
        for line in manifest.splitlines():
            if line.startswith("file="):
                name, digest = line[len("file=") :].rsplit(" sha256:", 1)
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_empty_ensemble_rejected(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg.n_environments = 0
        with pytest.raises(ValidationError):
            run_exponent(cfg)
        assert not (Path(cfg.directory) / "exponent_report.csv").exists()

    def test_mc_method(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg.method = "mc"
        cfg.n_environments = 2
        cfg.n_paths = 4000
        cfg.t_max = 30.0
        cfg.window_t_max = 30.0
        rep = run_exponent(cfg)
        assert all(np.isfinite(e.slope) for e in rep.per_env if e.status == "ok")
        assert any(e.status == "ok" for e in rep.per_env)

    def test_mc_failures_marked_not_fatal(self, tmp_path):
        # starved Monte Carlo curves estimate zero at late times; those
        # environments must be persisted with a marker, not crash the sweep
        cfg = _cfg(tmp_path)
        cfg.method = "mc"
        cfg.n_environments = 4
        cfg.n_paths = 40
        try:
            rep = run_exponent(cfg)
        except Exception as exc:
            assert "every environment fit failed" in str(exc)
            return
        fits_csv = (Path(cfg.directory) / "exponent_fits.csv").read_text()
        assert "status" in fits_csv.splitlines()[0]
        if any(e.status != "ok" for e in rep.per_env):
            assert "failed" in fits_csv


    def test_infinite_gamma_is_the_all_ones_box(self, tmp_path):
        # every environment of a gamma = inf run is all ones: one curve, labelled inf, per seed
        cfg = replace(_cfg(tmp_path), gamma=math.inf)
        rep = run_exponent(cfg)
        rows = _read_rows(Path(cfg.directory) / "curves.csv")
        seeds = derive_environment_seeds(cfg.master_seed, cfg.n_environments)
        assert {r["gamma"] for r in rows} == {"inf"}
        assert [int(r["seed"]) for r in rows[:: len(rows) // len(seeds)]] == seeds.tolist()
        n = rep.box_radius
        grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
        control = return_prob_curve_exact(sample_environment(BoxGeometry(2, n + 1), math.inf, 0), grid, box_radius=n)
        for curve in rep.curves:
            assert np.array_equal(curve.p, control.p)


class TestAnnealedRunner:
    def test_average_then_fit(self, tmp_path):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg, annealed=True)
        assert rep.kind == "annealed"
        assert rep.annealed.n_envs == rep.quenched.n_envs == 3
        out = Path(cfg.directory)
        assert (out / "annealed_curve.csv").is_file()
        assert (out / "annealed_report.csv").is_file()

    def test_failed_environment_marked_and_left_out_of_the_mean(self, tmp_path, monkeypatch):
        cfg = _cfg(tmp_path)
        seeds = derive_environment_seeds(cfg.master_seed, cfg.n_environments)

        def fail_on_second(env, grid, tol=1e-12, box_radius=None, patterns=None):
            if env.seed == seeds[1]:
                raise NumericalError("solver gave up")
            return return_prob_curve_exact(env, grid, tol, box_radius, patterns)

        monkeypatch.setattr(experiments, "return_prob_curve_exact", fail_on_second)
        rep = run_exponent(cfg, annealed=True)
        out = Path(cfg.directory)
        fits = _read_rows(out / "exponent_fits.csv")
        assert fits[1]["status"] == f"failed: gamma=2.0, seed={seeds[1]}: solver gave up"
        assert rep.annealed.n_envs == 2
        assert {r["n_envs"] for r in _read_rows(out / "annealed_curve.csv")} == {"2"}

    def test_annealed_dominates_min_quenched(self, tmp_path):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg, annealed=True)
        stack = np.vstack([c.p for c in rep.curves])
        mean = stack.mean(axis=0)
        assert np.all(mean >= stack.min(axis=0) - 1e-15)

    def test_quenched_annealed_consistent(self, tmp_path):
        # gamma > d/2: the two aggregations see the same exponent
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg, annealed=True)
        q, a = rep.quenched, rep.annealed
        joint = max(q.ci_high - q.ci_low, a.ci_high - a.ci_low, 0.1)
        assert abs(q.slope - a.slope) <= joint


class TestBoundSuite:
    def test_pass_rates(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg.p = 0.95
        rep = run_bound_suite(cfg)
        assert set(rep.pass_rates) == {"hole_volume", "lambda1_floor", "survival_bound", "exit_tail"}
        assert rep.pass_rates["lambda1_floor"] == 1.0
        assert rep.pass_rates["survival_bound"] == 1.0
        out = Path(cfg.directory)
        for name in ("holes.csv", "spectral_report.csv", "survival.csv", "exit_tail.csv"):
            assert (out / name).is_file()
        lines = (out / "spectral_report.csv").read_text().splitlines()
        assert lines[0] == "gamma,d,N,xi_hat,lambda,bound_m_N,pass,neg_pivots,iterations"
        # every floor is certified by the test vector: no eigenvalue below m(N), no shift-invert solve
        assert all(line.endswith(",True,0,0") for line in lines[1:])
        manifest = (out / "manifest.txt").read_text()
        assert "floor_inertia_fallbacks=0\nfloor_eigsh_fallbacks=0\n" in manifest

    def test_manifest_counts_survival_lanczos_steps(self, tmp_path, monkeypatch):
        runs, lanczos = [], spectral.feynman_kac_lanczos

        def counted(spec, t):
            runs.append(lanczos(spec, t))
            return runs[-1]

        monkeypatch.setattr(spectral, "feynman_kac_lanczos", counted)
        cfg = _cfg(tmp_path)
        run_bound_suite(cfg)
        steps = [k for _, k, _ in runs]
        assert len(steps) == cfg.n_environments * len(cfg.N_list) and min(steps) > 0
        assert f"survival_lanczos_steps={sum(steps)}\n" in (Path(cfg.directory) / "manifest.txt").read_text()

    def test_manifest_counts_survival_ritz_pairs(self, tmp_path, monkeypatch):
        # the pairs every check of every survival run solved, right after the steps
        runs, lanczos = [], spectral.feynman_kac_lanczos

        def counted(spec, t):
            runs.append(lanczos(spec, t))
            return runs[-1]

        monkeypatch.setattr(spectral, "feynman_kac_lanczos", counted)
        cfg = _cfg(tmp_path)
        run_bound_suite(cfg)
        steps, pairs = sum(k for _, k, _ in runs), sum(p for _, _, p in runs)
        assert pairs > 0
        manifest = (Path(cfg.directory) / "manifest.txt").read_text()
        assert f"survival_lanczos_steps={steps}\nsurvival_ritz_pairs={pairs}\nexit_tail_products=" in manifest

    def test_manifest_counts_exit_tail_products(self, tmp_path, monkeypatch):
        tails, check = [], experiments.exit_time_tail_check

        def recorded(spec, t_grid):
            tails.append(check(spec, t_grid))
            return tails[-1]

        monkeypatch.setattr(experiments, "exit_time_tail_check", recorded)
        cfg = _cfg(tmp_path)
        run_bound_suite(cfg)
        n = min(cfg.N_list)
        # one tail per environment, to the Poisson truncation of t = N^2: every jump count but the last needs a product
        assert [tail.products for tail in tails] == [poisson_truncation_k(n * n, 1e-40) - 1] * cfg.n_environments
        assert f"exit_tail_products={sum(t.products for t in tails)}\n" in (Path(cfg.directory) / "manifest.txt").read_text()

    def test_exit_tail_rate_counts_the_slope_verdict(self, tmp_path, monkeypatch):
        # the fitted envelope dominates every tail by construction; the rate counts the Gaussian-slope verdict
        tails, check = [], experiments.exit_time_tail_check

        def first_fails(spec, t_grid):
            tails.append(check(spec, t_grid))
            return replace(tails[-1], passed=len(tails) > 1)

        monkeypatch.setattr(experiments, "exit_time_tail_check", first_fails)
        cfg = _cfg(tmp_path)
        rep = run_bound_suite(cfg)
        assert all(tail.passed and np.all(tail.p_exit <= tail.bound * (1 + 1e-12)) for tail in tails)
        assert rep.pass_rates["exit_tail"] == (cfg.n_environments - 1) / cfg.n_environments

    def test_byte_determinism(self, tmp_path):
        for sub in ("a", "b"):
            run_bound_suite(_cfg(tmp_path, sub))
        for name in ("holes.csv", "spectral_report.csv", "survival.csv", "exit_tail.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_counts_eigsh_fallbacks(self, tmp_path, monkeypatch):
        # with no test vector and no valid inertia every floor goes to the eigensolve, and the verdicts stand
        run_bound_suite(_cfg(tmp_path, "barta"))
        monkeypatch.setattr(spectral, "_test_vector_floor", lambda spec, shift: False)
        monkeypatch.setattr(spectral, "negative_pivots", lambda S, shift: None)
        cfg = _cfg(tmp_path, "eigsh")
        run_bound_suite(cfg)
        out = Path(cfg.directory)
        boxes = cfg.n_environments * len(cfg.N_list)
        manifest = (out / "manifest.txt").read_text()
        assert f"floor_inertia_fallbacks={boxes}\nfloor_eigsh_fallbacks={boxes}\n" in manifest
        rows = _read_rows(out / "spectral_report.csv")
        assert all(r["neg_pivots"] == "-1" and int(r["iterations"]) > 0 for r in rows)
        barta = _read_rows(tmp_path / "barta" / "spectral_report.csv")
        assert [r["pass"] for r in rows] == [r["pass"] for r in barta]

    def test_manifest_counts_inertia_fallbacks(self, tmp_path, monkeypatch):
        # with the test vector off every floor is factored, the CSV keeps its bytes
        run_bound_suite(_cfg(tmp_path, "barta"))
        monkeypatch.setattr(spectral, "_test_vector_floor", lambda spec, shift: False)
        cfg = _cfg(tmp_path, "inertia")
        run_bound_suite(cfg)
        out = Path(cfg.directory)
        boxes = cfg.n_environments * len(cfg.N_list)
        manifest = (out / "manifest.txt").read_text()
        assert f"floor_inertia_fallbacks={boxes}\nfloor_eigsh_fallbacks=0\n" in manifest
        name = "spectral_report.csv"
        assert (out / name).read_bytes() == (tmp_path / "barta" / name).read_bytes()

    def test_one_chain_per_box(self, tmp_path, monkeypatch):
        # the floor check, the survival check and the exit tail share one spec
        # per box and read one stencil of it: no box chain, no ball pattern
        cfg = _cfg(tmp_path)
        stencils, stencil = [], spectral.box_stencil

        def counting(env, box_radius):
            stencils.append(box_radius)
            return stencil(env, box_radius)

        def refused(*args, **kwargs):
            pytest.fail("the bound path built a box chain or a ball pattern")

        monkeypatch.setattr(spectral, "box_stencil", counting)
        for module in (spectral, heatkernel):
            monkeypatch.setattr(module, "transition_matrix", refused)
        monkeypatch.setattr(heatkernel, "_ball_pattern", refused)
        run_bound_suite(cfg, threads=1)
        assert sorted(stencils) == sorted(list(cfg.N_list) * cfg.n_environments)

    def test_failing_job_names_gamma_and_seed(self, tmp_path, monkeypatch):
        cfg = _cfg(tmp_path)
        first = derive_environment_seeds(cfg.master_seed, cfg.n_environments)[0]

        calls = []

        def no_cluster(env, xi):
            calls.append(env.seed)
            raise EmptyClusterError("no strong bond")

        monkeypatch.setattr(experiments, "strong_cluster", no_cluster)
        with pytest.raises(EmptyClusterError, match=rf"^gamma=2\.0, seed={first}: no strong bond$") as info:
            run_bound_suite(cfg, threads=1)
        assert str(info.value.__cause__) == "no strong bond"
        assert calls == [first]  # the first failure ends the suite

    def test_homogeneous_rejected(self, tmp_path, monkeypatch):
        # gamma = inf is refused before any environment is sampled or any job runs
        cfg = replace(_cfg(tmp_path), gamma=math.inf)

        def refused(*args):
            pytest.fail("the bound suite ran a job on the all-ones box")

        monkeypatch.setattr(experiments, "_bound_job", refused)
        monkeypatch.setattr(experiments, "sample_environment", refused)
        with pytest.raises(ValidationError, match=r"finite gamma, got gamma=inf$"):
            run_bound_suite(cfg)
        assert not Path(cfg.directory).exists()

    def test_empty_ensemble_rejected(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg.n_environments = 0
        with pytest.raises(ValidationError):
            run_bound_suite(cfg)


# ---------------------------------------------------------------------------
# static guard: every config key is read by a run
# ---------------------------------------------------------------------------

# the plumbing that reads every key without running anything
_CONFIG_PLUMBING = {"parse_config", "config_to_text", "config_hash", "load_config", "write_manifest"}


def _run_reads(source: str) -> set[str]:
    """The ``cfg.<name>`` reads of the module-level run functions of ``source``.

    A call of ``cfg.window()`` reads what ``ExperimentConfig.window`` reads
    off ``self``; the reads inside ``validate`` and ``window`` themselves, and
    in the config-text plumbing, do not count.
    """
    tree = ast.parse(source)

    def reads(node, name):
        return {
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == name
        }

    window = next(
        f
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "ExperimentConfig"
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "window"
    )
    found = set()
    for f in tree.body:
        if isinstance(f, ast.FunctionDef) and f.name not in _CONFIG_PLUMBING:
            found |= reads(f, "cfg")
    if "window" in found:
        found |= reads(window, "self")
    return found


def test_every_config_key_is_read_by_a_run():
    # a key that no run reads is an option that does nothing
    read = _run_reads(Path(experiments.__file__).read_text())
    assert sorted(f.name for f in fields(ExperimentConfig) if f.name not in read) == []


def test_an_unread_config_key_is_found():
    source = (
        "class ExperimentConfig:\n"
        "    def window(self):\n"
        "        return self.lo, self.hi\n"
        "    def validate(self):\n"
        "        return self.unread\n"
        "def config_to_text(cfg):\n"
        "    return cfg.also_unread\n"
        "def run(cfg):\n"
        "    return cfg.gamma, cfg.window()\n"
    )
    assert _run_reads(source) == {"gamma", "window", "lo", "hi"}


def test_sections_name_each_config_field_once():
    # the sections hold the key names; each key's type is its field's annotation
    names = [key for keys in experiments._SECTIONS.values() for key in keys]
    assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))
    assert {experiments._TYPES[name] for name in names} == {int, float, str, tuple[int, ...]}
