import hashlib
from pathlib import Path

import numpy as np
import pytest

from rcmwalk import ValidationError
from rcmwalk.experiments import (
    ExperimentConfig,
    config_hash,
    config_to_text,
    exploratory_small_gamma_config,
    load_config,
    parse_config,
    run_bound_suite,
    run_exponent,
    save_config,
)

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


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = _cfg(tmp_path)
        assert parse_config(config_to_text(cfg)) == cfg
        path = tmp_path / "c.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(FAST_CFG.format(out=tmp_path).replace("t_min", "t_mim"))

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


class TestQuenchedRunner:
    def test_report_and_files(self, tmp_path):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg)
        assert rep.kind == "quenched"
        assert len(rep.per_env) == 3
        assert len(rep.quenched) == 1
        out = Path(cfg.directory)
        for name in ("curves.csv", "exponent_fits.csv", "exponent_report.csv", "manifest.txt"):
            assert (out / name).is_file()
        header = (out / "exponent_report.csv").read_text().splitlines()[0]
        assert header == "gamma,d,N,t_min,t_max,slope,ci_low,ci_high,n_envs"

    def test_byte_determinism(self, tmp_path):
        rep1 = run_exponent(_cfg(tmp_path, "a"))
        rep2 = run_exponent(_cfg(tmp_path, "b"))
        for name in ("curves.csv", "exponent_fits.csv", "exponent_report.csv"):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2
        assert rep1.config_hash != rep2.config_hash  # directories differ

    def test_threads_do_not_change_output(self, tmp_path):
        run_exponent(_cfg(tmp_path, "s"), threads=1)
        run_exponent(_cfg(tmp_path, "t"), threads=2)
        assert (tmp_path / "s" / "curves.csv").read_bytes() == (tmp_path / "t" / "curves.csv").read_bytes()

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


class TestAnnealedRunner:
    def test_average_then_fit(self, tmp_path):
        cfg = _cfg(tmp_path)
        rep = run_exponent(cfg, annealed=True)
        assert rep.kind == "annealed"
        assert len(rep.annealed) == 1
        assert len(rep.quenched) == 1
        out = Path(cfg.directory)
        assert (out / "annealed_curve.csv").is_file()
        assert (out / "annealed_report.csv").is_file()

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
        q = rep.quenched[0]
        a = rep.annealed[0]
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
        header = (out / "spectral_report.csv").read_text().splitlines()[0]
        assert header == "gamma,d,N,xi_hat,lambda,Lambda1,bound_m_N,pass,residual,iterations"

    def test_homogeneous_rejected(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg.homogeneous = True
        with pytest.raises(ValidationError):
            run_bound_suite(cfg)

    def test_empty_ensemble_rejected(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg.n_environments = 0
        with pytest.raises(ValidationError):
            run_bound_suite(cfg)


def test_exploratory_preset_is_valid():
    cfg = exploratory_small_gamma_config()
    cfg.validate()
    assert cfg.gamma < 1.0
