import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from rcmwalk import (
    BoxGeometry,
    UniformizationCache,
    homogeneous_environment,
    lambda1,
    lambda1_floor_check,
    prescribed_spec,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)
from rcmwalk.cli import main

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
N_list = 8

[ensemble]
n_environments = 2
n_paths = 200
master_seed = 42

[output]
directory = {out}
"""


class TestExact:
    def test_homog_matches_dense_oracle(self, tmp_path, capsys):
        code = main(["exact", "--t", "1", "--homog", "--d", "2", "--N", "2", "--out", str(tmp_path)])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        env = homogeneous_environment(2, 3)
        cache = UniformizationCache(env, 2)
        L = cache.chain.P.toarray() - np.eye(25)
        oracle = expm(L)[cache.chain.origin, cache.chain.origin]
        assert abs(printed - oracle) <= 1e-10
        assert (tmp_path / "exact_curve.csv").is_file()
        assert (tmp_path / "manifest.txt").is_file()

    @pytest.mark.parametrize("tol", ["1", "inf", "0", "nan"])
    def test_tol_outside_unit_interval_rejected(self, tmp_path, capsys, tol):
        argv = ["exact", "--t", "40", "--homog", "--d", "2", "--N", "40", "--tol", tol, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "tolerance must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "exact_curve.csv").exists()

    def test_needs_environment(self, tmp_path):
        assert main(["exact", "--t", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, capsys, t):
        assert main(["exact", f"--t={t}", "--homog", "--d", "2", "--N", "4", "--out", str(tmp_path)]) == 2
        assert "t grid must be a nonempty, finite" in capsys.readouterr().err
        assert not (tmp_path / "exact_curve.csv").exists()

    @pytest.mark.parametrize("command", ["exact", "simulate"])
    @pytest.mark.parametrize("per_decade", ["0", "-3"])
    def test_points_per_decade_below_two_rejected(self, tmp_path, capsys, command, per_decade):
        argv = [command, "--homog", "--d", "2", "--N", "4", "--points-per-decade", per_decade, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "points per decade must be >= 2" in capsys.readouterr().err


class TestGenerateDecompose:
    def test_pipeline(self, tmp_path):
        gen = tmp_path / "envs"
        assert main(["generate", "--d", "2", "--N", "8", "--gamma", "2.0", "--count", "2",
                     "--seed", "5", "--out", str(gen)]) == 0
        env_file = gen / "env_0000.rcmenv"
        assert env_file.is_file()
        dec = tmp_path / "dec"
        assert main(["decompose", "--env", str(env_file), "--p", "0.8", "--out", str(dec)]) == 0
        lines = (dec / "decomposition.csv").read_text().splitlines()
        assert lines[0] == "site_index,x_1,x_2,label"
        assert len(lines) == 17 * 17 + 1
        assert (dec / "holes_report.csv").is_file()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_generate_needs_one_environment(self, tmp_path, capsys, count):
        argv = ["generate", "--d", "2", "--N", "4", "--gamma", "2.0", "--count", count, "--out", str(tmp_path / "g")]
        assert main(argv) == 2
        assert "--count >= 1" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_generate_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["generate", "--d", "2", "--N", "6", "--gamma", "1.5", "--seed", "9", "--out", str(out)])
        assert (a / "env_0000.rcmenv").read_bytes() == (b / "env_0000.rcmenv").read_bytes()


    @pytest.mark.parametrize("p, warned", [("0.45", True), ("0.95", False)])
    def test_subcritical_density_warns(self, tmp_path, capsys, p, warned):
        argv = ["decompose", "--d", "2", "--N", "8", "--gamma", "2", "--p", p, "--out", str(tmp_path)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert ("at or below the d=2 percolation threshold 0.5" in err) == warned
        assert warned or "warning" not in err


class TestSpectrumSimulate:
    def test_spectrum_schema(self, tmp_path, capsys):
        gen = tmp_path / "envs"
        main(["generate", "--d", "2", "--N", "9", "--gamma", "2.0", "--seed", "3", "--out", str(gen)])
        out = tmp_path / "spec"
        assert main(["spectrum", "--env", str(gen / "env_0000.rcmenv"), "--out", str(out)]) == 0
        header = (out / "spectral_report.csv").read_text().splitlines()[0]
        assert header == "gamma,d,N,xi_hat,lambda,Lambda1,bound_m_N,pass,residual,iterations"
        assert "Lambda1" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [4, 12])  # dense route (81 sites) and shift-invert (625)
    def test_spectrum_is_the_floor_check(self, tmp_path, capsys, n):
        out = tmp_path / "spec"
        argv = ["spectrum", "--d", "2", "--N", str(n), "--gamma", "2.0", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        env = sample_environment(BoxGeometry(2, n + 1), 2.0, 3)
        xi = threshold_for_density(2.0, 0.95)
        spec = prescribed_spec(env, strong_cluster(env, xi), n, mu=0.1)
        # Lambda1 and its eigensolve figures from lambda1, the verdict from the certificate
        rep = lambda1(spec, tol=1e-10)
        cert = lambda1_floor_check(spec, tol=1e-10)
        expected = [2.0, 2, n, xi, spec.lam, rep.Lambda1, cert.m_N, cert.passed, rep.residual, rep.iterations]
        row = (out / "spectral_report.csv").read_text().splitlines()[1]
        assert row == ",".join(str(v) for v in expected)
        assert f"pass = {cert.passed})" in capsys.readouterr().out

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_killing_rate_rejected(self, tmp_path, capsys, lam):
        # a nan rate died in the factorization, an infinite one in ARPACK (exit 3)
        argv = ["spectrum", "--d", "2", "--N", "6", "--gamma", "2", "--lam", lam, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "killing rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "spectral_report.csv").exists()

    def test_failing_floor_takes_one_eigensolve(self, tmp_path, monkeypatch):
        # the printed Lambda1 also settles the floor's fallback
        from rcmwalk import OperatorSpec, spectral

        calls = []
        eigsh = spectral.eigsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", counting)
        out = tmp_path / "spec"
        argv = ["spectrum", "--d", "2", "--N", "32", "--gamma", "2.0", "--seed", "7", "--lam", "0", "--out", str(out)]
        assert main(argv) == 0
        assert len(calls) == 1
        env = sample_environment(BoxGeometry(2, 33), 2.0, 7)
        xi = threshold_for_density(2.0, 0.95)
        spec = OperatorSpec(env=env, decomp=strong_cluster(env, xi), box_radius=32, lam=0.0, mu=0.1)
        rep = lambda1(spec, tol=1e-10)
        cert = lambda1_floor_check(spec, tol=1e-10)
        assert cert.method == "eigsh" and not cert.passed
        expected = [2.0, 2, 32, xi, 0.0, rep.Lambda1, cert.m_N, cert.passed, rep.residual, rep.iterations]
        row = (out / "spectral_report.csv").read_text().splitlines()[1]
        assert row == ",".join(str(v) for v in expected)

    def test_simulate_schema(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--homog", "--d", "2", "--N", "6", "--t-min", "1", "--t-max", "5",
                     "--n-paths", "100", "--seed", "3", "--out", str(out)]) == 0
        header = (out / "trajectory_summary.csv").read_text().splitlines()[0]
        assert header == "t,estimate,stderr,n_paths,seed"

    def test_simulate_dump_paths(self, tmp_path):
        out = tmp_path / "sim2"
        assert main(["simulate", "--homog", "--d", "2", "--N", "6", "--t-min", "1", "--t-max", "4",
                     "--n-paths", "50", "--seed", "3", "--dump-paths", "--out", str(out)]) == 0
        assert (out / "paths.npz").is_file()


class TestConfigCommands:
    def test_exponent_run(self, tmp_path, capsys):
        out = tmp_path / "expo"
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG.format(out=out))
        assert main(["exponent", "--config", str(cfg)]) == 0
        assert (out / "exponent_report.csv").is_file()
        assert (out / "manifest.txt").is_file()
        assert "quenched slope" in capsys.readouterr().out

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["exponent", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bounds_run(self, tmp_path, capsys):
        out = tmp_path / "bnd"
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG.format(out=out))
        assert main(["bounds", "--config", str(cfg)]) == 0
        header = (out / "spectral_report.csv").read_text().splitlines()[0]
        assert header == "gamma,d,N,xi_hat,lambda,bound_m_N,pass,neg_pivots,iterations"
        assert "pass rate" in capsys.readouterr().out
        # the report shows the factorization and eigensolve fallbacks and the
        # survival's Lanczos steps and the exit tail's half products next to the pass rates
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "  pass_rate_lambda1_floor=" in text
        assert "  floor_inertia_fallbacks=0\n  floor_eigsh_fallbacks=0\n" in text
        assert re.search(r"^  survival_lanczos_steps=\d+\n  exit_tail_products=[1-9]\d*$", text, re.M)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["exact", "--frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["generate", "decompose", "simulate", "exact", "spectrum", "report"])
    @pytest.mark.parametrize("flag", [["--config", "demo.cfg"], ["--threads", "1"]])
    def test_config_flags_only_where_used(self, command, flag):
        # only the config-driven commands read a config or start workers
        with pytest.raises(SystemExit) as err:
            main([command, *flag])
        assert err.value.code == 2

    def test_report_takes_only_out(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report", "--out", str(tmp_path), "--seed", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["exponent", "bounds"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG.format(out=tmp_path / "out"))
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(cfg), "--threads", threads])
        assert err.value.code == 2
        assert "worker" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReport:
    def test_verifies_hashes(self, tmp_path, capsys):
        out = tmp_path / "expo"
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG.format(out=out))
        main(["exponent", "--config", str(cfg)])
        assert main(["report", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "ok" in text
        assert (tmp_path / "report.txt").is_file()
        # tamper with a file: the report flags it
        (out / "curves.csv").write_text("tampered\n")
        main(["report", "--out", str(tmp_path)])
        assert "HASH-MISMATCH" in capsys.readouterr().out

    def test_no_manifests(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2


def test_import_leaves_out_scipy_stats_and_integrate():
    # both cost most of the CLI's start-up time and no command path needs them at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, rcmwalk.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
