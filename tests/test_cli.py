import math
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
    EnsembleResult,
    UniformizationCache,
    derive_environment_seeds,
    lambda1,
    lambda1_floor_check,
    load_environment,
    prescribed_spec,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)
from rcmwalk import walk
from rcmwalk.cli import main
from rcmwalk.experiments import write_manifest

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
        code = main(["exact", "--t", "1", "--gamma", "inf", "--d", "2", "--N", "2", "--out", str(tmp_path)])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        env = sample_environment(BoxGeometry(2, 3), math.inf, 0)
        cache = UniformizationCache(env, 2)
        L = cache.chain.P.toarray() - np.eye(25)
        oracle = expm(L)[cache.chain.origin, cache.chain.origin]
        assert abs(printed - oracle) <= 1e-10
        assert (tmp_path / "exact_curve.csv").is_file()
        assert (tmp_path / "manifest.txt").is_file()

    @pytest.mark.parametrize("tol", ["1", "inf", "0", "nan"])
    def test_tol_outside_unit_interval_rejected(self, tmp_path, capsys, tol):
        argv = ["exact", "--t", "40", "--gamma", "inf", "--d", "2", "--N", "40", "--tol", tol, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "tolerance must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "exact_curve.csv").exists()

    @pytest.mark.parametrize("argv", [["exact", "--t", "1"], ["generate", "--gamma", "2.0"]], ids=lambda a: a[0])
    def test_homog_flag_retired(self, tmp_path, capsys, argv):
        # the all-ones box is --gamma inf
        with pytest.raises(SystemExit) as err:
            main([*argv, "--homog", "--d", "2", "--N", "2", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "unrecognized arguments: --homog" in capsys.readouterr().err

    def test_needs_environment(self, tmp_path):
        assert main(["exact", "--t", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, capsys, t):
        assert main(["exact", f"--t={t}", "--gamma", "inf", "--d", "2", "--N", "4", "--out", str(tmp_path)]) == 2
        assert "t grid must be a nonempty, finite" in capsys.readouterr().err
        assert not (tmp_path / "exact_curve.csv").exists()

    @pytest.mark.parametrize("command", ["exact", "simulate"])
    @pytest.mark.parametrize("per_decade", ["0", "-3"])
    def test_points_per_decade_below_two_rejected(self, tmp_path, capsys, command, per_decade):
        argv = [command, "--gamma", "inf", "--d", "2", "--N", "4", "--points-per-decade", per_decade]
        argv += ["--out", str(tmp_path)]
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

    def test_generate_all_ones(self, tmp_path):
        # --gamma inf samples the all-ones box under the first derived seed, like any other law
        assert main(["generate", "--d", "2", "--N", "4", "--gamma", "inf", "--seed", "5", "--out", str(tmp_path)]) == 0
        env = load_environment(tmp_path / "env_0000.rcmenv")
        assert env.gamma == math.inf and env.seed == int(derive_environment_seeds(5, 1)[0])
        assert np.array_equal(env.omega, np.ones(env.geometry.n_bonds))

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
        assert main(["simulate", "--gamma", "inf", "--d", "2", "--N", "6", "--t-min", "1", "--t-max", "5",
                     "--n-paths", "100", "--seed", "3", "--out", str(out)]) == 0
        header = (out / "trajectory_summary.csv").read_text().splitlines()[0]
        assert header == "t,estimate,stderr,n_paths,seed"

    def test_simulate_dump_paths(self, tmp_path):
        out = tmp_path / "sim2"
        assert main(["simulate", "--gamma", "inf", "--d", "2", "--N", "6", "--t-min", "1", "--t-max", "4",
                     "--n-paths", "50", "--seed", "3", "--dump-paths", "--out", str(out)]) == 0
        assert (out / "paths.npz").is_file()

    def test_dump_is_the_ensemble_behind_the_estimate(self, tmp_path, monkeypatch):
        # one ensemble is drawn, and the dumped positions give the written estimate bit for bit
        drawn = []
        monkeypatch.setattr(walk, "EnsembleResult", lambda *a: drawn.append(a) or EnsembleResult(*a))
        out = tmp_path / "sim"
        assert main(["simulate", "--gamma", "2", "--d", "2", "--N", "6", "--t-min", "1", "--t-max", "20",
                     "--n-paths", "300", "--seed", "3", "--dump-paths", "--out", str(out)]) == 0
        assert len(drawn) == 1
        paths = np.load(out / "paths.npz")
        origin = BoxGeometry(2, 7).origin
        p = (paths["site_at"] == origin).mean(axis=0)
        rows = [line.split(",") for line in (out / "trajectory_summary.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == paths["t"].tolist()
        assert [float(r[1]) for r in rows] == p.tolist()


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

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        # it was a UnicodeDecodeError traceback
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe[model]\n")
        assert main(["exponent", "--config", str(cfg)]) == 2
        assert f"error: config file {cfg} is not UTF-8 text" in capsys.readouterr().err

    def test_bounds_run(self, tmp_path, capsys):
        out = tmp_path / "bnd"
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(FAST_CFG.format(out=out))
        assert main(["bounds", "--config", str(cfg)]) == 0
        header = (out / "spectral_report.csv").read_text().splitlines()[0]
        assert header == "gamma,d,N,xi_hat,lambda,bound_m_N,pass,neg_pivots,iterations"
        assert "pass rate" in capsys.readouterr().out
        # the report shows the factorization and eigensolve fallbacks, the
        # survival's Lanczos steps and Ritz pairs and the exit tail's half products next to the pass rates
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "  pass_rate_lambda1_floor=" in text
        assert "  floor_inertia_fallbacks=0\n  floor_eigsh_fallbacks=0\n" in text
        assert re.search(
            r"^  survival_lanczos_steps=[1-9]\d*\n  survival_ritz_pairs=[1-9]\d*\n  exit_tail_products=[1-9]\d*$", text, re.M
        )

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
        # tamper with one file and delete another: the report flags both, in full, and exits 2
        (out / "curves.csv").write_text("tampered\n")
        (out / "exponent_fits.csv").unlink()
        (tmp_path / "report.txt").unlink()
        assert main(["report", "--out", str(tmp_path)]) == 2
        text = capsys.readouterr().out
        statuses = ("curves.csv: HASH-MISMATCH", "exponent_fits.csv: MISSING", "exponent_report.csv: ok")
        assert all(f"  {status}\n" in text for status in statuses)
        assert text.startswith((tmp_path / "report.txt").read_text())

    @pytest.mark.parametrize(
        "body, problem",
        [
            (b"command=x\nfile=foo.csv\n", "file entry without ' sha256:<digest>'"),
            (b"command=x\ncomment=\xff\n", "manifest is not UTF-8 text"),
        ],
        ids=["no-digest", "not-utf8"],
    )
    def test_damaged_manifest_names_its_line(self, tmp_path, capsys, body, problem):
        # a damaged manifest was a ValueError or UnicodeDecodeError traceback
        mpath = tmp_path / "run" / "manifest.txt"
        mpath.parent.mkdir()
        mpath.write_bytes(body)
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert f"error: {mpath}, line 2: {problem}" in capsys.readouterr().err

    def test_shows_every_manifest_line_but_the_version_and_the_clock(self, tmp_path, capsys):
        sampled = ["--gamma", "2", "--d", "2", "--N", "6", "--seed", "3"]
        assert main(["decompose", *sampled, "--out", str(tmp_path / "dec")]) == 0
        assert main(["simulate", *sampled, "--n-paths", "40", "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        for run in ("dec", "sim"):
            manifest = (tmp_path / run / "manifest.txt").read_text().splitlines()
            shown = [line for line in manifest if not line.startswith(("manifest_version=", "package=", "elapsed_s="))]
            shown = [line.split()[0][len("file=") :] + ": ok" if line.startswith("file=") else line for line in shown]
            assert f"run: {tmp_path / run}\n" + "".join(f"  {line}\n" for line in shown) in text
        for line in ("  xi=", "  cluster_sites=", "  holes=", "  n_paths=40\n"):
            assert line in text
        assert "elapsed_s=" not in text and "package=" not in text

    def test_no_manifests(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2


START_UP = {
    "package": "import rcmwalk",
    "cli": "import rcmwalk.cli",
    "version": "from rcmwalk.cli import main\ntry: main(['--version'])\nexcept SystemExit: pass",
    "help": "from rcmwalk.cli import main\ntry: main(['--help'])\nexcept SystemExit: pass",
    "report": "from rcmwalk.cli import main\nassert main(['report', '--out', sys.argv[1]]) == 0",
}


def _fresh_modules(code: str, out: Path) -> list[str]:
    """``sys.modules`` after a fresh interpreter runs ``code``, which reads ``out`` as ``sys.argv[1]``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _loaded(modules: list[str], left_out: tuple[str, ...]) -> list[str]:
    """The ``modules`` that are one of ``left_out`` or a submodule of one."""
    return [m for m in modules if m in left_out or m.startswith(tuple(f"{name}." for name in left_out))]


def _one_file_run(root: Path) -> None:
    root.mkdir(exist_ok=True)
    (root / "a.csv").write_text("x\n1\n")
    write_manifest(root, "generate", None, ["a.csv"], 0.0)


@pytest.mark.parametrize("code", START_UP.values(), ids=START_UP.keys())
def test_start_up_loads_no_scipy(tmp_path, code):
    # nor NumPy: of a fresh start-up, SciPy's modules take about 0.3 s and NumPy about 0.07 s
    _one_file_run(tmp_path)
    assert _loaded(_fresh_modules(code, tmp_path), ("numpy", "scipy")) == []


SAMPLED = "'--d', '2', '--N', '4', '--gamma', '2', '--out', sys.argv[1]"
COMMANDS = {
    "generate": (f"main(['generate', {SAMPLED}])", ("scipy",)),
    "decompose": (f"main(['decompose', {SAMPLED}])", ("rcmwalk.heatkernel", "rcmwalk.spectral", "scipy.special")),
}


@pytest.mark.parametrize("call, left_out", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_loads_only_what_it_runs(tmp_path, call, left_out):
    modules = _fresh_modules(f"from rcmwalk.cli import main\nassert {call} == 0", tmp_path)
    assert (tmp_path / "manifest.txt").is_file()
    assert _loaded(modules, left_out) == []


OS_ERRORS = {
    # mkdir under a regular file: NotADirectoryError
    "out-under-a-file": (["generate", "--d", "2", "--N", "3", "--gamma", "2", "--out", "{tmp}/file/x"], "{tmp}/file/x"),
    # an --env that is a directory: IsADirectoryError
    "env-is-a-directory": (["exact", "--t", "5", "--out", "{tmp}/x", "--env", "{tmp}/run"], "{tmp}/run"),
    # a directory where the report goes: IsADirectoryError
    "report-txt-is-a-directory": (["report", "--out", "{tmp}/run"], "{tmp}/run/report.txt"),
}


@pytest.mark.parametrize("argv, named", OS_ERRORS.values(), ids=OS_ERRORS.keys())
def test_os_error_on_a_path_exits_two(tmp_path, capsys, argv, named):
    # each was a traceback with exit 1
    (tmp_path / "file").write_text("")
    _one_file_run(tmp_path / "run")
    (tmp_path / "run" / "report.txt").mkdir()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and f"'{named.format(tmp=tmp_path)}'" in err
