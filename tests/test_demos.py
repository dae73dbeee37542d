"""The demo scripts and configs under ``demos/`` run and parse as shipped."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcmwalk.experiments import load_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _with_src_path() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.cfg")), ids=lambda p: p.name)
def test_demo_config_is_valid(path):
    cfg = load_config(path)  # parses and validates
    if path.name == "annealed_small_gamma.cfg":
        assert cfg.gamma < 1.0  # the exploratory heavy-tail preset


@pytest.mark.parametrize("path", sorted(DEMOS.glob("0*.py")), ids=lambda p: p.name)
def test_demo_script_runs(path, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        env=_with_src_path(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
