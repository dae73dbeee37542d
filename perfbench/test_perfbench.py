"""Tests of the benchmark's own code: span arithmetic, counters, checks.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_workloads  # noqa: E402
from bench_spans import Span, Tracer, layer_metrics, layer_self_times, make_hooks, self_times  # noqa: E402

import rcmwalk  # noqa: E402
from rcmwalk import (  # noqa: E402
    BoxGeometry,
    UniformizationCache,
    default_time_grid,
    heatkernel,
    poisson_truncation_k,
    return_prob_curve_exact,
    sample_environment,
)


def _tree():
    # cli.main [0, 10]
    #   heatkernel curve [1, 6]
    #     walk assembly [2, 4]
    #       lattice table [2.5, 3]
    #   lattice table [7, 9]
    return [
        Span("experiments.main", "experiments", 0.0, 10.0),
        Span("heatkernel.return_prob_curve_exact", "heatkernel", 1.0, 6.0, parent=0, counts={"matvecs": 40}),
        Span("walk.transition_matrix", "walk", 2.0, 4.0, parent=1, counts={"nnz": 10, "n": 4, "matrix_bytes": 100}),
        Span("lattice.table.all_coords", "lattice", 2.5, 3.0, parent=2),
        Span("lattice.table.neighbor_table", "lattice", 7.0, 9.0, parent=0),
    ]


def test_self_times_subtract_direct_children_only():
    assert self_times(_tree()) == pytest.approx([3.0, 3.0, 1.5, 0.5, 2.0])
    layers = layer_self_times(_tree())
    assert layers["experiments"] == pytest.approx(3.0)
    assert layers["heatkernel"] == pytest.approx(3.0)
    assert layers["walk"] == pytest.approx(1.5)
    assert layers["lattice"] == pytest.approx(2.5)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_layer_metrics_on_synthetic_tree():
    m = layer_metrics(_tree())
    assert m["heatkernel.curve_s"] == pytest.approx(3.0)  # 5 s span minus the 2 s assembly under it
    assert m["walk.assembly_s"] == pytest.approx(1.5)  # its table build excluded
    assert m["lattice.tables_s"] == pytest.approx(2.5)
    assert m["lattice.table_builds"] == 2
    assert m["heatkernel.matvecs"] == 40
    assert m["heatkernel.matvec_us"] == pytest.approx(1e6 * 3.0 / 40)
    assert m["heatkernel.bytes_per_matvec"] == 100 + 16 * 4
    assert m["walk.assembly_nnz"] == 10


def test_traced_matvecs_equal_uniformization_length():
    env = sample_environment(BoxGeometry(2, 13), 2.0, 5)
    grid = default_time_grid(2.0, 30.0, 6)
    original = rcmwalk.return_prob_curve_exact
    table = BoxGeometry.__dict__["all_coords"]
    tracer = Tracer(make_hooks(poisson_truncation_k))
    with tracer:
        assert heatkernel.return_prob_curve_exact is not original
        curve = heatkernel.return_prob_curve_exact(env, grid, box_radius=12)
    assert heatkernel.return_prob_curve_exact is original and rcmwalk.return_prob_curve_exact is original
    assert BoxGeometry.__dict__["all_coords"] is table

    cache = UniformizationCache(env, box_radius=12)
    for t in grid:
        cache.return_prob(t)
        cache.survival(t)
    m = layer_metrics(tracer.spans)
    assert m["heatkernel.matvecs"] == len(cache.a) - 1
    assert np.array_equal(curve.p, return_prob_curve_exact(env, grid, box_radius=12).p)
    assert m["lattice.table_builds"] > 0 and m["walk.assembly_nnz"] == cache.chain.P.nnz


TINY_CONFIG = """
[model]
d = 2
gamma = 2.0
[grid]
t_min = 1.0
t_max = 20.0
points_per_decade = 12
window_t_min = 2.0
[ensemble]
n_environments = 2
"""


@pytest.fixture()
def tiny(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    workload = bench_workloads.ExponentWorkload(cfg, None)
    out = tmp_path / "out"
    out.mkdir()
    return workload, out


def test_clean_run_has_no_failures(tiny):
    workload, out = tiny
    tally = bench_workloads.Tally()
    outcome = workload.run(7, out)
    workload.check(7, out, outcome, tally)
    workload.check_once(7, out, tally)
    assert tally.attempted > 0 and tally.failed == 0, tally.notes
    again = workload.run(7, out)
    assert workload.same_outputs(outcome, again)[0]


def test_corrupted_output_makes_fail_frac_nonzero(tiny):
    workload, out = tiny
    outcome = workload.run(7, out)
    curves = out / "curves.csv"
    lines = curves.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = "1.5"  # p above 1
    lines[3] = ",".join(fields)
    curves.write_text("\n".join(lines) + "\n")
    tally = bench_workloads.Tally()
    workload.check(7, out, outcome, tally)
    assert tally.failed >= 1 and tally.fail_frac > 0

    corrupted = bench_workloads.Outcome(ok=True, hashes={**outcome.hashes, "curves.csv": "0" * 64})
    assert not workload.same_outputs(outcome, corrupted)[0]


def test_failed_entry_point_fails_every_job(tiny, tmp_path):
    workload, out = tiny
    tally = bench_workloads.Tally()
    workload.check(7, out, bench_workloads.Outcome(ok=False, error="boom"), tally)
    assert tally.failed == tally.attempted == 2


def test_unseeded_columns_compare_by_value():
    bounds = bench_workloads.WORKLOADS["bounds"]
    row = {"N": "32", "Lambda1": "0.2000676017675087", "pass": "True", "residual": "1e-12", "iterations": "102"}
    first = bench_workloads.Outcome(ok=True, hashes={"spectral_report.csv": "a"}, rows={"spectral_report.csv": [row]})
    drift = dict(row, Lambda1="0.2000676017675082", residual="3e-12", iterations="112")
    second = bench_workloads.Outcome(ok=True, hashes={"spectral_report.csv": "b"}, rows={"spectral_report.csv": [drift]})
    same, _, known = bounds.same_outputs(first, second)
    assert same and known
    flipped = dict(drift, **{"pass": "False"})
    third = bench_workloads.Outcome(ok=True, hashes={"spectral_report.csv": "c"}, rows={"spectral_report.csv": [flipped]})
    assert not bounds.same_outputs(first, third)[0]
