"""rcmwalk benchmark: three workloads through the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A run repeats its workload on fresh inputs derived from the seed
while the next repeat fits in ``--seconds``, then repeats the first inputs
once more to check that the output bytes are reproduced.  Every repeat's
outputs are checked outside the timed region.  The last line printed is one
JSON object: end-to-end metrics (medians over the repeats) with
``--trace 0``, per-layer metrics from one traced repeat with ``--trace 1``.

Why each workload exists (all single-process, ``threads=1``):

- ``quenched_d2``: ``rcmwalk exponent`` on the values of
  ``demos/quenched_d2_gamma2.cfg`` (d=2, gamma=2, t <= 400, 231k-site box).
  The long horizon puts about 85% of the time in the uniformization
  matvecs, so a change to the exact-kernel engine shows here; lattice
  tables and operator assembly take most of the rest.
- ``bounds``: ``rcmwalk bounds`` on the values of ``demos/bounds_default.cfg``
  (N = 32, 64).  Shift-invert ``eigsh`` with ``splu`` takes about 60% of
  the time, then the Monte Carlo exit-tail ensemble and the penalized
  uniformization.  The only workload that exercises ``spectral``, and one
  that a matvec or persistence change should leave alone.
- ``archive``: sample, save, load, decompose at p = 0.55, write the
  decomposition CSV, then the effective conductances at every hole's anchor
  (about 8,100 hole solves), at d=2, N=241.  The only workload that
  exercises persistence (pure-Python CRC-64) and the hole solves in ``walk``.

Each repeat runs fewer environments than the demo configs (4, 3 and 1):
every environment does about the same work, and short repeats let a run
take the median of several within the time budget of the whole benchmark.

Seed-commit reference, on a shared 2-vCPU virtual machine (300 MB L3) whose
single-thread speed drifts by up to 25% over a few seconds.  Full demo
configs, one run each:
``rcmwalk exponent`` took 7.6 s on quenched_d2_gamma2.cfg and 23.3 s on
quenched_d5_smallgamma.cfg (602 MB peak RSS), ``rcmwalk bounds`` 22.6 s
(35.8 s CPU), the archive steps on 4 environments 18.3 s.  This benchmark,
``--seconds 30``, medians over seeds 301-310 (spread = quartile distance
over median):

    workload     wall_s        cpu_s         peak_rss_mb   setup_s
    quenched_d2  3.30 s (0.11) 3.30 s (0.12) 224 MB (0.01) 1.32 s (0.25)
    bounds       3.35 s (0.07) 5.18 s (0.04) 138 MB (0.00) 1.53 s (0.16)
    archive      3.82 s (0.12) 4.55 s (0.11) 233 MB (0.02) 1.45 s (0.15)

One traced repeat each: heatkernel holds 2.24 of 2.67 s self time on
quenched_d2 (2,248 matvecs at 1.0 ms), spectral 2.29 of 3.09 s on bounds
(6 eigensolves, 712 shift-invert solves), and on archive save + load take
1.15 s and the 8,113 hole solves 0.77 s of 2.65 s.  A span costs about
3 us (about 1% of an archive repeat); the traced-minus-untraced difference is
within the host's drift.  Output bytes were identical across repeats except
the known unseeded columns of bounds' spectral_report.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_workloads
from bench_workloads import repeat_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------------------
# set-up, repeats, trace
# ---------------------------------------------------------------------------


def setup_seconds(workload, out: Path) -> float:
    """Median over samples of a fresh interpreter importing the CLI, plus input preparation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rcmwalk.cli"], cwd=ROOT, env=env, check=True)
        prepare(workload, out)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def prepare(workload, out: Path) -> None:
    """The inputs of one repeat: an empty output directory and the validated config."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if hasattr(workload, "cfg"):
        workload.cfg()


class Repeats:
    """Timed repeats of one workload, each checked after it ran.

    Repeat ``r`` runs on the inputs of ``repeat_seed(seed, r)``, so one run
    covers several inputs.  Running ``r = 0`` again must reproduce its output
    bytes.
    """

    def __init__(self, workload, seed: int, out: Path, tally):
        self.workload, self.seed, self.out, self.tally = workload, seed, out, tally
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.first = None
        self.shape: dict = {}
        self.known: set[str] = set()  # differences the seed commit already had

    def run(self, r: int, tracer=None) -> None:
        seed = repeat_seed(self.seed, r)
        prepare(self.workload, self.out)
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = self.workload.run(seed, self.out)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.tally.guarded(f"checks of repeat {r}", self.workload.check, seed, self.out, outcome, self.tally)
        if r != 0:
            return
        if self.first is None:
            self.first = outcome
            self.tally.guarded("checks once per run", self.workload.check_once, seed, self.out, self.tally)
            self.shape = self.tally.guarded("input shape", self.workload.shape, seed, self.out, outcome) or {}
        else:
            same, detail, known = self.workload.same_outputs(self.first, outcome)
            self.tally.op("output bytes identical across repeats", same, detail)
            self.known.update(known)

    def info(self) -> dict:
        return {"repeats": len(self.walls), "walls_s": self.walls, "known_nondeterminism": sorted(self.known), **self.shape}


def measure(workload, seed: int, seconds: float, out: Path, tally) -> tuple[dict, dict]:
    """Repeats on fresh inputs while the next one fits in ``seconds``, then the first inputs again."""
    reps = Repeats(workload, seed, out, tally)
    started = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - started + statistics.median(reps.walls) <= seconds:
        reps.run(r)
        r += 1
    reps.run(0)
    metrics = {
        "wall_s": statistics.median(reps.walls),
        "cpu_s": statistics.median(reps.cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, reps.info()


def traced(workload, seed: int, out: Path, tally) -> tuple[dict, dict]:
    """Untraced and traced repeats in turn on the same inputs.

    Per-layer metrics come from the first traced repeat; the overhead is the
    median traced time minus the median untraced time.
    """
    import bench_spans
    from rcmwalk.heatkernel import poisson_truncation_k

    reps = Repeats(workload, seed, out, tally)
    hooks = bench_spans.make_hooks(poisson_truncation_k)
    tracers = [bench_spans.Tracer(hooks) for _ in range(2)]
    for tracer in tracers:
        reps.run(0)
        reps.run(0, tracer)
    reps.run(0)
    metrics = bench_spans.layer_metrics(tracers[0].spans)
    overhead = statistics.median(reps.walls[1::2]) - statistics.median(reps.walls[0::2])
    metrics["trace_overhead_s"] = overhead
    errors = sorted(set().union(*(t.hook_errors for t in tracers)))
    return metrics, {**reps.info(), "spans": len(tracers[0].spans), "trace_hook_errors": errors}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _cache_note(matrix_mb: float | None, caches: dict[str, str]) -> str | None:
    """Whether the exact-curve matrix fits the last-level cache, which decides what bytes_per_matvec means."""
    levels = sorted(name for name in caches if not name.endswith("Instruction"))
    if matrix_mb is None or not levels:
        return None
    last, size = levels[-1], caches[levels[-1]]  # sysfs writes sizes like "307200K"
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}
    cache_mb = (float(size[:-1]) * scale[size[-1]] if size[-1] in scale else float(size)) / 1e6
    if matrix_mb < cache_mb:
        return (
            f"the propagation matrix ({matrix_mb:.1f} MB) fits the {size} {last} cache, so every matvec array is "
            "cache-resident and heatkernel.bytes_per_matvec is computed traffic, not a DRAM-bandwidth figure"
        )
    return f"the propagation matrix ({matrix_mb:.1f} MB) exceeds the {size} {last} cache"


def provenance(matrix_mb: float | None) -> dict:
    """Where the numbers come from; ``matrix_mb`` is the propagation matrix of an exact curve."""
    import numpy
    import scipy

    caches = _cache_sizes()
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha or "not a git checkout",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "caches": caches,
        "cache_note": _cache_note(matrix_mb, caches),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    if not (SRC / "rcmwalk" / "__init__.py").is_file():
        print(f"error: no rcmwalk sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rcmwalk

    if Path(rcmwalk.__file__).resolve().parent != SRC / "rcmwalk":
        print(f"error: imported rcmwalk from {rcmwalk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = bench_workloads.WORKLOADS[args.workload]
    out = WORK / f"{args.workload}-{os.getpid()}"
    tally = bench_workloads.Tally()
    try:
        if args.trace:
            metrics, info = traced(workload, args.seed, out, tally)
            units = _units("per_layer")
            metrics["fail_frac"] = tally.fail_frac
        else:
            setup = setup_seconds(workload, out)
            metrics, info = measure(workload, args.seed, args.seconds, out, tally)
            metrics["setup_s"] = setup
            units = _units("end_to_end")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("# provenance " + json.dumps(provenance(info.get("matrix_mb")), sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed, **info}, sort_keys=True, default=str))
    for note in tally.notes:
        print(f"# failed: {note}")
    print(f"# fail_frac = {tally.fail_frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
