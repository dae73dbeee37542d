"""The benchmark's workloads: inputs from a seed, one timed repeat, output checks.

Every workload runs through public entry points only: ``rcmwalk.cli.main``
in-process for the config-driven commands, and the package's exported
functions for the archive path.  Checks run outside the timed region and
their pass criteria do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_spans import HOLE_CG_SITES

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

# Tolerances of the output checks.
SLOPE_RANGE = (-1.15, -0.85)  # quenched_d2 aggregate slope, around -d/2 = -1
# Survival is a Poisson mixture summed in floating point: with no leak it reads
# up to a few 1e-14 above 1, so "at most 1" is taken at the curve tolerance.
SURVIVAL_SLACK = 1e-12
ORACLE_TOL = 1e-10
ROW_SUM_RTOL = 1e-10
SYMMETRY_TOL = 1e-10
SYMMETRY_PAIRS = 50  # sampled effective-conductance pairs per environment


class Tally:
    """Operations attempted and failed; an operation is one job or one check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{name}: {detail}" if detail else name)
        return ok

    def guarded(self, name: str, fn, *args):
        """Run a check; a raise counts as one failed operation."""
        try:
            return fn(*args)
        except Exception:  # a crashing check is a failed operation, not a crash
            self.op(name, False, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Outcome:
    """What one timed repeat left behind for the checks."""

    ok: bool  # the entry point returned normally
    error: str = ""
    hashes: dict[str, str] = field(default_factory=dict)
    rows: dict[str, list[dict[str, str]]] = field(default_factory=dict)  # outputs with unseeded columns
    data: object = None


def _hash_outputs(out: Path, pattern: str) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob(pattern))}


# ---------------------------------------------------------------------------
# rcmwalk exponent / rcmwalk bounds through the CLI
# ---------------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads."""

    # Output file -> column -> relative tolerance (None: not compared) for the
    # columns the program does not reproduce byte for byte at a fixed seed.
    UNSEEDED: dict[str, dict[str, float | None]] = {}

    def check_once(self, seed: int, out: Path, tally: Tally) -> None:
        """Checks that need to run once per run, after the first repeat."""

    def same_outputs(self, first: Outcome, other: Outcome) -> tuple[bool, str, list[str]]:
        """Byte equality of every output, except the known unseeded columns.

        Returns (same, what differs, notes on the known differences).
        """
        known = []
        for name in sorted(set(first.hashes) | set(other.hashes)):
            if first.hashes.get(name) == other.hashes.get(name):
                continue
            columns = self.UNSEEDED.get(name)
            if columns is None or not _same_rows(first.rows.get(name), other.rows.get(name), columns):
                return False, f"{name} differs", known
            known.append(f"{name} bytes differ only in {', '.join(columns)}")
        return bool(first.hashes), "", known


class CliWorkload(Workload):
    """One ``rcmwalk <command> --config <frozen copy>`` call per repeat."""

    def __init__(self, command: str, config: str):
        self.command = command
        self.config = CONFIGS / config

    def cfg(self):
        from rcmwalk.experiments import load_config

        return load_config(self.config)

    def run(self, seed: int, out: Path) -> Outcome:
        from rcmwalk.cli import main

        argv = [self.command, "--config", str(self.config), "--seed", str(seed), "--out", str(out), "--threads", "1"]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except Exception:  # the run failed; every job in it counts as failed
            return Outcome(ok=False, error=traceback.format_exc(limit=3).strip().splitlines()[-1])
        if code != 0:
            return Outcome(ok=False, error=f"exit code {code}: {sink.getvalue().strip()[-200:]}")
        rows = {name: read_csv(out / name) for name in self.UNSEEDED if (out / name).is_file()}
        return Outcome(ok=True, hashes=_hash_outputs(out, "*.csv"), rows=rows)


class ExponentWorkload(CliWorkload):
    """``rcmwalk exponent``: exact curves, per-environment fits, a summary."""

    def __init__(self, config: str, slope_range: tuple[float, float] | None):
        super().__init__("exponent", config)
        self.slope_range = slope_range

    def check(self, seed: int, out: Path, outcome: Outcome, tally: Tally) -> None:
        cfg = self.cfg()
        if not outcome.ok:
            for k in range(cfg.n_environments):
                tally.op(f"env job {k}", False, outcome.error)
            return
        curves: dict[str, list[tuple[float, float]]] = {}
        for row in read_csv(out / "curves.csv"):
            curves.setdefault(row["seed"], []).append((float(row["t"]), float(row["p"])))
        for k, env_seed in enumerate(_env_seeds(seed, cfg.n_environments)):
            pts = curves.get(str(env_seed))
            ok, detail = (False, "no curve") if pts is None else _curve_ok([t for t, _ in pts], [p for _, p in pts])
            tally.op(f"env job {k} curve", ok, detail)
        fits = read_csv(out / "exponent_fits.csv")
        bad = [r["seed"] for r in fits if r["status"] != "ok"]
        tally.op("fits ok", len(fits) == cfg.n_environments and not bad, f"failed fits for seeds {bad}")
        if self.slope_range is not None:
            lo, hi = self.slope_range
            slopes = [float(r["slope"]) for r in read_csv(out / "exponent_report.csv")]
            tally.op("aggregate slope", bool(slopes) and all(lo <= s <= hi for s in slopes), f"slopes {slopes}")

    def check_once(self, seed: int, out: Path, tally: Tally) -> None:
        """Recompute the first environment's curve through the library.

        Its survival is not written to the CSVs, and its p values must equal
        the CLI's bytes.
        """
        from rcmwalk import (
            BoxGeometry,
            box_radius_for_horizon,
            default_time_grid,
            return_prob_curve_exact,
            sample_environment,
        )

        cfg = self.cfg()
        env_seed = _env_seeds(seed, 1)[0]
        n_box = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
        env = sample_environment(BoxGeometry(cfg.d, n_box + 1), cfg.gamma, env_seed)
        grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
        curve = return_prob_curve_exact(env, grid, box_radius=n_box)
        surv = np.asarray(curve.survival)
        in_range = (surv > 0) & (surv <= 1 + SURVIVAL_SLACK)
        tally.op("survival in (0, 1]", bool(np.all(in_range)), f"survival - 1 = {surv - 1}")
        ok, detail = _curve_ok(list(curve.t), list(curve.p))
        tally.op("library curve", ok, detail)
        cli_p = [row["p"] for row in read_csv(out / "curves.csv") if row["seed"] == str(env_seed)]
        tally.op("library curve equals CLI bytes", cli_p == [str(p) for p in curve.p], "p values differ")
        oracle_check(tally)

    def shape(self, seed: int, out: Path, outcome: Outcome) -> dict:
        from rcmwalk import box_radius_for_horizon, poisson_truncation_k

        cfg = self.cfg()
        n = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
        side = 2 * n + 1
        nnz = 2 * cfg.d * (side - 1) * side ** (cfg.d - 1)
        return {
            "box_sites": side**cfg.d,
            "nnz": nnz,
            # CSR with 8-byte values and 4-byte column indices and row pointers
            "matrix_mb": (12 * nnz + 4 * (side**cfg.d + 1)) / 1e6,
            "poisson_k_max": poisson_truncation_k(cfg.t_max, 1e-12),
            "curves": cfg.n_environments,
        }


class BoundsWorkload(CliWorkload):
    """``rcmwalk bounds``: hole volumes, spectral floor, survival and exit tails."""

    # spectral.lambda1 calls eigsh without a start vector, so ARPACK starts from
    # OS entropy: Lambda1 moves in its last digits (4e-15 relative seen) and the
    # residual and solve count change from run to run.
    UNSEEDED = {"spectral_report.csv": {"Lambda1": 1e-12, "residual": None, "iterations": None}}

    def __init__(self, config: str):
        super().__init__("bounds", config)

    def check(self, seed: int, out: Path, outcome: Outcome, tally: Tally) -> None:
        cfg = self.cfg()
        if not outcome.ok:
            for k in range(cfg.n_environments):
                tally.op(f"env job {k}", False, outcome.error)
            return
        done = {row["seed"] for row in read_csv(out / "holes.csv")}
        for k, env_seed in enumerate(_env_seeds(seed, cfg.n_environments)):
            tally.op(f"env job {k}", str(env_seed) in done, "no hole row")
        spectral = read_csv(out / "spectral_report.csv")
        tally.op(
            "spectral floor",
            len(spectral) == cfg.n_environments * len(cfg.N_list) and all(r["pass"] == "True" for r in spectral),
            "Lambda1 below m(N)",
        )
        survival = read_csv(out / "survival.csv")
        tally.op(
            "survival bound",
            len(survival) == cfg.n_environments * len(cfg.N_list) and all(r["pass"] == "True" for r in survival),
            "penalized survival above its envelope",
        )
        tail = read_csv(out / "exit_tail.csv")
        tally.op(
            "exit tail",
            bool(tail) and all(float(r["p_exit"]) <= float(r["bound"]) * (1 + 1e-12) for r in tail),
            "exit tail above its envelope",
        )

    def shape(self, seed: int, out: Path, outcome: Outcome) -> dict:
        cfg = self.cfg()
        holes = read_csv(out / "holes.csv")
        spectral = read_csv(out / "spectral_report.csv")
        return {
            "box_sites": {n: (2 * n + 1) ** cfg.d for n in cfg.N_list},
            "holes": sum(int(r["n_holes"]) for r in holes),
            "hole_sites_max": max(int(r["max_volume"]) for r in holes),
            "eigensolves": len(spectral),
            "shift_invert_solves": sum(int(r["iterations"]) for r in spectral),
        }


# ---------------------------------------------------------------------------
# generate -> decompose -> hole solves, through the library
# ---------------------------------------------------------------------------


@dataclass
class ArchiveJob:
    env: object
    loaded: object
    decomp: object
    conductances: list


class ArchiveWorkload(Workload):
    """Persistence, decomposition and the hole solves on d=2, N=241 boxes."""

    d, N, gamma, p = 2, 241, 2.0, 0.55
    n_environments = 1

    def run(self, seed: int, out: Path) -> Outcome:
        from rcmwalk import (
            BoxGeometry,
            effective_conductances,
            hole_volume_report,
            load_environment,
            sample_environment,
            save_environment,
            strong_cluster,
            threshold_for_density,
            write_decomposition_csv,
        )

        jobs: list[ArchiveJob | str] = []
        for k, env_seed in enumerate(_env_seeds(seed, self.n_environments)):
            try:
                env = sample_environment(BoxGeometry(self.d, self.N), self.gamma, env_seed)
                path = out / f"env_{k:04d}.rcmenv"
                save_environment(env, path)
                loaded = load_environment(path)
                decomp = strong_cluster(loaded, threshold_for_density(loaded.gamma, self.p))
                hole_volume_report(decomp)
                write_decomposition_csv(decomp, out / f"decomposition_{k:04d}.csv")
                ecs = [effective_conductances(loaded, decomp, h.anchor) for h in decomp.holes]
                jobs.append(ArchiveJob(env, loaded, decomp, ecs))
            except Exception:  # one environment's failure is one failed job
                jobs.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        hashes = _hash_outputs(out, "decomposition_*.csv")
        hashes.update(_hash_outputs(out, "env_*.rcmenv"))
        return Outcome(ok=True, hashes=hashes, data=jobs)

    def check(self, seed: int, out: Path, outcome: Outcome, tally: Tally) -> None:
        for k, job in enumerate(outcome.data):
            if isinstance(job, str):
                tally.op(f"env job {k}", False, job)
                continue
            tally.op(f"env job {k}", True)
            tally.op(f"env {k} load(save(env)) == env", job.loaded == job.env)
            tally.guarded(f"env {k} row sums", _check_rows, job, tally, k)
            tally.guarded(f"env {k} symmetry", _check_symmetry, job, tally, k)

    def shape(self, seed: int, out: Path, outcome: Outcome) -> dict:
        jobs = [job for job in outcome.data or [] if isinstance(job, ArchiveJob)]
        volumes = [h.volume for job in jobs for h in job.decomp.holes]
        return {
            "box_sites": (2 * self.N + 1) ** self.d,
            "holes": len(volumes),
            "hole_sites_max": max(volumes, default=0),
            "holes_over_cg_cutoff": sum(1 for v in volumes if v > HOLE_CG_SITES),
        }


def _check_rows(job: ArchiveJob, tally: Tally, k: int) -> None:
    from rcmwalk import pi

    bad = []
    for ec in job.conductances:
        target = pi(job.loaded, ec.x)
        ok = ec.eta == target and bool(np.all(ec.values >= 0))
        ok = ok and abs(float(ec.values.sum()) - target) <= ROW_SUM_RTOL * target
        if not ok:
            bad.append(ec.x)
    tally.op(f"env {k} rows nonnegative, summing to pi(x)", not bad, f"{len(bad)} bad rows, first at {bad[:3]}")


def _check_symmetry(job: ArchiveJob, tally: Tally, k: int) -> None:
    from rcmwalk import effective_conductances

    worst, pairs = 0.0, 0
    for ec in job.conductances:
        for y, w in zip(ec.sites, ec.values):
            if int(y) == ec.x:
                continue
            back = effective_conductances(job.loaded, job.decomp, int(y)).weight(ec.x)
            worst = max(worst, abs(back - float(w)) / max(1.0, abs(float(w))))
            pairs += 1
            if pairs == SYMMETRY_PAIRS:
                break
        if pairs == SYMMETRY_PAIRS:
            break
    tally.op(f"env {k} symmetry", pairs > 0 and worst <= SYMMETRY_TOL, f"{pairs} pairs, worst {worst:.2e}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def repeat_seed(seed: int, r: int) -> int:
    """Seed of repeat ``r`` of a run at ``seed``: the run's own seed for ``r = 0``."""
    if r == 0:
        return seed
    return int(np.random.SeedSequence([seed, r]).generate_state(1, dtype=np.uint64)[0])


def _env_seeds(seed: int, n: int) -> list[int]:
    from rcmwalk import derive_environment_seeds

    return [int(s) for s in derive_environment_seeds(seed, n)]


def _same_rows(a, b, columns: dict[str, float | None]) -> bool:
    if a is None or b is None or len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for key in ra.keys() | rb.keys():
            if key not in columns:
                if ra.get(key) != rb.get(key):
                    return False
            elif columns[key] is not None:
                x, y = float(ra[key]), float(rb[key])
                if not abs(x - y) <= columns[key] * max(abs(x), abs(y)):
                    return False
    return True


def _curve_ok(t: list[float], p: list[float]) -> tuple[bool, str]:
    if not all(0 < v <= 1 for v in p):
        return False, "p outside (0, 1]"
    if not all(b > a for a, b in zip(t, t[1:])):
        return False, "t grid not increasing"
    if not all(b < a for a, b in zip(p, p[1:])):
        return False, "p not strictly decreasing"
    return True, ""


def oracle_check(tally: Tally) -> None:
    """Exact kernel against a dense matrix exponential on a 31x31 box."""
    from scipy.linalg import expm

    from rcmwalk import BoxGeometry, derive_environment_seeds, return_prob_exact, sample_environment, transition_matrix

    env = sample_environment(BoxGeometry(2, 16), 2.0, int(derive_environment_seeds(101, 1)[0]))
    chain = transition_matrix(env, 15)
    L = chain.P.toarray() - np.eye(chain.P.shape[0])
    o = chain.origin
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        worst = max(worst, abs(return_prob_exact(env, t, box_radius=15) - float(expm(t * L)[o, o])))
    tally.op("dense expm oracle", worst <= ORACLE_TOL and math.isfinite(worst), f"max |diff| {worst:.2e}")


WORKLOADS = {
    "quenched_d2": ExponentWorkload("quenched_d2.cfg", SLOPE_RANGE),
    "bounds": BoundsWorkload("bounds.cfg"),
    "archive": ArchiveWorkload(),
}
