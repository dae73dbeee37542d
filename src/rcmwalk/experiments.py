"""Experiment configuration, orchestration and report emission.

Configs are plain-text ``key = value`` files with sections; unknown keys
are rejected so typos surface before a long sweep starts.  ``_SECTIONS``
places each key in its section, and the key's type is the annotation of
its ``ExperimentConfig`` field.  Every run
writes its CSVs plus a manifest (config hash, package version, seeds and a
content hash for each emitted file).  Identical (config, master seed)
pairs reproduce identical CSV bytes; wall-clock time appears only in the
manifest.

Quenched studies fit one exponent per environment and then summarize;
annealed studies average the curves across environments pointwise and fit
once.  The bound suite checks hole volumes, the spectral floor, the
survival envelope and the exit tail on each environment; the exit tail's
pass rate counts its Gaussian-slope verdict.

At module level this imports only the standard library, NumPy, ``errors``
and ``lattice``: the run engines (``heatkernel``, ``percolation``,
``spectral`` and SciPy's ``stdtrit``) are imported by the functions that
run them, so the config, CSV and manifest plumbing loads no SciPy.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from .errors import RcmError, ValidationError
from .lattice import _CONFIDENCE, BoxGeometry, derive_environment_seeds, sample_environment

if typing.TYPE_CHECKING:
    from .heatkernel import ReturnProbabilityCurve


@dataclass
class ExperimentConfig:
    """All knobs of an experiment run; see the demo configs for examples."""

    # [model]
    d: int = 2
    gamma: float = 2.0  # inf is the all-ones environment
    p: float = 0.95
    # [grid]
    t_min: float = 20.0
    t_max: float = 400.0
    points_per_decade: int = 12
    window_t_min: float = 0.0  # 0 means: max(t_min, 10)
    window_t_max: float = 0.0  # 0 means: t_max
    # [boxes]
    coupling_c: float = 2.0
    N_list: tuple[int, ...] = (32, 64)
    # [spectral]
    mu: float = 0.1
    b: float = 1.5
    epsilon: float = 0.9
    # [ensemble]
    n_environments: int = 10
    n_paths: int = 2000
    master_seed: int = 1
    method: str = "exact"  # exact | mc
    # [output]
    directory: str = "out"

    def window(self) -> tuple[float, float]:
        lo = self.window_t_min if self.window_t_min > 0 else max(self.t_min, 10.0)
        hi = self.window_t_max if self.window_t_max > 0 else self.t_max
        return lo, hi

    def validate(self) -> None:
        for name in _FINITE:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.d < 2:
            raise ValidationError("d must be >= 2")
        if not self.gamma > 0:
            raise ValidationError("gamma must be positive")
        if not 0 < self.p < 1:
            raise ValidationError("p must lie in (0, 1)")
        if not 0 < self.t_min < self.t_max:
            raise ValidationError("need 0 < t_min < t_max")
        if self.window_t_min < 0 or self.window_t_max < 0:
            raise ValidationError("window bounds must be >= 0 (0 means the default)")
        lo, hi = self.window()
        if not lo < hi:
            raise ValidationError(f"the fit window [{lo:g}, {hi:g}] needs window_t_min < window_t_max")
        if self.points_per_decade < 2:
            raise ValidationError("points_per_decade must be >= 2")
        if self.coupling_c <= 0:
            raise ValidationError("coupling_c must be positive")
        if any(n < 2 for n in self.N_list) or not self.N_list:
            raise ValidationError("N_list must contain radii >= 2")
        if not self.mu > 0:
            raise ValidationError("mu must be positive")
        if not self.b > 1:
            raise ValidationError("b must exceed 1")
        if not 0 < self.epsilon < 1:
            raise ValidationError("epsilon must lie in (0, 1)")
        if self.n_environments < 0:
            raise ValidationError("n_environments must be >= 0")
        if self.method == "mc" and self.n_paths < 1:
            raise ValidationError("n_paths must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError("master_seed must fit in 64 bits")
        if self.method not in ("exact", "mc"):
            raise ValidationError("method must be 'exact' or 'mc'")


_SECTIONS: dict[str, tuple[str, ...]] = {
    "model": ("d", "gamma", "p"),
    "grid": ("t_min", "t_max", "points_per_decade", "window_t_min", "window_t_max"),
    "boxes": ("coupling_c", "N_list"),
    "spectral": ("mu", "b", "epsilon"),
    "ensemble": ("n_environments", "n_paths", "master_seed", "method"),
    "output": ("directory",),
}

_FIELD_SECTION = {key: section for section, keys in _SECTIONS.items() for key in keys}
_TYPES = typing.get_type_hints(ExperimentConfig)  # each key's type is its field's annotation
# float knobs that must be finite; gamma may be +inf, the all-ones limit of the law
_FINITE = tuple(f.name for f in fields(ExperimentConfig) if _TYPES[f.name] is float and f.name != "gamma")


def _cast(kind: type, raw: str):
    """``raw`` as a value of the annotation ``kind``: ``int``, ``float``, ``str`` or ``tuple[int, ...]``."""
    raw = raw.strip()
    if kind in (int, float, str):
        return kind(raw)
    if kind == tuple[int, ...]:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    raise AssertionError(kind)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a sectioned key=value config; unknown sections or keys error out."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N_list vs n_list)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")
            try:
                values[key] = _cast(_TYPES[key], raw)
            except ValueError as exc:
                raise ValidationError(f"bad value for {section}.{key}: {raw!r}") from exc
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parse(config_to_text(c)) == c."""
    lines = []
    by_section: dict[str, list[str]] = {s: [] for s in _SECTIONS}
    for f in fields(cfg):
        section = _FIELD_SECTION[f.name]
        value = getattr(cfg, f.name)
        rendered = ", ".join(str(v) for v in value) if isinstance(value, tuple) else str(value)
        by_section[section].append(f"{f.name} = {rendered}")
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        lines.extend(by_section[section])
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        problem = "is not a regular file" if p.exists() else "not found"
        raise ValidationError(f"config file {problem}: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical config text, with ``directory`` and, unless ``method = mc``, ``n_paths`` left out.

    Where a run writes does not change what it computes, so one config and
    seed hash the same in every output directory; an exact run never reads
    ``n_paths``, so it hashes as its default.  Every other key counts, also
    one the run's command does not read (an exponent config's ``mu``, a
    bounds config's ``t_min``).
    """
    blind = replace(cfg, directory="")
    if cfg.method != "mc":
        blind = replace(blind, n_paths=ExperimentConfig.n_paths)
    return hashlib.sha256(config_to_text(blind).encode()).hexdigest()


# ---------------------------------------------------------------------------
# CSV + manifest plumbing
# ---------------------------------------------------------------------------


def _render_field(value) -> str:
    text = str(value)
    if "," in text or '"' in text:  # a failure message; numbers never need quoting
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_row(row) -> str:
    return ",".join(_render_field(v) for v in row)


def write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(_render_row(row) + "\n")
    path.write_text(buf.getvalue())


def write_manifest(
    out_dir: Path,
    command: str,
    cfg: ExperimentConfig | None,
    file_names: list[str],
    elapsed_s: float,
    extra: dict[str, str] | None = None,
) -> Path:
    """Line-oriented run manifest with a content hash per emitted file."""
    lines = [
        "manifest_version=1",
        f"package=rcmwalk {_package_version}",
        f"command={command}",
    ]
    if cfg is not None:
        lines.append(f"config_hash=sha256:{config_hash(cfg)}")
        lines.append(f"master_seed={cfg.master_seed}")
    for key, value in (extra or {}).items():
        lines.append(f"{key}={value}")
    lines.append(f"elapsed_s={elapsed_s:.3f}")
    for name in file_names:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        lines.append(f"file={name} sha256:{digest}")
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# exponent studies
# ---------------------------------------------------------------------------


@dataclass
class EnvironmentFit:
    seed: int
    slope: float
    ci_low: float
    ci_high: float
    status: str = "ok"  # "ok" or the failure reason


@dataclass
class AggregateSlope:
    slope: float
    ci_low: float
    ci_high: float
    n_envs: int


@dataclass
class ExperimentReport:
    """Everything a run produced, traceable to (config hash, seeds)."""

    kind: str
    config_hash: str
    box_radius: int
    window: tuple[float, float]
    per_env: list[EnvironmentFit] = field(default_factory=list)
    quenched: AggregateSlope | None = None  # an exponent run's summary of its per-environment fits
    annealed: AggregateSlope | None = None  # the fit of the mean curve, when the run asks for it
    pass_rates: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    files: list[str] = field(default_factory=list)
    curves: list[ReturnProbabilityCurve] = field(default_factory=list)


def _slope_summary(slopes: np.ndarray) -> AggregateSlope:
    from scipy.special import stdtrit

    m = len(slopes)
    mean = float(np.mean(slopes))
    if m > 1:
        se = float(np.std(slopes, ddof=1) / math.sqrt(m))
        tq = float(stdtrit(m - 1, 0.5 + _CONFIDENCE / 2))
        half = tq * se
    else:
        half = 0.0
    return AggregateSlope(slope=mean, ci_low=mean - half, ci_high=mean + half, n_envs=m)


def _curve_job(cfg: ExperimentConfig, seed: int, patterns: dict) -> ReturnProbabilityCurve:
    """One environment's curve; an exact one reads and fills the run's ball ``patterns``."""
    from .heatkernel import box_radius_for_horizon, default_time_grid, return_prob_curve_exact, return_prob_mc

    n_box = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
    env = sample_environment(BoxGeometry(cfg.d, n_box + 1), cfg.gamma, seed)
    grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
    if cfg.method == "exact":
        return return_prob_curve_exact(env, grid, box_radius=n_box, patterns=patterns)
    rng = np.random.default_rng([seed, 0xC0FFEE])
    return return_prob_mc(env, grid, cfg.n_paths, rng, box_radius=n_box)


def _run_job(fn, cfg: ExperimentConfig, seed: int):
    """One ensemble job; a package error is re-raised naming the run's gamma and the job's seed."""
    try:
        return fn(cfg, seed)
    except RcmError as exc:
        raise type(exc)(f"gamma={cfg.gamma}, seed={seed}: {exc}") from exc


def _kept_job(fn, cfg: ExperimentConfig, seed: int):
    """``_run_job`` that returns the named package error in place of a result."""
    try:
        return _run_job(fn, cfg, seed)
    except RcmError as exc:
        return exc


def _map_jobs(fn, cfg: ExperimentConfig, threads: int, keep_going: bool = False) -> list[tuple[int, object]]:
    """``(seed, fn(cfg, seed))`` for each of the run's environment seeds, in their order.

    Every job reads the one law ``cfg.gamma``.  The first job that raises
    ``RcmError`` ends the map, unless ``keep_going`` asks for the error in
    place of that job's result.
    """
    job = _kept_job if keep_going else _run_job
    seeds = [int(seed) for seed in derive_environment_seeds(cfg.master_seed, cfg.n_environments)]
    if threads <= 1:
        outcomes = list(map(job, repeat(fn), repeat(cfg), seeds))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(job, repeat(fn), repeat(cfg), seeds))
    return list(zip(seeds, outcomes))


CURVE_HEADER = ["t", "p", "p_lo", "p_hi", "stderr", "method", "d", "N", "gamma", "seed"]


def write_curves_csv(path: Path, curves) -> None:
    """One row per grid point of each curve, labelled with the curve's ``gamma`` and ``seed``.

    A curve with no bracket writes empty ``p_lo`` and ``p_hi`` fields.
    """
    rows = []
    for curve in curves:
        lo = [""] * len(curve.t) if curve.p_lo is None else curve.p_lo
        hi = [""] * len(curve.t) if curve.p_hi is None else curve.p_hi
        label = [curve.method, curve.d, curve.N, curve.gamma, curve.seed]
        for j in range(len(curve.t)):
            rows.append([curve.t[j], curve.p[j], lo[j], hi[j], curve.stderr[j], *label])
    write_csv(path, CURVE_HEADER, rows)


def _failure(seed: int, status: str) -> EnvironmentFit:
    return EnvironmentFit(seed=seed, slope=math.nan, ci_low=math.nan, ci_high=math.nan, status=status)


def _fit_with_marker(seed: int, curve: ReturnProbabilityCurve, window) -> EnvironmentFit:
    """Fit one curve; failures become markers instead of aborting the sweep."""
    from .heatkernel import fit_exponent

    try:
        f = fit_exponent(curve, window)
        return EnvironmentFit(seed=seed, slope=f.slope, ci_low=f.ci_low, ci_high=f.ci_high)
    except ValidationError as exc:
        return _failure(seed, f"failed: {exc}")


def _annealed_fit(cfg: ExperimentConfig, curves, window) -> tuple[AggregateSlope, list]:
    """Pointwise mean of the environments' curves, its fit and its CSV rows."""
    from .heatkernel import ReturnProbabilityCurve, fit_exponent

    stack = np.vstack([curve.p for curve in curves])
    mean_p = stack.mean(axis=0)
    se_p = stack.std(axis=0, ddof=1) / math.sqrt(len(curves)) if len(curves) > 1 else np.zeros_like(mean_p)
    template = curves[0]
    mean_curve = ReturnProbabilityCurve(
        t=template.t,
        p=mean_p,
        stderr=se_p,
        method=template.method,
        d=template.d,
        N=template.N,
        gamma=cfg.gamma,
        seed=cfg.master_seed,
    )
    fa = fit_exponent(mean_curve, window)
    fit = AggregateSlope(slope=fa.slope, ci_low=fa.ci_low, ci_high=fa.ci_high, n_envs=len(curves))
    rows = [
        [mean_curve.t[j], mean_p[j], se_p[j], mean_curve.method, cfg.d, mean_curve.N, cfg.gamma, len(curves)]
        for j in range(len(mean_curve.t))
    ]
    return fit, rows


def _curve_counts(cfg: ExperimentConfig, box: int, curves) -> dict[str, str] | None:
    """An exact run's manifest lines: its curves' work and how many of them hold on Z^d.

    ``lanczos_steps`` is the most folded steps of a curve; ``bonds_drawn``
    the conductances the curves read, against ``box_bonds``, the
    environments' bonds times the number of curves; ``zd_certified_curves``
    the curves with ``2 * steps <= n``, whose bracket holds for the walk on
    Z^d, over all of them.
    """
    if cfg.method != "exact":
        return None
    return {
        "lanczos_steps": str(max(c.steps for c in curves)),
        "bonds_drawn": str(sum(c.bonds for c in curves)),
        "box_bonds": str(BoxGeometry(cfg.d, box + 1).n_bonds * len(curves)),
        "zd_certified_curves": f"{sum(2 * c.steps <= c.N for c in curves)}/{len(curves)}",
    }


def run_exponent(cfg: ExperimentConfig, threads: int = 1, annealed: bool = False) -> ExperimentReport:
    """Per-environment exponent fits and their summary; optionally also annealed.

    Environments whose curve raises ``RcmError`` or whose fit fails (a Monte
    Carlo curve can estimate zero at late times) are persisted in
    ``exponent_fits.csv`` with a failure marker and excluded from the
    summary and the annealed mean; the run errors out only when no
    environment survives.  The annealed run also averages the curves across
    environments, fits once, and writes ``annealed_curve.csv`` and
    ``annealed_report.csv``.
    """
    from .heatkernel import box_radius_for_horizon

    cfg.validate()
    if cfg.n_environments < 1:
        raise ValidationError("n_environments must be >= 1 for exponent studies")
    start = time.monotonic()
    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    window = cfg.window()
    # one ball pattern cache per call; a process pool pickles it, empty, into each task
    outcomes = _map_jobs(partial(_curve_job, patterns={}), cfg, threads, keep_going=True)
    curves = [o for _, o in outcomes if not isinstance(o, RcmError)]
    box = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)

    per_env = [
        _failure(seed, f"failed: {o}") if isinstance(o, RcmError) else _fit_with_marker(seed, o, window)
        for seed, o in outcomes
    ]
    good = np.array([e.slope for e in per_env if e.status == "ok"])
    if len(good) == 0:
        lost = [o for _, o in outcomes if isinstance(o, RcmError)]
        raise lost[0] if lost else ValidationError(f"every environment fit failed for gamma={cfg.gamma}")
    quenched = _slope_summary(good)

    def summary_rows(a: AggregateSlope):
        return [[cfg.gamma, cfg.d, box, window[0], window[1], a.slope, a.ci_low, a.ci_high, a.n_envs]]

    summary_header = ["gamma", "d", "N", "t_min", "t_max", "slope", "ci_low", "ci_high", "n_envs"]
    write_curves_csv(out / "curves.csv", curves)
    write_csv(
        out / "exponent_fits.csv",
        ["gamma", "d", "N", "t_min", "t_max", "slope", "ci_low", "ci_high", "seed", "status"],
        [[cfg.gamma, cfg.d, box, window[0], window[1], e.slope, e.ci_low, e.ci_high, e.seed, e.status] for e in per_env],
    )
    files = ["curves.csv", "exponent_fits.csv"]
    annealed_fit = None
    if annealed:
        annealed_fit, annealed_rows = _annealed_fit(cfg, curves, window)
        write_csv(
            out / "annealed_curve.csv",
            ["t", "p", "stderr", "method", "d", "N", "gamma", "n_envs"],
            annealed_rows,
        )
        write_csv(out / "annealed_report.csv", summary_header, summary_rows(annealed_fit))
        files += ["annealed_curve.csv", "annealed_report.csv"]
    write_csv(out / "exponent_report.csv", summary_header, summary_rows(quenched))
    files.append("exponent_report.csv")
    elapsed = time.monotonic() - start
    command = "annealed" if annealed else "exponent"
    write_manifest(out, command, cfg, files, elapsed, extra=_curve_counts(cfg, box, curves))
    return ExperimentReport(
        kind="annealed" if annealed else "quenched",
        config_hash=config_hash(cfg),
        box_radius=box,
        window=window,
        per_env=per_env,
        quenched=quenched,
        annealed=annealed_fit,
        elapsed_s=elapsed,
        files=files + ["manifest.txt"],
        curves=curves,
    )


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------


_BOUND_FILES = {
    "holes.csv": ["gamma", "d", "N", "seed", "n_holes", "max_volume", "bound", "pass"],
    "spectral_report.csv": ["gamma", "d", "N", "xi_hat", "lambda", "bound_m_N", "pass", "neg_pivots", "iterations"],
    "survival.csv": ["gamma", "d", "N", "seed", "t", "lambda", "lhs_log", "rhs_log", "pass"],
    "exit_tail.csv": ["gamma", "d", "N", "seed", "t", "p_exit", "bound"],
}


def _bound_job(cfg: ExperimentConfig, seed: int) -> tuple[dict[str, list[tuple]], dict[str, int]]:
    """One environment's rows of each ``_BOUND_FILES`` CSV and its counts for the manifest.

    ``exit_tail_passes`` is 1 when the exit tail's Gaussian slope is at most
    -1 (``ExitTailReport.passed``); the other counts are manifest lines,
    summed over the jobs.
    """
    from .percolation import hole_volume_report, strong_cluster, threshold_for_density
    from .spectral import exit_time_tail_check, lambda1_floor_check, prescribed_spec, survival_bound_check

    gamma, d, n_max, mu = cfg.gamma, cfg.d, max(cfg.N_list), cfg.mu
    env = sample_environment(BoxGeometry(d, n_max + 1), gamma, seed)
    xi = threshold_for_density(gamma, cfg.p)
    decomp = strong_cluster(env, xi)
    max_volume = hole_volume_report(decomp).max_volume
    bound = math.log(n_max) ** 2.5
    rows = {name: [] for name in _BOUND_FILES}
    rows["holes.csv"].append((gamma, d, n_max, seed, len(decomp.holes), max_volume, bound, max_volume <= bound))
    counts = dict.fromkeys(
        ["floor_inertia_fallbacks", "floor_eigsh_fallbacks", "survival_lanczos_steps", "survival_ritz_pairs"], 0
    )
    n_exit = min(cfg.N_list)
    for n in cfg.N_list:
        spec = prescribed_spec(env, decomp, n, mu=mu, b=cfg.b, epsilon=cfg.epsilon)
        cert = lambda1_floor_check(spec)
        rows["spectral_report.csv"].append(
            (gamma, d, n, xi, spec.lam, cert.m_N, cert.passed, cert.neg_pivots, cert.iterations)
        )
        counts["floor_inertia_fallbacks"] += cert.method != "barta"
        counts["floor_eigsh_fallbacks"] += cert.method == "eigsh"
        sb = survival_bound_check(spec)
        rows["survival.csv"].append((gamma, d, n, seed, sb.t, sb.lam, sb.lhs_log, sb.rhs_log, sb.passed))
        counts["survival_lanczos_steps"] += sb.steps
        counts["survival_ritz_pairs"] += sb.ritz_pairs
        if n == n_exit:
            tail = exit_time_tail_check(spec, np.geomspace(n**2 / 16.0, n**2, 8))

    rows["exit_tail.csv"] = [(gamma, d, n_exit, seed, t, p, b) for t, p, b in zip(tail.t, tail.p_exit, tail.bound)]
    counts["exit_tail_products"] = tail.products
    counts["exit_tail_passes"] = int(tail.passed)
    return rows, counts


def run_bound_suite(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Hole-volume, spectral-floor, survival and exit-tail checks over an ensemble."""
    cfg.validate()
    if cfg.n_environments < 1:
        raise ValidationError("n_environments must be >= 1 for the bound suite")
    if not math.isfinite(cfg.gamma):
        raise ValidationError(f"the bound suite needs random environments, so a finite gamma, got gamma={cfg.gamma}")
    start = time.monotonic()
    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    rows = {name: [] for name in _BOUND_FILES}
    totals: dict[str, int] = {}
    for _, (job_rows, counts) in _map_jobs(_bound_job, cfg, threads):
        for name, file_rows in job_rows.items():
            rows[name] += file_rows
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    for name, header in _BOUND_FILES.items():
        write_csv(out / name, header, rows[name])

    # three rates are means of a CSV's ``pass`` column; the jobs count the exit tails that pass
    passes = {"hole_volume": "holes.csv", "lambda1_floor": "spectral_report.csv", "survival_bound": "survival.csv"}
    pass_rates = {
        rate: float(np.mean([row[_BOUND_FILES[name].index("pass")] for row in rows[name]]))
        for rate, name in passes.items()
    }
    pass_rates["exit_tail"] = totals.pop("exit_tail_passes") / cfg.n_environments
    elapsed = time.monotonic() - start
    files = list(_BOUND_FILES)
    write_manifest(
        out,
        "bounds",
        cfg,
        files,
        elapsed,
        extra={**{f"pass_rate_{k}": str(v) for k, v in pass_rates.items()}, **{k: str(v) for k, v in totals.items()}},
    )
    return ExperimentReport(
        kind="bounds",
        config_hash=config_hash(cfg),
        box_radius=max(cfg.N_list),
        window=cfg.window(),
        pass_rates=pass_rates,
        elapsed_s=elapsed,
        files=files + ["manifest.txt"],
    )
