"""Experiment configuration, orchestration and report emission.

Configs are plain-text ``key = value`` files with sections; unknown keys
are rejected so typos surface before a long sweep starts.  Every run
writes its CSVs plus a manifest (config hash, package version, seeds and a
content hash for each emitted file).  Identical (config, master seed)
pairs reproduce identical CSV bytes; wall-clock time appears only in the
manifest.

Quenched studies fit one exponent per environment and then summarize;
annealed studies average the curves across environments pointwise and fit
once.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy.special import stdtrit

from . import __version__ as _package_version
from .errors import RcmError, ValidationError
from .heatkernel import (
    ReturnProbabilityCurve,
    box_radius_for_horizon,
    default_time_grid,
    fit_exponent,
    return_prob_curve_exact,
    return_prob_mc,
)
from .lattice import _CONFIDENCE, BoxGeometry, derive_environment_seeds, homogeneous_environment, sample_environment
from .percolation import hole_volume_report, strong_cluster, threshold_for_density
from .spectral import (
    exit_time_tail_check,
    lambda1_floor_check,
    prescribed_spec,
    survival_bound_check,
)


@dataclass
class ExperimentConfig:
    """All knobs of an experiment run; see the demo configs for examples."""

    # [model]
    d: int = 2
    gamma: float = 2.0
    gamma_list: tuple[float, ...] = ()
    p: float = 0.95
    homogeneous: bool = False
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

    def gammas(self) -> tuple[float, ...]:
        return self.gamma_list if self.gamma_list else (self.gamma,)

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
        for g in self.gammas():
            if not g > 0:
                raise ValidationError("gamma values must be positive")
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


_SCHEMA: dict[str, dict[str, str]] = {
    "model": {"d": "int", "gamma": "float", "gamma_list": "floats", "p": "float", "homogeneous": "bool"},
    "grid": {
        "t_min": "float",
        "t_max": "float",
        "points_per_decade": "int",
        "window_t_min": "float",
        "window_t_max": "float",
    },
    "boxes": {"coupling_c": "float", "N_list": "ints"},
    "spectral": {"mu": "float", "b": "float", "epsilon": "float"},
    "ensemble": {
        "n_environments": "int",
        "n_paths": "int",
        "master_seed": "int",
        "method": "str",
    },
    "output": {"directory": "str"},
}

_FIELD_SECTION = {key: section for section, keys in _SCHEMA.items() for key in keys}
# float knobs that must be finite; gamma may be +inf, the homogeneous limit
_FINITE = tuple(k for keys in _SCHEMA.values() for k, kind in keys.items() if kind == "float" and k != "gamma")


def _cast(kind: str, raw: str):
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValidationError(f"not a boolean: {raw!r}")
    if kind == "str":
        return raw
    if kind == "ints":
        return tuple(int(tok) for tok in raw.split(",") if tok.strip()) if raw else ()
    if kind == "floats":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip()) if raw else ()
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
        if section not in _SCHEMA:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")
            try:
                values[key] = _cast(_SCHEMA[section][key], raw)
            except ValueError as exc:
                raise ValidationError(f"bad value for {section}.{key}: {raw!r}") from exc
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parse(config_to_text(c)) == c."""
    lines = []
    by_section: dict[str, list[str]] = {s: [] for s in _SCHEMA}
    for f in fields(cfg):
        section = _FIELD_SECTION[f.name]
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ", ".join(str(v) for v in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = str(value)
        by_section[section].append(f"{f.name} = {rendered}")
    for section in _SCHEMA:
        lines.append(f"[{section}]")
        lines.extend(by_section[section])
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    return parse_config(p.read_text())


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(config_to_text(cfg))


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical config text, blind to what a run does not read.

    Where a run writes does not change what it computes, so one config and
    seed hash the same in every output directory.  ``n_paths`` counts only
    for ``method = mc``; under any other method it hashes as its default.
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
    gamma: float
    seed: int
    slope: float
    ci_low: float
    ci_high: float
    status: str = "ok"  # "ok" or the failure reason


@dataclass
class AggregateSlope:
    gamma: float
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
    quenched: list[AggregateSlope] = field(default_factory=list)
    annealed: list[AggregateSlope] = field(default_factory=list)
    pass_rates: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    files: list[str] = field(default_factory=list)
    curves: list[ReturnProbabilityCurve] = field(default_factory=list)


def _slope_summary(gamma: float, slopes: np.ndarray) -> AggregateSlope:
    m = len(slopes)
    mean = float(np.mean(slopes))
    if m > 1:
        se = float(np.std(slopes, ddof=1) / math.sqrt(m))
        tq = float(stdtrit(m - 1, 0.5 + _CONFIDENCE / 2))
        half = tq * se
    else:
        half = 0.0
    return AggregateSlope(gamma=gamma, slope=mean, ci_low=mean - half, ci_high=mean + half, n_envs=m)


def _curve_job(cfg: ExperimentConfig, gamma: float, seed: int, patterns: dict) -> ReturnProbabilityCurve:
    """One environment's curve; an exact one reads and fills the run's ball ``patterns``."""
    n_box = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)
    if cfg.homogeneous:
        env = homogeneous_environment(cfg.d, n_box + 1)
    else:
        env = sample_environment(BoxGeometry(cfg.d, n_box + 1), gamma, seed)
    grid = default_time_grid(cfg.t_min, cfg.t_max, cfg.points_per_decade)
    if cfg.method == "exact":
        return return_prob_curve_exact(env, grid, box_radius=n_box, patterns=patterns)
    rng = np.random.default_rng([seed, 0xC0FFEE])
    return return_prob_mc(env, grid, cfg.n_paths, rng, box_radius=n_box)


def _run_job(fn, cfg: ExperimentConfig, gamma: float, seed: int):
    """One ensemble job; a package error is re-raised naming its gamma and seed."""
    try:
        return fn(cfg, gamma, seed)
    except RcmError as exc:
        raise type(exc)(f"gamma={gamma}, seed={seed}: {exc}") from exc


def _kept_job(fn, cfg: ExperimentConfig, gamma: float, seed: int):
    """``_run_job`` that returns the named package error in place of a result."""
    try:
        return _run_job(fn, cfg, gamma, seed)
    except RcmError as exc:
        return exc


def _map_jobs(fn, cfg: ExperimentConfig, threads: int, keep_going: bool = False) -> list[tuple[float, int, object]]:
    """``(gamma, seed, fn(cfg, gamma, seed))`` for every gamma and environment seed, in that order.

    The first job that raises ``RcmError`` ends the map, unless ``keep_going``
    asks for the error in place of that job's result.
    """
    job = _kept_job if keep_going else _run_job
    seeds = derive_environment_seeds(cfg.master_seed, cfg.n_environments)
    jobs = [(float(gamma), int(seed)) for gamma in cfg.gammas() for seed in seeds]
    gammas, seeds = zip(*jobs)
    if threads <= 1:
        outcomes = list(map(job, repeat(fn), repeat(cfg), gammas, seeds))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(job, repeat(fn), repeat(cfg), gammas, seeds))
    return list(zip(gammas, seeds, outcomes))


CURVE_HEADER = ["t", "p", "p_lo", "p_hi", "stderr", "method", "d", "N", "gamma", "seed"]


def write_curves_csv(path: Path, labelled) -> None:
    """One row per grid point of each ``(gamma, seed, curve)``; no bracket is an empty field."""
    rows = []
    for gamma, seed, curve in labelled:
        lo = [""] * len(curve.t) if curve.p_lo is None else curve.p_lo
        hi = [""] * len(curve.t) if curve.p_hi is None else curve.p_hi
        for j in range(len(curve.t)):
            rows.append(
                [curve.t[j], curve.p[j], lo[j], hi[j], curve.stderr[j], curve.method, curve.d, curve.N, gamma, seed]
            )
    write_csv(path, CURVE_HEADER, rows)


def _failure(gamma: float, seed: int, status: str) -> EnvironmentFit:
    return EnvironmentFit(gamma=gamma, seed=seed, slope=math.nan, ci_low=math.nan, ci_high=math.nan, status=status)


def _fit_with_marker(gamma: float, seed: int, curve: ReturnProbabilityCurve, window) -> EnvironmentFit:
    """Fit one curve; failures become markers instead of aborting the sweep."""
    try:
        f = fit_exponent(curve, window)
        return EnvironmentFit(gamma=gamma, seed=seed, slope=f.slope, ci_low=f.ci_low, ci_high=f.ci_high)
    except ValidationError as exc:
        return _failure(gamma, seed, f"failed: {exc}")


def _annealed_fit(cfg: ExperimentConfig, gamma: float, group, window) -> tuple[AggregateSlope, list]:
    """Pointwise mean curve over one gamma's environments, its fit and its CSV rows."""
    stack = np.vstack([curve.p for _, _, curve in group])
    mean_p = stack.mean(axis=0)
    se_p = stack.std(axis=0, ddof=1) / math.sqrt(len(group)) if len(group) > 1 else np.zeros_like(mean_p)
    template = group[0][2]
    mean_curve = ReturnProbabilityCurve(
        t=template.t,
        p=mean_p,
        stderr=se_p,
        method=template.method,
        d=template.d,
        N=template.N,
        gamma=gamma,
        seed=cfg.master_seed,
    )
    fa = fit_exponent(mean_curve, window)
    fit = AggregateSlope(gamma=gamma, slope=fa.slope, ci_low=fa.ci_low, ci_high=fa.ci_high, n_envs=len(group))
    rows = [
        [mean_curve.t[j], mean_p[j], se_p[j], mean_curve.method, cfg.d, mean_curve.N, gamma, len(group)]
        for j in range(len(mean_curve.t))
    ]
    return fit, rows


def run_exponent(cfg: ExperimentConfig, threads: int = 1, annealed: bool = False) -> ExperimentReport:
    """Per-environment exponent fits summarized per gamma; optionally also annealed.

    Environments whose curve raises ``RcmError`` or whose fit fails (a Monte
    Carlo curve can estimate zero at late times) are persisted in
    ``exponent_fits.csv`` with a failure marker and excluded from the
    summary and the annealed mean; the run errors out only when no
    environment of a gamma survives.  The annealed run also averages the
    curves across environments per gamma, fits once, and writes
    ``annealed_curve.csv`` and ``annealed_report.csv``.
    """
    cfg.validate()
    start = time.monotonic()
    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    window = cfg.window()
    if cfg.n_environments < 1:
        raise ValidationError("n_environments must be >= 1 for exponent studies")
    # one ball pattern cache per call; a process pool pickles it, empty, into each task
    outcomes = _map_jobs(partial(_curve_job, patterns={}), cfg, threads, keep_going=True)
    results = [(g, s, o) for g, s, o in outcomes if not isinstance(o, RcmError)]
    box = box_radius_for_horizon(cfg.t_max, cfg.coupling_c)

    per_env = [
        _failure(gamma, seed, f"failed: {o}") if isinstance(o, RcmError) else _fit_with_marker(gamma, seed, o, window)
        for gamma, seed, o in outcomes
    ]
    quenched = []
    for g in cfg.gammas():
        good = np.array([e.slope for e in per_env if e.gamma == g and e.status == "ok"])
        if len(good) == 0:
            lost = [o for gamma, _, o in outcomes if gamma == g and isinstance(o, RcmError)]
            raise lost[0] if lost else ValidationError(f"every environment fit failed for gamma={g}")
        quenched.append(_slope_summary(g, good))

    def summary_rows(aggregates):
        return [
            [a.gamma, cfg.d, box, window[0], window[1], a.slope, a.ci_low, a.ci_high, a.n_envs]
            for a in aggregates
        ]

    summary_header = ["gamma", "d", "N", "t_min", "t_max", "slope", "ci_low", "ci_high", "n_envs"]
    write_curves_csv(out / "curves.csv", results)
    write_csv(
        out / "exponent_fits.csv",
        ["gamma", "d", "N", "t_min", "t_max", "slope", "ci_low", "ci_high", "seed", "status"],
        [[e.gamma, cfg.d, box, window[0], window[1], e.slope, e.ci_low, e.ci_high, e.seed, e.status] for e in per_env],
    )
    files = ["curves.csv", "exponent_fits.csv"]
    annealed_fits: list[AggregateSlope] = []
    if annealed:
        annealed_rows = []
        for g in cfg.gammas():
            fit, rows = _annealed_fit(cfg, g, [r for r in results if r[0] == g], window)
            annealed_fits.append(fit)
            annealed_rows.extend(rows)
        write_csv(
            out / "annealed_curve.csv",
            ["t", "p", "stderr", "method", "d", "N", "gamma", "n_envs"],
            annealed_rows,
        )
        write_csv(out / "annealed_report.csv", summary_header, summary_rows(annealed_fits))
        files += ["annealed_curve.csv", "annealed_report.csv"]
    write_csv(out / "exponent_report.csv", summary_header, summary_rows(quenched))
    files.append("exponent_report.csv")
    elapsed = time.monotonic() - start
    steps = {"lanczos_steps": str(max(r[2].steps for r in results))} if cfg.method == "exact" else None
    write_manifest(out, "annealed" if annealed else "exponent", cfg, files, elapsed, extra=steps)
    return ExperimentReport(
        kind="annealed" if annealed else "quenched",
        config_hash=config_hash(cfg),
        box_radius=box,
        window=window,
        per_env=per_env,
        quenched=quenched,
        annealed=annealed_fits,
        elapsed_s=elapsed,
        files=files + ["manifest.txt"],
        curves=[r[2] for r in results],
    )


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------


def _bound_job(cfg: ExperimentConfig, gamma: float, seed: int):
    d, n_max, mu = cfg.d, max(cfg.N_list), cfg.mu
    env = sample_environment(BoxGeometry(d, n_max + 1), gamma, seed)
    xi = threshold_for_density(gamma, cfg.p)
    decomp = strong_cluster(env, xi)
    report = hole_volume_report(decomp)
    hole_row = (
        gamma,
        d,
        n_max,
        seed,
        len(decomp.holes),
        report.max_volume,
        math.log(n_max) ** 2.5,
        report.max_volume <= math.log(n_max) ** 2.5,
    )

    spectral_rows = []
    survival_rows = []
    routes = []
    survival_steps = survival_pairs = 0
    n_exit = min(cfg.N_list)
    for n in cfg.N_list:
        spec = prescribed_spec(env, decomp, n, mu=mu, b=cfg.b, epsilon=cfg.epsilon)
        cert = lambda1_floor_check(spec)
        spectral_rows.append(
            (gamma, d, n, xi, spec.lam, cert.m_N, cert.passed, cert.neg_pivots, cert.iterations)
        )
        routes.append(cert.method)
        sb = survival_bound_check(spec)
        survival_rows.append((gamma, d, n, seed, sb.t, sb.lam, sb.lhs_log, sb.rhs_log, sb.passed))
        survival_steps += sb.steps
        survival_pairs += sb.ritz_pairs
        if n == n_exit:
            tail = exit_time_tail_check(spec, np.geomspace(n**2 / 16.0, n**2, 8))

    exit_rows = [
        (gamma, d, n_exit, seed, tail.t[j], tail.p_exit[j], tail.bound[j])
        for j in range(len(tail.t))
    ]
    survival = (survival_steps, survival_pairs)
    return hole_row, spectral_rows, survival_rows, exit_rows, bool(tail.all_below), routes, survival, tail.products


def run_bound_suite(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Hole-volume, spectral-floor, survival and exit-tail checks over an ensemble."""
    cfg.validate()
    if cfg.n_environments < 1:
        raise ValidationError("n_environments must be >= 1 for the bound suite")
    if cfg.homogeneous:
        raise ValidationError("the bound suite needs random environments")
    start = time.monotonic()
    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    results = [outcome for _, _, outcome in _map_jobs(_bound_job, cfg, threads)]

    hole_rows = [r[0] for r in results]
    spectral_rows = [row for r in results for row in r[1]]
    survival_rows = [row for r in results for row in r[2]]
    exit_rows = [row for r in results for row in r[3]]
    exit_ok = [r[4] for r in results]
    routes = [method for r in results for method in r[5]]
    survival_steps = sum(r[6][0] for r in results)
    survival_pairs = sum(r[6][1] for r in results)
    exit_products = sum(r[7] for r in results)

    files = []
    write_csv(
        out / "holes.csv",
        ["gamma", "d", "N", "seed", "n_holes", "max_volume", "bound", "pass"],
        hole_rows,
    )
    files.append("holes.csv")
    write_csv(
        out / "spectral_report.csv",
        ["gamma", "d", "N", "xi_hat", "lambda", "bound_m_N", "pass", "neg_pivots", "iterations"],
        spectral_rows,
    )
    files.append("spectral_report.csv")
    write_csv(
        out / "survival.csv",
        ["gamma", "d", "N", "seed", "t", "lambda", "lhs_log", "rhs_log", "pass"],
        survival_rows,
    )
    files.append("survival.csv")
    write_csv(
        out / "exit_tail.csv",
        ["gamma", "d", "N", "seed", "t", "p_exit", "bound"],
        exit_rows,
    )
    files.append("exit_tail.csv")

    pass_rates = {
        "hole_volume": float(np.mean([row[-1] for row in hole_rows])),
        "lambda1_floor": float(np.mean([row[6] for row in spectral_rows])),
        "survival_bound": float(np.mean([row[-1] for row in survival_rows])),
        "exit_tail": float(np.mean(exit_ok)),
    }
    elapsed = time.monotonic() - start
    write_manifest(
        out,
        "bounds",
        cfg,
        files,
        elapsed,
        extra={
            **{f"pass_rate_{k}": str(v) for k, v in pass_rates.items()},
            "floor_inertia_fallbacks": str(sum(method != "barta" for method in routes)),
            "floor_eigsh_fallbacks": str(routes.count("eigsh")),
            "survival_lanczos_steps": str(survival_steps),
            "survival_ritz_pairs": str(survival_pairs),
            "exit_tail_products": str(exit_products),
        },
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

