"""Command-line front end.

Subcommands: ``generate``, ``decompose``, ``simulate``, ``exact``,
``spectrum``, ``exponent``, ``bounds``, ``report``.  Every run writes a
manifest next to its CSVs.  Exit codes: 0 success, 2 validation problem,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, RcmError, ValidationError
from .experiments import (
    ExperimentConfig,
    load_config,
    run_bound_suite,
    run_exponent,
    write_csv,
    write_curves_csv,
    write_manifest,
)
from .heatkernel import _mc_estimate, default_time_grid, return_prob_curve_exact
from .lattice import (
    BoxGeometry,
    derive_environment_seeds,
    load_environment,
    sample_environment,
    save_environment,
)
from .percolation import (
    hole_volume_report,
    percolation_density_warning,
    strong_cluster,
    threshold_for_density,
    write_decomposition_csv,
)
from .spectral import OperatorSpec, lambda1, lambda1_floor_check, prescribed_spec
from .walk import ensemble_walk


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least one worker process, got {value}")
    return value


def _common_flags(parser: argparse.ArgumentParser, config: bool = False) -> None:
    """``--seed`` and ``--out``; ``config`` adds the config-driven ``--config`` (required) and ``--threads``."""
    if config:
        parser.add_argument("--config", type=str, required=True, help="experiment config file")
        parser.add_argument("--threads", type=_worker_count, default=1, help="worker processes for ensembles")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=str, default=None, help="output directory")


def _env_flags(parser: argparse.ArgumentParser) -> None:
    """``--env FILE``, or ``--d`` and ``--N`` with ``--gamma`` (``inf`` for all-ones conductances)."""
    parser.add_argument("--env", type=str, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--N", type=int, default=None, help="operator box radius")
    parser.add_argument("--gamma", type=float, default=None, help="tail exponent; inf for all-ones conductances")


def _out_dir(args, default: str = "out") -> Path:
    out = Path(args.out if args.out is not None else default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_env_arg(args):
    """The environment named by ``_env_flags``; ``--N`` is the operator box, one layer inside it."""
    if args.env:
        return load_environment(args.env)
    if args.d is not None and args.N is not None:
        if args.gamma is None:
            raise ValidationError("sampling an environment needs --gamma (inf for all-ones conductances)")
        seed = args.seed if args.seed is not None else 1
        return sample_environment(BoxGeometry(args.d, args.N + 1), args.gamma, seed)
    raise ValidationError("provide --env FILE, or --gamma with --d and --N")


def _cmd_generate(args) -> int:
    start = time.monotonic()
    if args.count < 1:
        raise ValidationError(f"generate needs --count >= 1, got {args.count}")
    out = _out_dir(args)
    master = args.seed if args.seed is not None else 1
    names = []
    for k, seed in enumerate(derive_environment_seeds(master, args.count)):
        env = sample_environment(BoxGeometry(args.d, args.N), args.gamma, int(seed))
        name = f"env_{k:04d}.rcmenv"
        save_environment(env, out / name)
        names.append(name)
    write_manifest(
        out,
        "generate",
        None,
        names,
        time.monotonic() - start,
        extra={"master_seed": str(master), "d": str(args.d), "N": str(args.N)},
    )
    print(f"wrote {len(names)} environment(s) to {out}")
    return 0


def _cmd_decompose(args) -> int:
    start = time.monotonic()
    out = _out_dir(args)
    env = _load_env_arg(args)
    if args.xi is not None:
        xi = args.xi
    else:
        if not math.isfinite(env.gamma):
            raise ValidationError("homogeneous environments need an explicit --xi")
        xi = threshold_for_density(env.gamma, args.p)
        warning = percolation_density_warning(env.geometry.d, args.p)
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
    decomp = strong_cluster(env, xi)
    write_decomposition_csv(decomp, out / "decomposition.csv")
    report = hole_volume_report(decomp)
    rows = [
        [int(n), int(v), b, bool(v > b)]
        for n, v, b in zip(report.n_values, report.max_volume_by_n, report.bound_by_n)
    ]
    write_csv(out / "holes_report.csv", ["n", "max_volume", "bound", "exceeds"], rows)
    write_manifest(
        out,
        "decompose",
        None,
        ["decomposition.csv", "holes_report.csv"],
        time.monotonic() - start,
        extra={"xi": str(xi), "cluster_sites": str(decomp.cluster_size), "holes": str(len(decomp.holes))},
    )
    print(
        f"strong cluster: {decomp.cluster_size}/{env.geometry.n_sites} sites, "
        f"{len(decomp.holes)} hole(s), max volume {report.max_volume}"
    )
    return 0


def _cmd_simulate(args) -> int:
    start = time.monotonic()
    out = _out_dir(args)
    env = _load_env_arg(args)
    seed = args.seed if args.seed is not None else 1
    rng = np.random.default_rng([seed, 0x51A1])
    grid = default_time_grid(args.t_min, args.t_max, args.points_per_decade)
    res = ensemble_walk(env, env.geometry.origin, args.n_paths, float(grid[-1]), rng, real_grid=grid)
    p, stderr = _mc_estimate(res, env.geometry.origin)
    rows = [[grid[j], p[j], stderr[j], args.n_paths, seed] for j in range(len(grid))]
    write_csv(out / "trajectory_summary.csv", ["t", "estimate", "stderr", "n_paths", "seed"], rows)
    files = ["trajectory_summary.csv"]
    if args.dump_paths:
        np.savez_compressed(out / "paths.npz", t=grid, site_at=res.site_at, tau=res.tau, seed=seed)
        files.append("paths.npz")
    write_manifest(
        out,
        "simulate",
        None,
        files,
        time.monotonic() - start,
        extra={"master_seed": str(seed), "n_paths": str(args.n_paths)},
    )
    print(f"MC return curve on {len(grid)} grid points written to {out}")
    return 0


def _cmd_exact(args) -> int:
    start = time.monotonic()
    out = _out_dir(args)
    env = _load_env_arg(args)
    if args.t is not None:
        grid = np.array([args.t], dtype=float)
    else:
        grid = default_time_grid(args.t_min, args.t_max, args.points_per_decade)
    curve = return_prob_curve_exact(env, grid, tol=args.tol, box_radius=args.box_radius)
    write_curves_csv(out / "exact_curve.csv", [curve])
    write_manifest(
        out, "exact", None, ["exact_curve.csv"], time.monotonic() - start, extra={"lanczos_steps": str(curve.steps)}
    )
    if args.t is not None:
        print(repr(float(curve.p[0])))
    else:
        print(f"exact curve on {len(grid)} grid points written to {out}")
    return 0


def _cmd_spectrum(args) -> int:
    start = time.monotonic()
    out = _out_dir(args)
    env = _load_env_arg(args)
    decomp = None
    xi = args.xi
    if math.isfinite(env.gamma):
        xi = xi if xi is not None else threshold_for_density(env.gamma, args.p)
        decomp = strong_cluster(env, xi)
    if decomp is not None and args.lam is None:
        spec = prescribed_spec(env, decomp, args.box_radius, mu=args.mu)
    else:
        lam = 0.0 if args.lam is None else args.lam
        spec = OperatorSpec(env=env, decomp=decomp, box_radius=args.box_radius, lam=lam, mu=args.mu)
    cert = lambda1_floor_check(spec, tol=args.tol)
    rep = lambda1(spec, tol=args.tol) if cert.principal is None else cert.principal  # one eigensolve either way
    row = [env.gamma, env.geometry.d, spec.box_radius, xi if xi is not None else "", spec.lam]
    row += [rep.Lambda1, cert.m_N, cert.passed, rep.residual, rep.iterations]
    write_csv(
        out / "spectral_report.csv",
        ["gamma", "d", "N", "xi_hat", "lambda", "Lambda1", "bound_m_N", "pass", "residual", "iterations"],
        [row],
    )
    write_manifest(out, "spectrum", None, ["spectral_report.csv"], time.monotonic() - start)
    print(f"Lambda1 = {rep.Lambda1!r} (floor m(N) = {cert.m_N!r}, pass = {cert.passed})")
    return 0


def _config_arg(args) -> ExperimentConfig:
    """The ``--config`` file, with ``--seed`` overriding its master seed and ``--out`` its directory."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.out is not None:
        cfg.directory = args.out
    return cfg


def _cmd_exponent(args) -> int:
    cfg = _config_arg(args)
    report = run_exponent(cfg, threads=args.threads, annealed=args.annealed)
    q, a = report.quenched, report.annealed
    print(f"gamma={cfg.gamma}: quenched slope {q.slope:.4f} [{q.ci_low:.4f}, {q.ci_high:.4f}] over {q.n_envs} envs")
    if a is not None:
        print(f"gamma={cfg.gamma}: annealed slope {a.slope:.4f} [{a.ci_low:.4f}, {a.ci_high:.4f}]")
    print(f"report written to {cfg.directory}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _config_arg(args)
    report = run_bound_suite(cfg, threads=args.threads)
    for name, rate in report.pass_rates.items():
        print(f"{name}: pass rate {rate:.3f}")
    print(f"report written to {cfg.directory}")
    return 0


def _cmd_report(args) -> int:
    root = Path(args.out if args.out is not None else "out")
    manifests = sorted(root.glob("**/manifest.txt"))
    if not manifests:
        raise ValidationError(f"no manifests found under {root}")
    lines = []
    bad = 0
    for mpath in manifests:
        lines.append(f"run: {mpath.parent}")
        for raw in mpath.read_text().splitlines():
            if raw.startswith("file="):
                name, digest = raw[len("file=") :].rsplit(" sha256:", 1)
                fpath = mpath.parent / name
                if not fpath.is_file():
                    status = "MISSING"
                    bad += 1
                elif hashlib.sha256(fpath.read_bytes()).hexdigest() != digest:
                    status = "HASH-MISMATCH"
                    bad += 1
                else:
                    status = "ok"
                lines.append(f"  {name}: {status}")
            elif not raw.startswith(("manifest_version=", "package=", "elapsed_s=")):
                lines.append(f"  {raw}")
        lines.append("")
    text = "\n".join(lines)
    (root / "report.txt").write_text(text)
    print(text)
    print(f"{len(manifests)} run(s), {bad} stale file(s); report.txt written to {root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcmwalk",
        description="Random walks among i.i.d. random conductances: simulation and verification",
    )
    parser.add_argument("--version", action="version", version=f"rcmwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample environments to binary files")
    _common_flags(p_gen)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--N", type=int, required=True, help="environment box radius")
    p_gen.add_argument("--gamma", type=float, required=True, help="tail exponent; inf for all-ones conductances")
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.set_defaults(func=_cmd_generate)

    p_dec = sub.add_parser("decompose", help="strong cluster and holes of an environment")
    _common_flags(p_dec)
    _env_flags(p_dec)
    p_dec.add_argument("--p", type=float, default=0.95, help="strong-bond density")
    p_dec.add_argument("--xi", type=float, default=None, help="explicit threshold")
    p_dec.set_defaults(func=_cmd_decompose)

    p_sim = sub.add_parser("simulate", help="Monte Carlo return-probability curve")
    _common_flags(p_sim)
    _env_flags(p_sim)
    p_sim.add_argument("--t-min", type=float, default=1.0)
    p_sim.add_argument("--t-max", type=float, default=50.0)
    p_sim.add_argument("--points-per-decade", type=int, default=12)
    p_sim.add_argument("--n-paths", type=int, default=2000)
    p_sim.add_argument("--dump-paths", action="store_true", help="also write raw grid positions (npz)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ex = sub.add_parser("exact", help="exact return probability (Lanczos quadrature bracket)")
    _common_flags(p_ex)
    _env_flags(p_ex)
    p_ex.add_argument("--t", type=float, default=None, help="single time; prints the value")
    p_ex.add_argument("--t-min", type=float, default=1.0)
    p_ex.add_argument("--t-max", type=float, default=50.0)
    p_ex.add_argument("--points-per-decade", type=int, default=12)
    p_ex.add_argument("--tol", type=float, default=1e-12,
                      help="relative bracket width on p; below ~1e-13 at t near 800 a run may wander to its step cap")
    p_ex.add_argument("--box-radius", type=int, default=None)
    p_ex.set_defaults(func=_cmd_exact)

    p_sp = sub.add_parser("spectrum", help="principal eigenvalue of the killed operator")
    _common_flags(p_sp)
    _env_flags(p_sp)
    p_sp.add_argument("--p", type=float, default=0.95)
    p_sp.add_argument("--xi", type=float, default=None)
    p_sp.add_argument("--lam", type=float, default=None, help="killing rate (default: prescribed)")
    p_sp.add_argument("--mu", type=float, default=0.1)
    p_sp.add_argument("--tol", type=float, default=1e-10)
    p_sp.add_argument("--box-radius", type=int, default=None)
    p_sp.set_defaults(func=_cmd_spectrum)

    p_expo = sub.add_parser("exponent", help="quenched/annealed exponent study from a config")
    _common_flags(p_expo, config=True)
    p_expo.add_argument("--annealed", action="store_true", help="average curves before fitting")
    p_expo.set_defaults(func=_cmd_exponent)

    p_bnd = sub.add_parser("bounds", help="hole/spectral/survival/exit bound suite from a config")
    _common_flags(p_bnd, config=True)
    p_bnd.set_defaults(func=_cmd_bounds)

    p_rep = sub.add_parser("report", help="verify manifests and summarize runs")
    p_rep.add_argument("--out", type=str, default=None, help="directory searched for manifests")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except RcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
