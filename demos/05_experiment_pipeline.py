"""Config-driven experiment runs with manifests.

Runs a scaled-down quenched study, the matching annealed aggregation, and
the bound suite, then shows what lands in the output directories.  The
shipped configs (quenched_d2_gamma2.cfg, bounds_default.cfg,
annealed_small_gamma.cfg) are full-size versions of the same runs; the CLI
equivalents are `rcmwalk exponent|bounds --config <file>`.
"""

import tempfile
from pathlib import Path

from rcmwalk.experiments import (
    ExperimentConfig,
    run_bound_suite,
    run_exponent,
)

with tempfile.TemporaryDirectory() as tmp:
    cfg = ExperimentConfig(
        d=2,
        gamma=2.0,
        p=0.95,
        t_min=10.0,
        t_max=120.0,
        N_list=(16, 24),
        n_environments=5,
        n_paths=500,
        master_seed=2024,
        directory=str(Path(tmp) / "quenched"),
    )

    rep = run_exponent(cfg)
    agg = rep.quenched[0]
    print(f"quenched: slope {agg.slope:.4f} CI [{agg.ci_low:.4f}, {agg.ci_high:.4f}] "
          f"over {agg.n_envs} environments (box N={rep.box_radius})")

    cfg.directory = str(Path(tmp) / "annealed")
    rep_a = run_exponent(cfg, annealed=True)
    print(f"annealed: slope {rep_a.annealed[0].slope:.4f} "
          f"(quenched mean {rep_a.quenched[0].slope:.4f})")

    cfg.directory = str(Path(tmp) / "bounds")
    rep_b = run_bound_suite(cfg)
    print("bound-suite pass rates:", rep_b.pass_rates)

    print("\nemitted files:")
    for run_dir in sorted(Path(tmp).iterdir()):
        for f in sorted(run_dir.iterdir()):
            print(f"  {run_dir.name}/{f.name}")
    manifest = (Path(tmp) / "quenched" / "manifest.txt").read_text().splitlines()
    print("\nquenched manifest head:")
    for line in manifest[:6]:
        print(" ", line)
