"""Experiment runner.

Subcommands:
  run           execute a named experiment and write its CSV
  validate      check a config file and overrides, write nothing
  print-config  dump the effective configuration (defaults + file + --set)

Experiments:
  fig5          all configured schemes at n_faps FAPs, one row per scheme
  fig6          density sweep across schemes at the configured UE distance
  son-ablation  dynamic re-use with greedy SON coloring vs uniform-random
                colors vs a single shared edge band

CSV files start with '#'-prefixed provenance lines (tool version, experiment,
config hash, seed, and the full effective config), so every row's inputs are
recoverable from the file itself.  Output is written to a temp file and
renamed into place; a failed run leaves nothing behind.  Exit codes: 0 ok,
1 runtime failure, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, son
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_hash,
    effective_text,
    parse_text,
)
from .outage import SweepRow, _seed_int, density_sweep, estimate_variants, sweep_csv_lines
from .spectrum import Scheme
from .topology import Scenario, generate, neighbor_graph

EXPERIMENTS = ("fig5", "fig6", "son-ablation")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_text(path.read_text())
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"seed={args.seed}"])
    if getattr(args, "out", None):
        cfg = apply_overrides(cfg, [f"out={args.out}"])
    cfg.validate()
    return cfg


def _experiment_sweep(cfg: ExperimentConfig, workers: int, densities) -> list[SweepRow]:
    plans = [cfg.plan(s) for s in cfg.scheme_list()]
    return density_sweep(list(densities), plans, cfg.outage_config(), cfg.propagation(),
                         cfg.seed, cfg.deployment_params(), workers)


def _experiment_son_ablation(cfg: ExperimentConfig, workers: int) -> list[SweepRow]:
    """Dynamic re-use at n_faps FAPs under three edge-coloring policies.

    The deployment and its neighbor graph are built once; each policy
    overwrites every FAP's edge color, and its colors are one variant of the
    deployment for ``estimate_variants``, which leaves the last policy's in
    place."""
    plan = cfg.plan(Scheme.DYNAMIC_REUSE)
    dep_seq, trial_seq, color_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    trial_seed = _seed_int(trial_seq)
    dep = generate(Scenario.D, cfg.deployment_params(), _seed_int(dep_seq))
    graph = neighbor_graph(dep, dep.params.neighbor_radius_m)
    son.configure_frequencies(dep, graph, plan)
    greedy = dep.edges().copy()
    son.assign_uniform_random_colors(dep, graph, plan, np.random.default_rng(color_seq))
    random = dep.edges().copy()
    son.assign_shared_edge(dep, graph, plan)
    variants = [(plan, greedy), (plan, random), (plan, dep.edges().copy())]
    ests = estimate_variants(dep, variants, cfg.outage_config(), cfg.propagation(), trial_seed,
                             workers)
    return [SweepRow(scheme=plan.scheme, density=cfg.n_faps, estimate=est, seed=trial_seed,
                     variant=name) for name, est in zip(("greedy", "random", "shared"), ests)]


def _write_csv(path: Path, cfg: ExperimentConfig, experiment: str, body: list[str]) -> None:
    header = [
        f"# femtosim {__version__}",
        f"# experiment={experiment}",
        f"# config_hash={config_hash(cfg)}",
        f"# seed={cfg.seed}",
    ]
    header += [f"# cfg {line}" for line in effective_text(cfg, include_out=False).splitlines()]
    text = "\n".join(header + body) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(cfg: ExperimentConfig, experiment: str, workers: int) -> Path:
    if experiment == "fig5":
        rows = _experiment_sweep(cfg, workers, [cfg.n_faps])
    elif experiment == "fig6":
        rows = _experiment_sweep(cfg, workers, cfg.densities)
    elif experiment == "son-ablation":
        rows = _experiment_son_ablation(cfg, workers)
    else:
        raise ConfigError(f"unknown experiment {experiment!r} (choose from {EXPERIMENTS})")
    out = Path(cfg.out) if cfg.out else Path(f"{experiment}.csv")
    _write_csv(out, cfg, experiment, sweep_csv_lines(rows))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="femtosim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override the seed")

    p_run = sub.add_parser("run", help="run a named experiment")
    common(p_run)
    p_run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p_run.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    p_run.add_argument("--workers", type=int, default=1, help="shard workers (no effect on results)")

    p_val = sub.add_parser("validate", help="validate the configuration")
    common(p_val)

    p_print = sub.add_parser("print-config", help="print the effective configuration")
    common(p_print)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    if args.command == "print-config":
        sys.stdout.write(effective_text(cfg))
        return 0
    if args.command == "validate":
        print(f"config OK (hash {config_hash(cfg)})")
        return 0

    try:
        out = run_experiment(cfg, args.experiment, args.workers)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: distinct exit code, no partial file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
