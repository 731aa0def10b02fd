#!/usr/bin/env python3
"""Benchmark femtosim experiments the way users run them.

    python3 femtobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload fixes an experiment and its
configuration; ``--seed`` N sets the configuration's seed (N mod 2**32, or
the first seed from that times 1000 with the workload's neighbor count).  The
run times set-up (imports plus config load and validation) in fresh
interpreters, repeats ``femtosim.cli.run_experiment`` untraced as often as
fits in S seconds (at least three times), then runs it once more with tracing wrappers
installed.  Every CSV written must be byte-identical, and the traced run's
rows and structures go through the checks in ``checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary goes to
standard error.  The exit code is 0 only when every check passed.
"""

import os

# One BLAS/OpenMP thread: the experiments' matrix-vector products are small,
# and extra threads on a shared machine add noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "runs"

# name -> (experiment, config overrides, neighbors); README.md says why each
# exists.  Monte Carlo work grows with the reference FAP's neighbor count K,
# Poisson(10) at 1000 FAPs; where ``neighbors`` is set, the seed is the first
# from N * 1000 whose deployment has that K, so every seed does equal work.
WORKLOADS = {
    "ablation-dense": ("son-ablation", ("n_faps=4000", "n_trials=2000"), None),
    "sweep-admission": ("fig6", ("densities=500,1000,2000,4000", "n_trials=2000"), None),
    "mc-outage": ("fig5", ("n_faps=1000", "n_trials=2000000"), 10),
}
SETUP_SAMPLES = 11
MIN_REPS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _time_setup(keys) -> float:
    """Median set-up seconds over fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *keys],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _seed_with_neighbors(run_experiment, config, experiment, first, neighbors) -> int:
    """First seed from ``first`` on whose reference FAP has ``neighbors`` neighbors."""
    counts = []
    tracer = tracing.Tracer({
        "channel.link_coefficients": lambda result, *args, **kwargs: counts.append(len(result[0]))
    })
    for seed in range(first, first + 1000):
        counts.clear()
        with tracer.installed():
            run_experiment(config(seed), experiment, 1)
        if counts[0] == neighbors:
            return seed
    raise RuntimeError(f"no seed in [{first}, {first + 1000}) gives K = {neighbors}")


def _layer_metrics(tracer, recorder, pairs, traced_wall, untraced_wall, csv_bytes):
    """Per-layer metrics of the traced run: (name, value, unit)."""
    out = []
    for module, attr in tracing.TRACED:
        name = tracing.span_name(module, attr)
        out.append((f"{name}_s", tracer.self_s[name], "s"))
        out.append((f"{name}_incl_s", tracer.incl_s[name], "s"))
        out.append((f"{name}_calls", tracer.calls[name], "count"))
    greedy = [(c, e) for v, c, _, e in recorder.conflicts(pairs) if v == "greedy"]
    conflicts, edges = sum(c for c, _ in greedy), sum(e for _, e in greedy)
    out += [
        ("topology.graph_edges", sum(len(p) for p in pairs.values()), "count"),
        ("son.conflict_free_ratio", 1.0 - conflicts / edges if edges else 1.0, "ratio"),
        ("channel.neighbors_k", sum(len(c) for c, _, _ in recorder.links), "count"),
        ("channel.cochannel_k", sum(int((c != 0).sum()) for c, _, _ in recorder.links), "count"),
        ("outage.trials", sum(est.n_trials for est, _ in recorder.estimates), "count"),
        ("outage.fading_draws", sum(
            est.n_trials * (2 * len(c) + 3) for est, (c, _, _) in recorder.estimates
        ), "count-computed"),
        ("cli.csv_bytes", csv_bytes, "B"),
    ]
    layer_s = tracer.layer_self_s()
    out += [(f"share.{layer}", layer_s[layer] / traced_wall, "ratio") for layer in tracing.LAYERS]
    out += [
        ("trace.wall_s", traced_wall, "s"),
        ("trace.overhead_s", traced_wall - untraced_wall, "s"),
        ("trace.capture_s", tracer.capture_s, "s"),
    ]
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "femtosim" / "__init__.py").is_file():
        print(f"error: femtosim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import femtosim
    from femtosim import cli
    from femtosim.config import ExperimentConfig, apply_overrides

    if Path(femtosim.__file__).resolve().parent != SRC / "femtosim":
        print(f"error: imported femtosim from {femtosim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    experiment, keys, neighbors = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    csv_path = OUT_DIR / f"{args.workload}.csv"
    seed = args.seed % 2**32
    if neighbors is not None:
        seed = _seed_with_neighbors(
            cli.run_experiment,
            lambda s: apply_overrides(
                ExperimentConfig(), [*keys, "n_trials=1", f"seed={s}", f"out={csv_path}"]
            ),
            experiment, seed * 1000, neighbors,
        )
    keys = [*keys, f"seed={seed}"]
    setup_s = _time_setup(keys)
    cfg = apply_overrides(ExperimentConfig(), [*keys, f"out={csv_path}"])
    cfg.validate()

    def run_once():
        """Wall seconds of one experiment, or None when it raised."""
        t0 = time.perf_counter()
        try:
            cli.run_experiment(cfg, experiment, 1)
        except Exception:
            traceback.print_exc()
            return None
        return time.perf_counter() - t0

    problems, walls, attempted, failed = [], [], 0, 0
    outputs = set()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # stop before a run that would end past the measuring window
        if attempted >= MIN_REPS and elapsed + elapsed / attempted > args.seconds:
            break
        attempted += 1
        wall = run_once()
        if wall is None:
            failed += 1
            continue
        walls.append(wall)
        outputs.add(csv_path.read_bytes())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # scipy loads only now, after the untraced runs and their memory peak
    import checks

    recorder = checks.Recorder()
    tracer = tracing.Tracer(recorder.captures())
    attempted += 1
    with tracer.installed():
        traced_wall = run_once()
    if traced_wall is None:
        failed += 1
    if traced_wall is None or not walls:
        print(f"error: {failed} of {attempted} runs failed", file=sys.stderr)
        return 1
    text = csv_path.read_bytes()
    outputs.add(text)
    if len(outputs) != 1:
        problems.append(f"{len(outputs)} different CSV files from one seed")

    rows = checks.csv_rows(text.decode())
    row_problems, max_z = checks.check_rows(
        rows, recorder, 10 ** (cfg.gamma_db / 10.0), cfg.n_trials
    )
    pairs = recorder.graph_pairs()
    problems += row_problems + checks.check_structure(recorder, pairs)
    wall_s = statistics.median(walls)

    if args.trace:
        metrics = _layer_metrics(tracer, recorder, pairs, traced_wall, wall_s, len(text))
    else:
        metrics = [
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {seed}: {len(walls)} timed runs, walls {[round(w, 3) for w in walls]},"
        f" {len(rows)} rows, max |z| vs exact outage {max_z:.2f}", file=sys.stderr,
    )
    shares = {k: round(v / traced_wall, 3) for k, v in tracer.layer_self_s().items()}
    print(f"traced layer shares: {shares}", file=sys.stderr)
    for name, value, unit in metrics:
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
