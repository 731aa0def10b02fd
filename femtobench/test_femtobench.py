"""Tests of the benchmark's own output checks and tracing.

Run with ``python -m pytest femtobench`` from the repository root.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from femtosim import cli, outage, son, topology  # noqa: E402
from femtosim.config import ExperimentConfig, apply_overrides  # noqa: E402

GAMMA = 10 ** 0.9
EULER_GAMMA = 0.5772156649015329


def _traced(tmp_path_factory, experiment, overrides):
    out = tmp_path_factory.mktemp(experiment) / "out.csv"
    cfg = apply_overrides(ExperimentConfig(), [*overrides, f"out={out}"])
    recorder = checks.Recorder()
    tracer = tracing.Tracer(recorder.captures())
    with tracer.installed():
        cli.run_experiment(cfg, experiment, 1)
    return cfg, recorder, tracer, checks.csv_rows(out.read_text())


@pytest.fixture(scope="module")
def fig5(tmp_path_factory):
    return _traced(tmp_path_factory, "fig5", ["n_trials=4000"])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _traced(tmp_path_factory, "fig6", ["densities=100,300,600", "n_trials=1000"])


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    return _traced(tmp_path_factory, "son-ablation", ["n_faps=1000", "n_trials=1000"])


@pytest.mark.parametrize("a", np.logspace(-6, 6, 25))
def test_phi_matches_quadrature(a):
    # phi(a) = E_xi[1 / (1 + a xi)] = int_0^inf e^-t / (1 + a t) dt
    ref, _ = integrate.quad(lambda t: math.exp(-t) / (1.0 + a * t), 0.0, math.inf,
                            epsabs=0.0, epsrel=1e-12, limit=200)
    assert checks.phi(a)[0] == pytest.approx(ref, rel=1e-9)


def test_phi_extremes_follow_asymptotes_without_overflow():
    small = np.array([1e-12, 1e-10, 1e-8])
    np.testing.assert_allclose(checks.phi(small), 1.0 - small + 2.0 * small**2, rtol=1e-15)
    large = np.array([1e9, 1e10, 1e12])
    np.testing.assert_allclose(
        checks.phi(large), (np.log(large) - EULER_GAMMA) / large, rtol=1e-6
    )
    assert checks.phi([0.0]).tolist() == [1.0]


def test_exact_outage_matches_direct_monte_carlo():
    rng = np.random.default_rng(5)
    coeffs = np.array([3e-7, 1e-8, 0.0, 2e-6, 1e-12])
    macro, s_bar, n = 4e-7, 2.8e-5, 400_000
    p = checks.exact_outage(coeffs, macro, s_bar, GAMMA)
    interference = (rng.exponential(size=(n, 5)) * rng.exponential(size=(n, 5))) @ coeffs
    interference += macro * rng.exponential(size=n) * rng.exponential(size=n)
    p_mc = np.mean(rng.exponential(size=n) < GAMMA * interference / s_bar)
    assert abs(p_mc - p) < checks.bernstein_halfwidth(p, n)
    assert abs(p_mc - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_exact_outage_is_zero_without_interferers_and_finite_for_weak_ones():
    assert checks.exact_outage(np.zeros(4), 0.0, 1e-5, GAMMA) == 0.0
    weak = checks.exact_outage(np.full(3, 1e-25), 0.0, 1e-5, GAMMA)
    assert weak == pytest.approx(3 * GAMMA * 1e-20, rel=1e-6)


@pytest.mark.parametrize("p,n", [(0.3, 2000), (1e-3, 2_000_000), (1e-6, 2000)])
def test_bernstein_halfwidth_solves_the_bound(p, n):
    t = checks.bernstein_halfwidth(p, n)
    tail = 2.0 * math.exp(-n * t * t / (2.0 * p * (1.0 - p) + 2.0 * t / 3.0))
    assert tail == pytest.approx(checks.FALSE_ALARM, rel=1e-9)


def test_every_traced_callable_resolves_and_is_restored():
    originals = {}
    for module, attr in tracing.TRACED:
        owner = sys.modules[f"femtosim.{module}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals[(module, attr)] = owner
    with tracing.Tracer().installed():
        assert cli.neighbor_graph is outage.neighbor_graph is topology.neighbor_graph
        assert cli.neighbor_graph is not originals[("topology", "neighbor_graph")]
        assert topology.Deployment.positions is not originals[("topology", "Deployment.positions")]
    assert cli.neighbor_graph is outage.neighbor_graph is originals[("topology", "neighbor_graph")]
    assert topology.Deployment.positions is originals[("topology", "Deployment.positions")]
    assert son.admit_fap is originals[("son", "admit_fap")]


def test_self_times_partition_the_traced_run(fig5):
    _, _, tracer, _ = fig5
    # capture callbacks are charged to no span but summed apart
    total = tracer.incl_s["cli.run_experiment"]
    assert sum(tracer.self_s.values()) + tracer.capture_s == pytest.approx(total, rel=1e-6)
    assert tracer.capture_s > 0.0
    assert all(0.0 <= tracer.self_s[k] <= tracer.incl_s[k] for k in tracer.self_s)
    assert tracer.calls["outage.estimate"] == 4


@pytest.mark.parametrize("run", ["fig5", "sweep", "ablation"])
def test_correct_runs_pass_every_check(run, request):
    cfg, recorder, _, rows = request.getfixturevalue(run)
    problems, max_z = checks.check_rows(rows, recorder, GAMMA, cfg.n_trials)
    assert problems == [] and max_z < 5.8
    assert checks.check_structure(recorder, recorder.graph_pairs()) == []


def test_sweep_has_interferer_free_rows(sweep):
    _, recorder, _, rows = sweep
    zero = [r for r, (_, (c, m, _)) in zip(rows, recorder.estimates) if not c.any() and m == 0]
    assert zero and all(float(r["p_out_mc"]) == 0.0 for r in zero)


def _with(rows, index, **changes):
    rows = [dict(r) for r in rows]
    rows[index].update(changes)
    return rows


def test_row_faults_are_flagged(fig5):
    cfg, recorder, _, rows = fig5
    same = next(i for i, r in enumerate(rows) if r["scheme"] == "same")
    partial = next(i for i, r in enumerate(rows) if r["scheme"] == "partial")
    est, _ = recorder.estimates[same]
    shifted = est.p_out_mc + 10 * checks.bernstein_halfwidth(est.p_out_mc, est.n_trials)
    cases = {
        "beyond the bound": _with(rows, same, p_out_mc=repr(shifted)),
        "ci95": _with(rows, same, ci95="0.5"),
        "partial != same": _with(rows, partial, p_out_closed=repr(est.p_out_closed * 0.5)),
        "n_trials": _with(rows, same, n_trials="7"),
    }
    for needle, bad in cases.items():
        problems, _ = checks.check_rows(bad, recorder, GAMMA, cfg.n_trials)
        assert any(needle in p for p in problems), (needle, problems)
    short, _ = checks.check_rows(rows[:-1], recorder, GAMMA, cfg.n_trials)
    assert short and "CSV rows" in short[0]


def test_structure_faults_are_flagged(ablation, sweep):
    _, recorder, _, _ = ablation
    pairs = recorder.graph_pairs()
    graph = recorder.graphs[0][0]
    a, b = next(iter(pairs[id(graph)]))
    pairs_missing = {k: set(v) for k, v in pairs.items()}
    pairs_missing[id(graph)].discard((a, b))
    assert any("cKDTree" in p for p in checks.check_structure(recorder, pairs_missing))

    greedy = next(i for i, c in enumerate(recorder.colorings) if c[0] == "greedy")
    variant, g, state = recorder.colorings[greedy]
    worse = dataclasses.replace(state, colors=dict.fromkeys(state.colors, state.colors[0]))
    recorder.colorings[greedy] = (variant, g, worse)
    try:
        problems = checks.check_structure(recorder, pairs)
    finally:
        recorder.colorings[greedy] = (variant, g, state)
    assert any("greedy coloring has" in p for p in problems)

    _, swept, _, _ = sweep
    for deployment, index, radius in swept.admissions:
        fap = deployment.faps[index]
        near = [f for f in deployment.faps[:index]
                if np.linalg.norm(f.position - fap.position) <= radius]
        if 0 < len({f.allocation.edge_choice for f in near}) < 3:
            break
    original = fap.allocation
    fap.allocation = near[0].allocation
    try:
        problems = checks.check_structure(swept, swept.graph_pairs())
    finally:
        fap.allocation = original
    assert any(f"admitted FAP {index}" in p for p in problems)
