"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s).

All runs use the shipped default configuration (seed included) unless a
criterion needs its own construction; every tolerance is pinned here.
"""

import math

import numpy as np
from scipy import stats

from femtosim.channel import PropagationParams
from femtosim.cli import main
from femtosim.config import ExperimentConfig
from femtosim.outage import OutageConfig, conditional_outage, density_sweep, estimate
from femtosim.son import assign_uniform_random_colors, configure_frequencies, noncochannel_fraction
from femtosim.spectrum import Scheme, UeRegion, build_plan
from femtosim.topology import DeploymentParams, Scenario, apply_plan, generate, neighbor_graph

CFG = ExperimentConfig()  # shipped defaults: Table-2 values, seed 2
GAMMA_LIN = 10 ** (CFG.gamma_db / 10.0)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _default_sweep(densities, schemes, n_trials=None):
    cfg = CFG
    oc = cfg.outage_config()
    if n_trials is not None:
        oc = OutageConfig(
            gamma_db=oc.gamma_db, n_trials=n_trials, ue_distance=oc.ue_distance,
            ue_region=oc.ue_region, n_shards=oc.n_shards, ue_direction=oc.ue_direction,
        )
    return density_sweep(
        densities, schemes, oc, cfg.propagation(), cfg.seed,
        dep_params=cfg.deployment_params(), total_band=cfg.total_band(),
        femto_fraction=cfg.femto_fraction, edge_split=cfg.edge_split,
    )


def test_criterion_1_closed_form_mc_equivalence():
    # >= 1e5 trials on the Table-2 dense scenario: the exact closed form
    # and the direct Monte Carlo count agree within 3 combined standard errors
    rows = _default_sweep([CFG.n_faps], [Scheme.SAME], n_trials=100_000)
    est = rows[0].estimate
    se = math.hypot(est.closed_form_se, est.ci95_halfwidth / 1.96)
    diff = abs(est.p_out_closed - est.p_out_mc)
    _report(1, "closed-form vs MC", diff < 3 * se,
            f"|{est.p_out_closed:.6f} - {est.p_out_mc:.6f}| = {diff:.2e} < 3*{se:.2e}")


def test_criterion_2_scheme_ordering():
    rows = _default_sweep([CFG.n_faps], list(Scheme))
    r = {row.scheme: row.estimate for row in rows}
    dyn, ded = r[Scheme.DYNAMIC_REUSE], r[Scheme.DEDICATED]
    same, part = r[Scheme.SAME], r[Scheme.PARTIAL]
    mc_se = same.ci95_halfwidth / 1.96
    ordering = dyn.p_out_closed < ded.p_out_closed < same.p_out_closed
    tie = abs(part.p_out_closed - same.p_out_closed) <= max(mc_se, 1e-15)
    factor = ded.p_out_closed / dyn.p_out_closed if dyn.p_out_closed > 0 else math.inf
    ok = ordering and tie and factor >= 2.0
    _report(2, "scheme ordering", ok,
            f"dyn={dyn.p_out_closed:.5f} < ded={ded.p_out_closed:.5f} < "
            f"same={same.p_out_closed:.5f}, partial-same={part.p_out_closed - same.p_out_closed:.1e}, "
            f"factor={factor:.1f} >= 2")


def test_criterion_3_zero_interference_limit():
    params = PropagationParams()
    oc = OutageConfig(n_trials=20_000)
    # scenario A: one femtocell, no macrocell
    plan = build_plan(Scheme.SAME, CFG.total_band(), 3)
    dep_a = generate(Scenario.A, DeploymentParams(n_faps=1), seed=CFG.seed)
    apply_plan(dep_a, plan)
    est_a = estimate(dep_a, 0, plan, oc, params, seed=CFG.seed)
    # fully orthogonal allocation: dedicated scheme (Y=0) with no FAP in
    # neighbor range (scenario B)
    ded = build_plan(Scheme.DEDICATED, CFG.total_band(), 3, femto_fraction=CFG.femto_fraction)
    dep_b = generate(Scenario.B, DeploymentParams(n_faps=20), seed=CFG.seed)
    apply_plan(dep_b, ded)
    est_b = estimate(dep_b, 0, ded, oc, params, seed=CFG.seed)
    ok = (est_a.p_out_closed == 0.0 and est_a.p_out_mc == 0.0
          and est_b.p_out_closed == 0.0 and est_b.p_out_mc == 0.0)
    _report(3, "zero-interference limit", ok,
            f"A: ({est_a.p_out_closed}, {est_a.p_out_mc}), "
            f"B+dedicated: ({est_b.p_out_closed}, {est_b.p_out_mc}) == 0 exactly")


def test_criterion_4_coloring_floor():
    # 20 independent 1000-FAP deployments: mean non-co-channel fraction under
    # SON coloring >= 2/3 and strictly above uniform-random colors (paired, 3 sigma)
    plan = build_plan(Scheme.DYNAMIC_REUSE, CFG.total_band(), 3, edge_split=CFG.edge_split)
    params = CFG.deployment_params()
    rng = np.random.default_rng(CFG.seed)
    colored, diffs = [], []
    for k in range(20):
        dep = generate(Scenario.D, params, seed=CFG.seed + 1000 + k)
        apply_plan(dep, plan)
        graph = neighbor_graph(dep, params.neighbor_radius_m)
        configure_frequencies(dep, graph, plan)
        frac_son = noncochannel_fraction(dep, graph, plan, UeRegion.EDGE)
        assign_uniform_random_colors(dep, graph, plan, rng)
        frac_rand = noncochannel_fraction(dep, graph, plan, UeRegion.EDGE)
        colored.append(frac_son)
        diffs.append(frac_son - frac_rand)
    mean_son = float(np.mean(colored))
    d = np.asarray(diffs)
    se_d = d.std(ddof=1) / math.sqrt(len(d))
    ok = mean_son >= 2 / 3 and d.mean() > 3 * se_d
    _report(4, "coloring floor", ok,
            f"mean X=0 fraction {mean_son:.4f} >= 0.6667, "
            f"paired gain {d.mean():.4f} > 3*{se_d:.4f}")


def test_criterion_5_poisson_neighbor_fit():
    # interior-FAP neighbor counts vs Poisson(10), chi-squared at alpha = 0.01;
    # bins grouped so every expected count is >= 5
    params = CFG.deployment_params()
    dep = generate(Scenario.D, params, seed=CFG.seed)
    graph = neighbor_graph(dep, params.neighbor_radius_m)
    radii = np.linalg.norm(dep.positions(), axis=1)
    interior = [f.id for f, r in zip(dep.faps, radii)
                if r <= params.macro_radius_m - params.neighbor_radius_m]
    counts = np.array([graph.degree(i) for i in interior])
    lam = (params.n_faps / (math.pi * params.macro_radius_m**2)) * \
        math.pi * params.neighbor_radius_m**2
    n = len(counts)
    max_k = counts.max()
    observed = np.bincount(counts, minlength=max_k + 1).astype(float)
    expected = np.array([stats.poisson.pmf(k, lam) for k in range(max_k)] +
                        [stats.poisson.sf(max_k - 1, lam)]) * n
    # pool adjacent cells until each expected count is >= 5
    obs_p, exp_p = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_p.append(o_acc)
            exp_p.append(e_acc)
            o_acc = e_acc = 0.0
    obs_p[-1] += o_acc
    exp_p[-1] += e_acc
    chi2 = float(((np.array(obs_p) - np.array(exp_p)) ** 2 / np.array(exp_p)).sum())
    crit = stats.chi2.ppf(0.99, df=len(obs_p) - 1)
    ok = chi2 < crit and abs(lam - 10.0) < 1e-9
    _report(5, "Poisson neighbor fit", ok,
            f"chi2 {chi2:.1f} < {crit:.1f} (df {len(obs_p) - 1}, "
            f"{n} interior FAPs, lambda {lam:.1f})")


def test_criterion_6_density_monotonicity():
    densities = [100, 300, 1000, 3000]
    rows = _default_sweep(densities, list(Scheme), n_trials=50_000)
    ok = True
    details = []
    for scheme in Scheme:
        series = [(r.estimate.p_out_closed, r.estimate.closed_form_se)
                  for r in rows if r.scheme is scheme]
        for (a, sa), (b, sb) in zip(series, series[1:]):
            if b < a - 3 * math.hypot(sa, sb):
                ok = False
        details.append(f"{scheme.value}={['%.4f' % v for v, _ in series]}")
    _report(6, "density monotonicity", ok, "; ".join(details))


def test_criterion_7_determinism(tmp_path, capsys):
    base = [
        "run", "--experiment", "fig5",
        "--set", "n_trials=50000",
    ]

    def run(name, workers):
        out = tmp_path / name
        code = main(base + ["--out", str(out), "--workers", str(workers)])
        assert code == 0
        with open(out) as f:
            return [line for line in f if not line.startswith("#")]

    body1 = run("a.csv", 1)
    body2 = run("b.csv", 1)
    body8 = run("c.csv", 8)
    ok = body1 == body2 == body8
    with capsys.disabled():
        _report(7, "determinism", ok,
                f"{len(body1) - 1} rows byte-identical across reruns and 1-vs-8 workers")


def test_criterion_8_closed_form_factorization():
    # conditional_outage(s, sum I_i, g) == 1 - prod_i exp(-g I_i / s) within
    # 1e-12 relative error on 1e4 random inputs
    rng = np.random.default_rng(CFG.seed)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 20))
        terms = rng.exponential(size=k)
        s_bar = rng.uniform(0.2, 5.0)
        exponent = rng.uniform(0.01, 20.0)  # g * I_total / s_bar
        terms *= exponent * s_bar / (GAMMA_LIN * terms.sum())
        direct = conditional_outage(s_bar, float(terms.sum()), GAMMA_LIN)
        product = 1.0
        for t in terms:
            product *= math.exp(-GAMMA_LIN * t / s_bar)
        rel = abs(direct - (1.0 - product)) / max(direct, 1.0 - product)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _report(8, "closed-form factorization", ok, f"max relative error {worst:.2e} <= 1e-12")
