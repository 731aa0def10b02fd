"""Outage estimator tests: the exact value vs direct Monte Carlo, and the
exact value against an independent scipy evaluation."""

import copy
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from femtosim import cli, outage, son
from femtosim.channel import PropagationParams, link_coefficients
from femtosim.config import ExperimentConfig, apply_overrides
from femtosim.outage import (
    OutageConfig,
    SweepRow,
    conditional_outage,
    density_sweep,
    estimate,
    log_phi,
    nearest_fap_angle,
    sweep_csv_lines,
)
from femtosim.spectrum import Band, EdgeChoice, Scheme, build_plan
from femtosim.topology import (
    Deployment,
    DeploymentParams,
    Scenario,
    apply_plan,
    generate,
    neighbor_graph,
)

TOTAL = Band(0, 60_000_000)
GAMMA_9DB = 10**0.9  # 7.943282347242816


def _plans(schemes, n_sectors=3):
    """The default config's plans of ``schemes`` at ``n_sectors`` sectors."""
    cfg = ExperimentConfig(n_sectors=n_sectors)
    return [cfg.plan(s) for s in schemes]


class TestConditionalOutage:
    def test_zero_interference_is_exactly_zero(self):
        assert conditional_outage(1e-6, 0.0, GAMMA_9DB) == 0.0

    def test_ln2_point(self):
        # gamma * I / s_bar = ln 2  ->  1 - exp(-ln 2) = 0.5
        s_bar = 1.0
        interference = math.log(2.0) / GAMMA_9DB
        assert conditional_outage(s_bar, interference, GAMMA_9DB) == pytest.approx(0.5, rel=1e-12)

    def test_gamma_conversion_value(self):
        assert GAMMA_9DB == pytest.approx(7.943282347242816, rel=1e-15)
        assert OutageConfig(gamma_db=9.0).gamma_linear == GAMMA_9DB

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            conditional_outage(0.0, 1.0, GAMMA_9DB)
        with pytest.raises(ValueError):
            conditional_outage(1.0, -1.0, GAMMA_9DB)
        with pytest.raises(ValueError):
            conditional_outage(1.0, 1.0, 0.0)

    def test_product_form_factorization(self):
        # 1 - exp(-g/S sum I_i) must equal 1 - prod exp(-g I_i / S) to 1e-12
        # relative error; terms are scaled so the exponent stays in [0.01, 20]
        rng = np.random.default_rng(314)
        for _ in range(10_000):
            k = int(rng.integers(1, 20))
            terms = rng.exponential(size=k)
            s_bar = rng.uniform(0.5, 2.0)
            target = rng.uniform(0.01, 20.0)
            terms *= target * s_bar / (GAMMA_9DB * terms.sum())
            direct = conditional_outage(s_bar, float(terms.sum()), GAMMA_9DB)
            product = 1.0
            for t in terms:
                product *= math.exp(-GAMMA_9DB * t / s_bar)
            factored = 1.0 - product
            assert abs(direct - factored) <= 1e-12 * max(direct, factored)

    @given(
        s_bar=st.floats(1e-9, 1e3),
        interference=st.floats(0.0, 1e3),
        gamma=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300)
    def test_bounds_and_monotonicity(self, s_bar, interference, gamma):
        p = conditional_outage(s_bar, interference, gamma)
        assert 0.0 <= p <= 1.0
        assert conditional_outage(s_bar, interference * 2 + 1e-12, gamma) >= p
        assert conditional_outage(s_bar, interference, gamma * 2) >= p
        assert conditional_outage(s_bar * 2, interference, gamma) <= p

    def test_array_input(self):
        p = conditional_outage(1.0, np.array([0.0, 0.1, 1.0]), 1.0)
        assert p.shape == (3,)
        assert p[0] == 0.0 and np.all(np.diff(p) > 0)


def _scipy_phi(a):
    """x e^x E1(x), x = 1/a, from scipy; the scaled U(1, 1, x) = e^x E1(x)
    where e^x would overflow."""
    x = 1.0 / np.asarray(a, dtype=float)
    naive = x < 700.0
    out = np.empty_like(x)
    out[naive] = x[naive] * np.exp(x[naive]) * special.exp1(x[naive])
    out[~naive] = x[~naive] * special.hyperu(1.0, 1.0, x[~naive])
    return out


class TestLogPhi:
    A = np.logspace(-12, 12, 4801)

    def test_matches_scipy(self):
        # plus x = 1/a on both sides of 1, where the series hands over to the
        # continued fraction
        a = np.append(self.A, 1.0 / np.array([1 - 1e-9, np.nextafter(1.0, 0.0), 1.0, 1 + 1e-9]))
        rel = np.abs(np.exp(log_phi(a)) / _scipy_phi(a) - 1.0)
        assert rel.max() <= 1e-12

    def test_negative_and_decreasing(self):
        values = log_phi(self.A)
        assert np.all(values < 0.0)
        assert np.all(np.diff(values) <= 0.0)

    def test_elementwise_independent_of_the_array(self):
        # each value depends on its own a only, bit for bit: the density
        # sweep's monotonicity relies on it
        whole = log_phi(self.A)
        for i in range(0, len(self.A), 97):
            assert log_phi(self.A[i:i + 1])[0] == whole[i]
            assert log_phi(self.A[i:i + 7])[0] == whole[i]


def _prepared(scheme, plan, dep_params, seed):
    """A generated deployment under ``plan``, SON-colored for dynamic re-use."""
    dep = apply_plan(generate(Scenario.D, dep_params, seed), plan)
    if scheme is Scheme.DYNAMIC_REUSE:
        son.configure_frequencies(dep, neighbor_graph(dep, dep_params.neighbor_radius_m), plan)
    return dep


def _dense(scheme, seed=42, n_faps=1000):
    frac = 1 / 3 if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
    plan = build_plan(scheme, TOTAL, 3, femto_fraction=frac)
    dep = generate(Scenario.D, DeploymentParams(n_faps=n_faps), seed)
    apply_plan(dep, plan)
    return dep, plan


def _pair(scheme, position):
    """The reference FAP of ``_dense`` plus one FAP at ``position``."""
    dep, plan = _dense(scheme, n_faps=1)
    dep.extend(position)
    apply_plan(dep, plan)
    return dep, plan


class TestEstimate:
    def test_scenario_a_no_interference(self):
        plan = build_plan(Scheme.SAME, TOTAL, 3)
        dep = generate(Scenario.A, DeploymentParams(n_faps=1), seed=1)
        apply_plan(dep, plan)
        est = estimate(dep, 0, OutageConfig(n_trials=5000), PropagationParams(), seed=3)
        assert est.p_out_closed == 0.0
        assert est.p_out_mc == 0.0

    def test_isolated_fap_dedicated_zero_outage(self):
        # fully orthogonal allocation: no neighbors in range, Y = 0
        dep, plan = _pair(Scheme.DEDICATED, np.array([-900.0, 0.0]))  # far from the reference
        est = estimate(dep, 0, OutageConfig(n_trials=5000), PropagationParams(), seed=3)
        assert est.p_out_closed == 0.0
        assert est.p_out_mc == 0.0

    def test_frozen_fading_analytic_oracle(self):
        # single co-channel neighbor, all fading frozen at 1: the conditional
        # outage has a one-line analytic value
        dep, plan = _pair(Scheme.DEDICATED, np.array([250.0, 0.0]))
        ref = dep.faps[0]  # pinned at (200, 0): the other FAP is 50 m away
        params = PropagationParams()
        cfg = OutageConfig(n_trials=100, ue_distance_m=5.0)
        ue = ref.position + np.array([5.0, 0.0])  # toward the only neighbor
        ids, coeffs, macro_coeff, s_bar = link_coefficients(
            dep, ref, ue, cfg.ue_region, params
        )
        assert macro_coeff == 0.0
        i_total = float(coeffs.sum())  # xi = Z = 1
        expected = 1.0 - math.exp(-cfg.gamma_linear * i_total / s_bar)
        assert conditional_outage(s_bar, i_total, cfg.gamma_linear) == pytest.approx(
            expected, rel=1e-12
        )
        # and the analytic value itself, recomputed from the raw geometry:
        # s_bar = P 5^-2 P0f, I = P 45^-2 P0f / 10  ->  g I / s = g 25/(10*2025)
        assert expected == pytest.approx(
            1.0 - math.exp(-GAMMA_9DB * 25.0 / (10.0 * 45.0**2)), rel=1e-12
        )

    def test_closed_form_tracks_mc(self):
        # the Monte Carlo count agrees with the exact value within 3 MC
        # standard errors (closed_form_se is 0 for the exact value)
        dep, plan = _dense(Scheme.SAME)
        est = estimate(
            dep, 0, OutageConfig(n_trials=100_000), PropagationParams(), seed=5
        )
        se = math.hypot(est.closed_form_se, est.ci95_halfwidth / 1.96)
        assert abs(est.p_out_closed - est.p_out_mc) < 3 * se

    def test_paired_per_trial_oracle(self):
        # on two trial seeds, each Monte Carlo count agrees with the exact
        # value within 3 MC standard errors (closed_form_se is 0)
        dep, plan = _dense(Scheme.SAME)
        params = PropagationParams()
        cfg = OutageConfig(n_trials=100_000)
        tries = [
            estimate(dep, 0, cfg, params, seed=s) for s in (5, 6)
        ]
        for est in tries:
            se = math.hypot(est.closed_form_se, est.ci95_halfwidth / 1.96)
            assert abs(est.p_out_closed - est.p_out_mc) < 3 * se

    def test_deterministic_across_workers(self):
        dep, plan = _dense(Scheme.SAME, n_faps=300)
        cfg = OutageConfig(n_trials=20_000, n_shards=16)
        params = PropagationParams()
        a = estimate(dep, 0, cfg, params, seed=9, n_workers=1)
        b = estimate(dep, 0, cfg, params, seed=9, n_workers=8)
        assert a == b  # bit-identical, not approximately equal

    def test_shard_count_changes_stream_but_not_statistics(self):
        dep, plan = _dense(Scheme.SAME, n_faps=300)
        params = PropagationParams()
        a = estimate(dep, 0, OutageConfig(n_trials=50_000, n_shards=4), params, seed=9)
        b = estimate(dep, 0, OutageConfig(n_trials=50_000, n_shards=32), params, seed=9)
        # the exact value does not depend on the trial streams at all
        assert a.p_out_closed == b.p_out_closed
        # the Monte Carlo counts do, within 4 combined standard errors
        se = math.hypot(a.ci95_halfwidth, b.ci95_halfwidth) / 1.96
        assert abs(a.p_out_mc - b.p_out_mc) < 4 * se

    def test_missing_reference_rejected(self):
        dep, plan = _dense(Scheme.SAME, n_faps=10)
        for missing in (999, -1):
            with pytest.raises(ValueError):
                estimate(dep, missing, OutageConfig(n_trials=10), PropagationParams(),
                         seed=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            OutageConfig(n_trials=0)

    @pytest.mark.parametrize("kwargs", [
        # with a NaN UE distance, estimate would report both outages as 0
        {"ue_distance_m": math.nan},
        {"ue_distance_m": math.nextafter(1e-3, 0.0)},
        {"ue_distance_m": math.nextafter(1e5, math.inf)},
        {"gamma_db": math.nan},
        {"gamma_db": math.nextafter(-100.0, -math.inf)},
        {"gamma_db": math.nextafter(100.0, math.inf)},
    ])
    def test_outside_the_domain_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            OutageConfig(**kwargs)

    def test_domain_bounds_accepted(self):
        for ue_distance_m, gamma_db in ((1e-3, -100.0), (1e5, 100.0)):
            cfg = OutageConfig(ue_distance_m=ue_distance_m, gamma_db=gamma_db)
            assert 0.0 < cfg.gamma_linear < math.inf

    def test_ue_distance_beyond_cell_rejected(self):
        dep, plan = _dense(Scheme.SAME, n_faps=10)
        cfg = OutageConfig(n_trials=10, ue_distance_m=25.0)
        with pytest.raises(ValueError):
            estimate(dep, 0, cfg, PropagationParams(), seed=1)

    def test_random_direction_mode(self):
        dep, plan = _dense(Scheme.SAME, n_faps=50)
        cfg = OutageConfig(n_trials=2000, ue_direction="random")
        est = estimate(dep, 0, cfg, PropagationParams(), seed=2)
        assert 0.0 <= est.p_out_closed <= 1.0


def _scipy_outage(dep, plan, cfg, ue_angle):
    """1 - prod phi(gamma c / s_bar) with scipy's phi, for the UE of FAP 0 on
    the bearing ``ue_angle``."""
    ref = dep.faps[0]
    ue = ref.position + cfg.ue_distance_m * np.array([math.cos(ue_angle), math.sin(ue_angle)])
    _, coeffs, macro_coeff, s_bar = link_coefficients(
        dep, ref, ue, cfg.ue_region, PropagationParams()
    )
    a = cfg.gamma_linear * np.append(coeffs, macro_coeff) / s_bar
    return 1.0 - float(np.prod(_scipy_phi(a[a > 0])))


class TestExactOutage:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("seed", [42, 7, 11])
    def test_matches_scipy_product(self, scheme, seed):
        dep, plan = _dense(scheme, seed=seed)
        cfg = OutageConfig(n_trials=10)
        for angle in (0.0, 2.0, None):  # None: the nearest-FAP bearing
            est = estimate(dep, 0, cfg, PropagationParams(), seed=1, ue_angle=angle)
            expected = _scipy_outage(
                dep, plan, cfg, nearest_fap_angle(dep, dep.faps[0]) if angle is None else angle
            )
            assert expected > 0.0
            assert est.p_out_closed == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_matches_scipy_product_after_son_coloring(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        dep = _prepared(Scheme.DYNAMIC_REUSE, plan, DeploymentParams(n_faps=3000), 7)
        cfg = OutageConfig(n_trials=10)
        est = estimate(dep, 0, cfg, PropagationParams(), seed=1, ue_angle=1.0)
        expected = _scipy_outage(dep, plan, cfg, 1.0)
        assert est.p_out_closed == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_independent_of_trials_workers_shards_and_seed(self):
        dep, plan = _dense(Scheme.SAME, n_faps=300)
        params = PropagationParams()
        base = estimate(dep, 0, OutageConfig(n_trials=1000), params, seed=9)
        assert base.p_out_closed > 0.0 and base.closed_form_se == 0.0
        for n_trials, n_shards, n_workers, seed in [
            (1, 1, 1, 9), (1, 16, 1, 9), (7, 3, 4, 9), (20_000, 32, 8, 9),
            (1000, 16, 1, 0), (1000, 16, 1, 123456789),
        ]:
            cfg = OutageConfig(n_trials=n_trials, n_shards=n_shards)
            est = estimate(dep, 0, cfg, params, seed=seed, n_workers=n_workers)
            assert est.p_out_closed == base.p_out_closed
            assert est.closed_form_se == 0.0

    def test_no_interferer_is_positive_zero(self):
        dep, plan = _pair(Scheme.DEDICATED, np.array([-900.0, 0.0]))
        est = estimate(dep, 0, OutageConfig(n_trials=100), PropagationParams(), seed=3)
        assert est.p_out_closed == 0.0
        assert math.copysign(1.0, est.p_out_closed) == 1.0
        row = SweepRow(Scheme.DEDICATED, 2, est, seed=3)
        assert sweep_csv_lines([row])[1] == "dedicated,2,0.0,0.0,0.0,100,3"


class TestSchemeOrdering:
    def test_fig5_ordering(self):
        params = PropagationParams()
        cfg = OutageConfig(n_trials=50_000)
        results = {}
        for scheme in Scheme:
            frac = 1 / 3 if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
            plan = build_plan(scheme, TOTAL, 3, femto_fraction=frac)
            dep = _prepared(scheme, plan, DeploymentParams(n_faps=1000), seed=42)
            results[scheme] = estimate(dep, 0, cfg, params, seed=7)
        assert results[Scheme.DYNAMIC_REUSE].p_out_closed < results[Scheme.DEDICATED].p_out_closed
        assert results[Scheme.DEDICATED].p_out_closed < results[Scheme.SAME].p_out_closed
        # same trials, identical co-channel structure: exactly equal
        assert results[Scheme.PARTIAL].p_out_closed == results[Scheme.SAME].p_out_closed


class TestDensitySweep:
    def test_row_grid_and_determinism(self):
        cfg = OutageConfig(n_trials=2000)
        params = PropagationParams()
        schemes = [Scheme.DEDICATED, Scheme.SAME]
        rows1 = density_sweep([50, 100], _plans(schemes), cfg, params, seed=1)
        rows2 = density_sweep([50, 100], _plans(schemes), cfg, params, seed=1)
        assert [(r.label, r.density) for r in rows1] == [
            ("dedicated", 50), ("same", 50), ("dedicated", 100), ("same", 100)
        ]
        assert rows1 == rows2
        assert sweep_csv_lines(rows1) == sweep_csv_lines(rows2)

    def test_monotone_in_density(self):
        cfg = OutageConfig(n_trials=30_000)
        params = PropagationParams()
        rows = density_sweep([100, 300, 1000], _plans([Scheme.DEDICATED]), cfg, params, seed=3)
        values = [r.estimate.p_out_closed for r in rows]
        ses = [r.estimate.closed_form_se for r in rows]
        for (a, sa), (b, sb) in zip(zip(values, ses), zip(values[1:], ses[1:])):
            assert b >= a - 3 * math.hypot(sa, sb)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exactly_non_decreasing_in_density(self, seed):
        # interferers only accumulate as the network grows, and the exact
        # value has no noise: no tolerance at all
        densities = [100, 300, 1000, 3000]
        rows = density_sweep(densities, _plans(list(Scheme)), OutageConfig(n_trials=10),
                             PropagationParams(), seed=seed)
        for scheme in Scheme:
            values = [r.estimate.p_out_closed for r in rows if r.scheme is scheme]
            assert len(values) == len(densities)
            assert all(b >= a for a, b in zip(values, values[1:])), (scheme, values)

    def test_tiny_density_orthogonal_near_zero(self):
        cfg = OutageConfig(n_trials=2000)
        rows = density_sweep([2], _plans([Scheme.DEDICATED]), cfg, PropagationParams(), seed=8)
        assert rows[0].estimate.p_out_closed < 0.05

    def test_input_validation(self):
        cfg = OutageConfig(n_trials=10)
        with pytest.raises(ValueError):
            density_sweep([], _plans([Scheme.SAME]), cfg, PropagationParams(), seed=1)
        with pytest.raises(ValueError):
            density_sweep([100, 100], _plans([Scheme.SAME]), cfg, PropagationParams(), seed=1)
        for densities in ([0, 10], [-5, 10]):
            with pytest.raises(ValueError):
                density_sweep(densities, _plans([Scheme.SAME]), cfg, PropagationParams(), seed=1)
        # plans are built by the caller: one of another sector count is rejected
        with pytest.raises(ValueError, match="n_sectors=3"):
            density_sweep([10], _plans([Scheme.SAME], 6), cfg, PropagationParams(), seed=1)

    def test_csv_lines_shape(self):
        cfg = OutageConfig(n_trials=500)
        rows = density_sweep([10], _plans([Scheme.SAME]), cfg, PropagationParams(), seed=2)
        lines = sweep_csv_lines(rows)
        assert lines[0] == "scheme,density,p_out_closed,p_out_mc,ci95,n_trials,seed"
        assert lines[1].startswith("same,10,")
        assert len(lines) == 2


def _spy_on_estimate(monkeypatch):
    """Record (positions, FAP positions, edge colors) of every deployment the
    sweep evaluates."""
    seen = []
    real = outage.estimate

    def spy(dep, *args, **kwargs):
        seen.append((
            dep.positions().copy(),
            np.array([f.position for f in dep.faps]).reshape(-1, 2),
            [f.allocation.edge_choice for f in dep.faps],
        ))
        assert [f.id for f in dep.faps] == list(range(len(dep.faps)))
        return real(dep, *args, **kwargs)

    monkeypatch.setattr(outage, "estimate", spy)
    return seen


class TestSweepGrowth:
    def test_positions_match_faps_for_every_scheme(self, monkeypatch):
        seen = _spy_on_estimate(monkeypatch)
        densities = [20, 60, 150]
        schemes = list(Scheme)
        density_sweep(densities, _plans(schemes), OutageConfig(n_trials=50), PropagationParams(),
                      seed=4)
        assert [len(p) for p, _, _ in seen] == [d for d in densities for _ in schemes]
        for positions, from_faps, _ in seen:
            assert positions.tobytes() == from_faps.tobytes()

    @pytest.mark.parametrize("n_sectors", [3, 4])
    def test_chains_hold_the_full_deployment_sector_prefix(self, monkeypatch, n_sectors):
        sectors = []
        real = outage.estimate

        def spy(dep, *args, **kwargs):
            sectors.append(dep.sectors().copy())
            return real(dep, *args, **kwargs)

        monkeypatch.setattr(outage, "estimate", spy)
        densities, seed = [20, 60, 150], 4
        dep_params = DeploymentParams(n_sectors=n_sectors)
        density_sweep(densities, _plans(list(Scheme), n_sectors), OutageConfig(n_trials=50),
                      PropagationParams(), seed=seed, dep_params=dep_params)
        dep_seed = int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])
        full = generate(Scenario.D, DeploymentParams(n_faps=150, n_sectors=n_sectors), dep_seed)
        assert set(full.sectors().tolist()) == set(range(n_sectors))
        assert [len(s) for s in sectors] == [d for d in densities for _ in Scheme]
        for s in sectors:
            assert s.tolist() == full.sectors()[:len(s)].tolist()

    def test_admission_matches_plain_admit_fap(self, monkeypatch):
        # the sweep's dynamic column must equal growing a copy of its starting
        # deployment by plain admit_fap calls: same rows, colors and positions
        densities, seed, radius = [200, 2000], 5, 100.0
        cfg, params = OutageConfig(n_trials=50), PropagationParams()
        seen = _spy_on_estimate(monkeypatch)
        rows = density_sweep(densities, _plans([Scheme.DYNAMIC_REUSE]), cfg, params, seed=seed)
        monkeypatch.undo()

        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        dep_seq, _, *trial_seqs = np.random.SeedSequence(seed).spawn(2 + len(densities))
        dep_seed = int(dep_seq.generate_state(1)[0])
        full = generate(Scenario.D, DeploymentParams(n_faps=densities[-1]), dep_seed)
        start = _prepared(
            Scheme.DYNAMIC_REUSE, plan, DeploymentParams(n_faps=densities[0]), dep_seed
        )
        ref = copy.deepcopy(start)
        ue_angle = nearest_fap_angle(full, full.faps[0])
        radius_graph = neighbor_graph(start, radius)  # admit_fap reads only its radius
        expected = []
        for idx, density in enumerate(densities):
            for f in full.faps[len(ref.faps):density]:
                son.admit_fap(ref, f.position, plan, radius_graph)
            trial_seed = int(trial_seqs[idx].generate_state(1)[0])
            est = estimate(ref, 0, cfg, params, trial_seed, ue_angle=ue_angle)
            expected.append(SweepRow(Scheme.DYNAMIC_REUSE, density, est, trial_seed))
            positions, _, colors = seen[idx]
            assert positions.tobytes() == ref.positions().tobytes()
            assert colors == [f.allocation.edge_choice for f in ref.faps]
        assert rows == expected
        assert ref.positions().tobytes() == full.positions().tobytes()

        # each admitted FAP took a color absent among its earlier neighbors,
        # else their minority color (ties to the first of X, Y, Z)
        pos, colors = ref.positions(), [f.allocation.edge_choice for f in ref.faps]
        order = [EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z]
        for i in range(densities[0], densities[-1]):
            near = np.flatnonzero(np.linalg.norm(pos[:i] - pos[i], axis=1) <= radius)
            counts = [sum(colors[j] is c for j in near) for c in order]
            assert colors[i] is order[counts.index(min(counts))]


    def test_admission_builds_no_event(self, monkeypatch):
        # the sweep passes no SON log, so its admissions append no event
        real_append, real_admit = son.SonEventLog.append, son.admit_fap
        appended, admitted = [], []

        def append(log, *args, **kwargs):
            appended.append(args)
            real_append(log, *args, **kwargs)

        def admit(*args, **kwargs):
            admitted.append(args)
            real_admit(*args, **kwargs)

        monkeypatch.setattr(son.SonEventLog, "append", append)
        monkeypatch.setattr(son, "admit_fap", admit)
        density_sweep([100, 400], _plans([Scheme.DYNAMIC_REUSE]), OutageConfig(n_trials=50),
                      PropagationParams(), seed=3)
        assert len(admitted) == 300
        assert appended == []

    def test_admissions_read_the_stream_not_near(self, monkeypatch):
        # every admission takes its sniff from the earlier-neighbor stream;
        # near serves only link_coefficients' neighbor set, once a call
        real_near, real_admit, real_links = Deployment.near, son.admit_fap, outage.link_coefficients
        callers, sniffed, links = [], [], []

        def near(self, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_near(self, *args, **kwargs)

        def admit(*args, **kwargs):
            sniffed.append(kwargs.get("sniffed") is not None)
            real_admit(*args, **kwargs)

        def link_coefficients(*args, **kwargs):
            links.append(args)
            return real_links(*args, **kwargs)

        monkeypatch.setattr(Deployment, "near", near)
        monkeypatch.setattr(son, "admit_fap", admit)
        monkeypatch.setattr(outage, "link_coefficients", link_coefficients)
        density_sweep([1, 2, 40, 400], _plans(list(Scheme)), OutageConfig(n_trials=50),
                      PropagationParams(), seed=3)
        assert sniffed == [True] * 399
        assert set(callers) == {"neighbor_ids"}
        assert len(callers) == len(links) > 0


def _sweep_per_plan(densities, plans, config, params, seed, n_workers):
    """The sweep as one deployment per distinct plan, each grown on its own
    (``extend`` for a static plan, ``admit_fap`` for a dynamic one) and each
    row estimated alone: the oracle of the one-network sweep.  Returns the
    rows and the deployment of each distinct plan."""
    dep_params = DeploymentParams()
    dep_seq, dir_seq, *trial_seqs = np.random.SeedSequence(seed).spawn(2 + len(densities))
    dep_seed = int(dep_seq.generate_state(1)[0])
    full = generate(Scenario.D, DeploymentParams(n_faps=densities[-1]), dep_seed)
    if config.ue_direction == "random":
        ue_angle = float(np.random.default_rng(dir_seq).uniform(0.0, 2.0 * math.pi))
    else:
        ue_angle = nearest_fap_angle(full, full.faps[0])
    chains, graphs = {}, {}
    for plan in dict.fromkeys(plans):
        dep = Deployment(DeploymentParams(n_faps=densities[0]))
        dep.extend(full.positions()[:densities[0]])
        apply_plan(dep, plan)
        if plan.scheme is Scheme.DYNAMIC_REUSE:
            graphs[plan] = neighbor_graph(dep, dep_params.neighbor_radius_m)
            son.configure_frequencies(dep, graphs[plan], plan)
        chains[plan] = dep
    rows = []
    for idx, density in enumerate(densities):
        trial_seed = int(trial_seqs[idx].generate_state(1)[0])
        for plan, dep in chains.items():
            grown = full.positions()[len(dep.faps):density]
            if plan in graphs:
                for p in grown:
                    son.admit_fap(dep, p, plan, graphs[plan])
            else:
                dep.extend(grown, 0)
        for plan in plans:
            est = estimate(chains[plan], 0, config, params, trial_seed, n_workers,
                           ue_angle=ue_angle)
            rows.append(SweepRow(plan.scheme, density, est, trial_seed))
    return rows, chains


def _dynamic(edge_split):
    return ExperimentConfig(edge_split=edge_split).plan(Scheme.DYNAMIC_REUSE)


class TestOneNetworkSweep:
    """Every plan is a variant of one network: the rows are those of one
    network per plan, whatever the order, repeats and dynamic plans."""

    SCHEMES = {
        "dynamic-first": ["dynamic", "same", "dedicated", "partial", "same"],
        "dynamic-middle": ["partial", "dynamic", "dedicated"],
        "two-dynamic": ["dynamic-0.25", "same", "dynamic", "dedicated"],
    }

    @staticmethod
    def _plans(names):
        return [_dynamic(0.25) if n == "dynamic-0.25" else ExperimentConfig().plan(Scheme(n))
                for n in names]

    @pytest.mark.parametrize("n_workers", [1, 3])
    @pytest.mark.parametrize("ue_direction", ["nearest", "random"])
    @pytest.mark.parametrize("schemes", list(SCHEMES))
    def test_rows_equal_one_network_per_plan(self, monkeypatch, schemes, ue_direction,
                                             n_workers):
        plans = self._plans(self.SCHEMES[schemes])
        cfg, params = OutageConfig(n_trials=3001, ue_direction=ue_direction), PropagationParams()
        densities, seed = [300, 1000, 3000], 6
        admitted = []  # (deployment, id, edge index) of every admission
        real_admit = son.admit_fap

        def admit(dep, *args, **kwargs):
            real_admit(dep, *args, **kwargs)
            admitted.append((dep, len(dep.faps) - 1, int(dep.edges()[-1])))

        monkeypatch.setattr(son, "admit_fap", admit)
        rows = density_sweep(densities, plans, cfg, params, seed, n_workers=n_workers)
        monkeypatch.undo()
        expected, chains = _sweep_per_plan(densities, plans, cfg, params, seed, n_workers)
        assert len(rows) == len(expected) == len(densities) * len(plans)
        for row, want in zip(rows, expected):
            assert (row.scheme, row.density, row.seed) == (want.scheme, want.density, want.seed)
            assert repr(row.estimate) == repr(want.estimate), (row.label, row.density)
        assert sum(r.estimate.p_out_mc > 0.0 for r in rows) >= len(rows) // 2
        if schemes == "two-dynamic":  # two unequal plans share one column of colors
            assert plans[0] != plans[2] and len(chains) == 4

        # the network that admit_fap grew ends bound to a dynamic plan and
        # holds the admitted colors: those of every dynamic plan's own network
        [dep] = {id(d): d for d, _, _ in admitted}.values()
        assert [i for _, i, _ in admitted] == list(range(densities[0], densities[-1]))
        assert dep.plan.scheme is Scheme.DYNAMIC_REUSE
        assert all(dep.edges()[i] == edge for _, i, edge in admitted)
        for plan, own in chains.items():
            if plan.scheme is Scheme.DYNAMIC_REUSE:
                assert dep.edges().tolist() == own.edges().tolist()
                assert dep.positions().tobytes() == own.positions().tobytes()

    def test_static_plans_alone_grow_one_network_without_admission(self, monkeypatch):
        monkeypatch.setattr(son, "admit_fap", None)  # never called
        plans = self._plans(["same", "dedicated", "partial"])
        cfg = OutageConfig(n_trials=3001)
        rows = density_sweep([300, 1000], plans, cfg, PropagationParams(), seed=6)
        monkeypatch.undo()
        expected, _ = _sweep_per_plan([300, 1000], plans, cfg, PropagationParams(), 6, 1)
        assert [repr(r) for r in rows] == [repr(r) for r in expected]


def _reference_threshold(seed_seq, m, coeffs, macro_coeff, s_bar, gamma_linear):
    """One shard's desired fading z0 and the gamma I / s_bar it is compared
    with, from fresh arrays."""
    rng = np.random.default_rng(seed_seq)
    k = len(coeffs)
    xi = rng.exponential(size=(m, k))
    z = rng.exponential(size=(m, k))
    xi_m = rng.exponential(size=m)
    z_m = rng.exponential(size=m)
    z0 = rng.exponential(size=m)
    i_total = (xi * z) @ coeffs + macro_coeff * xi_m * z_m
    return z0, gamma_linear * i_total / s_bar


def _reference_run_shard(seed_seq, m, coeffs, macro_coeff, s_bar, gamma_linear):
    """One shard of Monte Carlo trials; returns the outage count."""
    z0, threshold = _reference_threshold(seed_seq, m, coeffs, macro_coeff, s_bar, gamma_linear)
    return int(np.count_nonzero(z0 < threshold))


def _reference_count(seed, cfg, coeffs, macro_coeff, s_bar):
    """Outage count of ``estimate``'s shards through the kernel above, which
    allocates fresh arrays per shard and scales every draw."""
    _, *shard_seqs = np.random.SeedSequence(seed).spawn(cfg.n_shards + 1)
    base, extra = divmod(cfg.n_trials, cfg.n_shards)
    return sum(
        _reference_run_shard(seq, base + (i < extra), coeffs, macro_coeff, s_bar,
                             cfg.gamma_linear)
        for i, seq in enumerate(shard_seqs)
    )


def _count_shards(monkeypatch):
    """Patch ``outage._run_shard`` to record the size of every shard run."""
    sizes = []
    real = outage._run_shard

    def spy(seed_seq, xi, *args):
        sizes.append(len(xi))
        return real(seed_seq, xi, *args)

    monkeypatch.setattr(outage, "_run_shard", spy)
    return sizes


LINK_SETS = {
    "K0": np.zeros(0),
    "K1-zero": np.zeros(1),
    "K1": np.array([0.04]),
    "K10-zero": np.zeros(10),
    "K10": np.array([0.03, 0.0, 0.01, 0.05, 0.0, 0.02, 0.004, 0.0, 0.06, 0.01]),
}


class TestShardKernel:
    @pytest.mark.parametrize("macro_coeff", [0.0, 0.02])
    @pytest.mark.parametrize("name", list(LINK_SETS))
    def test_counts_equal_the_allocating_kernel(self, monkeypatch, name, macro_coeff):
        coeffs = LINK_SETS[name]
        monkeypatch.setattr(
            outage, "link_coefficients",
            lambda *args: (list(range(len(coeffs))), coeffs, macro_coeff, 1.0),
        )
        sizes = _count_shards(monkeypatch)
        dep, plan = _dense(Scheme.SAME, n_faps=10)
        interfered = bool(np.any(coeffs > 0) or macro_coeff > 0)
        for n_trials in (1, 15, 16, 2001):
            for n_shards in (1, 3, 16):
                cfg = OutageConfig(n_trials=n_trials, n_shards=n_shards)
                count = _reference_count(11, cfg, coeffs, macro_coeff, 1.0)
                assert (count > 0) is interfered or n_trials < 2001
                for n_workers in (1, 2, 3, 17):
                    sizes.clear()
                    est = estimate(dep, 0, cfg, PropagationParams(), seed=11,
                                   n_workers=n_workers)
                    assert est.p_out_mc == count / n_trials
                    # every shard ran once, or none when nothing interferes
                    assert sorted(sizes) == (
                        sorted(n_trials // n_shards + (i < n_trials % n_shards)
                               for i in range(n_shards))
                        if interfered else []
                    )

    def _assert_no_draws(self, monkeypatch, dep, plan):
        sizes = _count_shards(monkeypatch)
        cfg = OutageConfig(n_trials=5000)
        est = estimate(dep, 0, cfg, PropagationParams(), seed=3)
        assert sizes == []
        assert est.p_out_mc == 0.0
        assert est.p_out_closed == 0.0 and math.copysign(1.0, est.p_out_closed) == 1.0

    def test_zero_neighbor_fap_draws_nothing(self, monkeypatch):
        dep, plan = _pair(Scheme.DEDICATED, np.array([-900.0, 0.0]))
        ids, _, macro_coeff, _ = link_coefficients(
            dep, dep.faps[0], dep.faps[0].position + [5.0, 0.0], OutageConfig().ue_region,
            PropagationParams(),
        )
        assert ids == [] and macro_coeff == 0.0
        self._assert_no_draws(monkeypatch, dep, plan)

    def test_fap_without_cochannel_interferers_draws_nothing(self, monkeypatch):
        # dynamic re-use: a same-sector neighbor 30 m away on another edge
        # color, and no macro overlap
        dep, plan = _pair(Scheme.DYNAMIC_REUSE, np.array([230.0, 0.0]))
        dep.assign(plan, np.array([1, 2]))  # edge colors X and Y
        ids, coeffs, macro_coeff, _ = link_coefficients(
            dep, dep.faps[0], dep.faps[0].position + [5.0, 0.0], OutageConfig().ue_region,
            PropagationParams(),
        )
        assert ids == [1] and coeffs.tolist() == [0.0] and macro_coeff == 0.0
        self._assert_no_draws(monkeypatch, dep, plan)

    @pytest.mark.parametrize("name", ["K0", "K1", "K10"])
    def test_link_sets_in_one_shard_equal_single_set_runs(self, name):
        # live, all-zero and macro-only sets of one K over one shard's fading
        # count exactly what each set counts alone, and what the allocating
        # kernel counts, through buffers left dirty by the previous run
        live = LINK_SETS[name]
        k = len(live)
        links = [(live, 0.0, 1.0), (np.zeros(k), 0.0, 1.0), (live, 0.02, 1.0),
                 (np.zeros(k), 0.02, 1.3), (np.zeros(k), 0.0, 3.0), (live, 0.0, 0.7),
                 (live, 0.02, 3.0)]
        seq = np.random.SeedSequence(17)
        m, gamma = 2001, GAMMA_9DB

        def run(sets):
            """Counts, and the last set's gamma I / s_bar left in the buffer."""
            xi, work = np.full((m + 9, k), np.nan), np.full((5, m + 9), np.nan)
            z = np.full((300, k), np.nan)  # the last of 7 blocks is short
            flags = np.ones(m + 9, dtype=bool)
            counts = outage._run_shard(seq, xi[:m], z, work[:, :m], flags[:m], sets, gamma)
            return counts, work[3, :m]

        counts, _ = run(links)
        assert counts == [_reference_run_shard(seq, m, *link, gamma) for link in links]
        for link, count in zip(links, counts):
            alone, threshold = run([link])
            assert alone == [count]
            # the same roundings as the reference, not only the same counts
            assert threshold.tobytes() == _reference_threshold(seq, m, *link, gamma)[1].tobytes()
        assert counts[1] == counts[4] == 0
        assert counts[3] > 0 and (counts[0] > 0) is (k > 0)


class TestBlockedKernel:
    """Z is drawn in row blocks and the gemv is not: neither may change a
    draw or a rounding."""

    BLOCK_ROWS = {"default": None, "one-row": 1, "seven-rows": 7}  # 7 divides no shard size

    @pytest.mark.parametrize("blocks", list(BLOCK_ROWS))
    @pytest.mark.parametrize("k", [0, 1, 10, 97])
    def test_blocking_changes_no_draw(self, monkeypatch, k, blocks):
        if self.BLOCK_ROWS[blocks] is not None:
            monkeypatch.setattr(outage, "_BLOCK_VALUES", self.BLOCK_ROWS[blocks] * max(k, 1))
        b = outage._block_rows(k)
        live = np.random.default_rng(k).uniform(0.0, 0.08, k)
        live[::3] = 0.0
        # no macro term, both, macro only, a second live set
        links = [(live, 0.0, 1.0), (live, 0.02, 1.3), (np.zeros(k), 0.03, 0.8),
                 (2.0 * live, 0.0, 2.5)]
        # shards below one block, and shards of whole blocks and a short one
        trials = [500, 2999] if blocks != "default" else [500, 3 * (2 * b + 5) + 1]
        for n_trials in trials:
            for n_workers in (1, 2):
                cfg = OutageConfig(n_trials=n_trials, n_shards=3)
                counts = outage._count_outages(23, cfg, links, n_workers)
                # one (m, K) fill per array in the order xi, Z, xi_m, Z_m, Z_0
                assert counts == [_reference_count(23, cfg, *link) for link in links]
                assert counts[1] > 0 and counts[2] > 0 and (counts[0] > 0) is (k > 1)

    def test_footprint_is_xi_and_the_vectors_plus_a_block(self):
        k, m = 10, 20_000
        links = [(np.linspace(0.0, 0.05, k), 0.02, 1.0)]
        cfg = OutageConfig(n_trials=m, n_shards=1)
        # the first draw imports numpy.random's generator modules
        outage._count_outages(7, OutageConfig(n_trials=1, n_shards=1), links, 1)
        tracemalloc.start()
        try:
            outage._count_outages(7, cfg, links, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # xi (m, K), five (m,) float vectors and the (m,) flags, with Z in one
        # block: no (m, K) array but xi
        assert peak <= (k + 5) * m * 8 + m + outage._BLOCK_VALUES * 8 + 64 * 1024


class TestSharedEstimates:
    CFG = OutageConfig(n_trials=64, n_shards=4)

    def test_partial_and_same_share_one_monte_carlo_run(self, monkeypatch):
        sizes = _count_shards(monkeypatch)
        rows = density_sweep([1000], _plans(list(Scheme)), self.CFG, PropagationParams(), seed=1)
        assert all(r.estimate.p_out_closed > 0.0 for r in rows)  # none skips its shards
        assert len(sizes) == self.CFG.n_shards  # one fading pass for the density
        by_scheme = {r.scheme: r.estimate for r in rows}
        assert by_scheme[Scheme.PARTIAL] == by_scheme[Scheme.SAME]
        # equal to the estimate of a sweep that has the scheme alone
        for scheme in (Scheme.PARTIAL, Scheme.SAME):
            alone = density_sweep([1000], _plans([scheme]), self.CFG, PropagationParams(), seed=1)
            assert alone[0].estimate == by_scheme[scheme]

        sizes.clear()
        again = density_sweep([1000], _plans(list(Scheme)), self.CFG, PropagationParams(), seed=1)
        assert again == rows
        assert len(sizes) == self.CFG.n_shards  # nothing kept from the first call

    def test_only_an_identical_link_set_is_shared(self, monkeypatch):
        # the same coefficients on other neighbors meet other fading draws
        links = [([0.04, 0.0], 0.0, 1.0), ([0.0, 0.04], 0.0, 1.0), ([0.04, 0.0], 0.02, 1.0),
                 ([0.04, 0.0], 0.0, 2.0), ([0.04, 0.0], 0.0, 1.0)]
        dep, plan = _dense(Scheme.SAME, n_faps=10)
        cfg, params = OutageConfig(n_trials=2001), PropagationParams()
        shared = {}
        results = []
        for coeffs, macro_coeff, s_bar in links:
            link = (list(range(len(coeffs))), np.array(coeffs), macro_coeff, s_bar)
            monkeypatch.setattr(outage, "link_coefficients", lambda *args: link)
            alone = estimate(dep, 0, cfg, params, seed=4)
            results.append(estimate(dep, 0, cfg, params, seed=4, shared=shared))
            assert results[-1] == alone
        assert len(shared) == 4 and results[4] is results[0]
        assert len({r.p_out_mc for r in results}) == 4

    def test_nothing_shared_across_densities(self, monkeypatch):
        sizes = _count_shards(monkeypatch)
        rows = density_sweep([500, 1000], _plans(list(Scheme)), self.CFG, PropagationParams(),
                             seed=3)
        assert all(r.estimate.p_out_closed > 0.0 for r in rows)  # none skips its shards
        assert len(sizes) == 2 * self.CFG.n_shards  # one fading pass per density

    def test_repeated_run_experiment_runs_every_shard(self, monkeypatch, tmp_path):
        sizes = _count_shards(monkeypatch)
        cfg = apply_overrides(
            ExperimentConfig(), ["n_faps=1000", "n_trials=64", f"out={tmp_path / 'fig5.csv'}"]
        )
        counts = []
        for _ in range(2):
            sizes.clear()
            cli.run_experiment(cfg, "fig5", 1)
            counts.append(len(sizes))
        assert counts == [cfg.n_shards] * 2

    @pytest.mark.parametrize("seed", [1019, 3003])
    def test_fig5_runs_one_fading_pass(self, monkeypatch, tmp_path, seed):
        # at seed 3003 the dynamic reference has no co-channel interferer, so
        # its link set joins no pass; the others still share one
        sizes = _count_shards(monkeypatch)
        cfg = apply_overrides(ExperimentConfig(), [
            "n_faps=1000", "n_trials=64", f"seed={seed}", f"out={tmp_path / 'fig5.csv'}"
        ])
        body = cli.run_experiment(cfg, "fig5", 1).read_text().splitlines()
        assert len(sizes) == cfg.n_shards
        dynamic = [line.split(",") for line in body if line.startswith("dynamic,")]
        assert (float(dynamic[0][2]) == 0.0) is (seed == 3003)

    def test_sweep_without_interferers_draws_nothing(self, monkeypatch):
        sizes = _count_shards(monkeypatch)
        rows = density_sweep([1, 2], _plans([Scheme.DEDICATED, Scheme.DYNAMIC_REUSE]), self.CFG,
                             PropagationParams(), seed=0)
        assert sizes == []
        assert [(r.estimate.p_out_closed, r.estimate.p_out_mc) for r in rows] == [(0.0, 0.0)] * 4

    @pytest.mark.parametrize("ue_direction", ["nearest", "random"])
    def test_variants_find_the_ue_bearing_once(self, monkeypatch, ue_direction):
        # three colorings of one deployment scan for the nearest FAP once (a
        # random bearing needs no scan), and each estimate is, bit for bit,
        # the one a separate ``estimate`` of that coloring makes
        plan = _plans([Scheme.DYNAMIC_REUSE])[0]
        dep = generate(Scenario.D, DeploymentParams(n_faps=1000), seed=5)
        graph = neighbor_graph(dep, dep.params.neighbor_radius_m)
        son.configure_frequencies(dep, graph, plan)
        greedy = dep.edges().copy()
        son.assign_uniform_random_colors(dep, graph, plan, np.random.default_rng(1))
        variants = [(plan, greedy), (plan, dep.edges().copy()), (plan, 1)]
        cfg, params = OutageConfig(n_trials=3001, ue_direction=ue_direction), PropagationParams()
        alone = []
        for p, edges in variants:
            dep.assign(p, edges)
            alone.append(estimate(dep, 0, cfg, params, seed=7))
        calls = []
        real = outage.nearest_fap_angle
        monkeypatch.setattr(outage, "nearest_fap_angle", lambda *a: calls.append(a) or real(*a))
        ests = outage.estimate_variants(dep, variants, cfg, params, seed=7)
        assert len(calls) == (ue_direction == "nearest")
        assert [repr(e) for e in ests] == [repr(e) for e in alone]
        assert len({e.p_out_closed for e in ests}) == 3

    @pytest.mark.parametrize("ue_direction", ["nearest", "random"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_sweep_rows_equal_estimates_alone(self, monkeypatch, n_workers, ue_direction):
        # every row of the shared pass is, bit for bit, the estimate of its
        # scheme's deployment made without the density's other schemes
        alone = []
        real = outage.estimate

        def spy(dep, *args, shared, **kwargs):
            alone.append(real(dep, *args, **kwargs))
            return real(dep, *args, shared=shared, **kwargs)

        monkeypatch.setattr(outage, "estimate", spy)
        cfg = OutageConfig(n_trials=3001, ue_direction=ue_direction)
        rows = density_sweep([300, 1000, 3000], _plans(list(Scheme)), cfg, PropagationParams(),
                             seed=6, n_workers=n_workers)
        assert len(alone) == len(rows) == 12
        assert sum(r.estimate.p_out_mc > 0.0 for r in rows) >= 6
        for row, est in zip(rows, alone):
            assert repr(row.estimate) == repr(est), row.label
