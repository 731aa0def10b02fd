"""Received-power model tests, including brute-force interference oracles."""

import math

import numpy as np
import pytest

import band_oracle
from femtosim.channel import PropagationParams, link_coefficients, mean_desired_power
from femtosim.spectrum import Band, EdgeChoice, FemtoAllocation, Scheme, UeRegion, build_plan, cochannel
from femtosim.topology import Deployment, DeploymentParams, Scenario, apply_plan, generate

TOTAL = Band(0, 60_000_000)


def _fap(power=0.01):
    """The one FAP of a deployment, at the origin with tx power ``power``."""
    dep = Deployment(DeploymentParams(n_faps=1, fap_tx_power_w=power), macro=False)
    dep.extend((0.0, 0.0))
    return dep.faps[0]


class TestPropagationParams:
    def test_defaults_match_calibration(self):
        p = PropagationParams()
        friis = (299_792_458.0 / (4 * math.pi * 900e6)) ** 2
        assert p.p0_femto == pytest.approx(friis, rel=1e-12)
        # 128 dB path loss at 1 km
        loss_db = -10 * math.log10(p.p0_macro * 1000.0 ** (-p.eta_macro))
        assert loss_db == pytest.approx(128.0, abs=1e-9)

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            PropagationParams(eta_desired=1.0)
        with pytest.raises(ValueError):
            PropagationParams(eta_macro=7.0)

    @pytest.mark.parametrize("name", ["p0_femto", "p0_macro"])
    def test_p0_bounds(self, name):
        # -200 to 0 dB
        for inside in (1e-20, 1.0):
            PropagationParams(**{name: inside})
        for outside in (math.nextafter(1e-20, 0.0), math.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(ValueError, match=name):
                PropagationParams(**{name: outside})

    def test_wall_count_bounds(self):
        for inside in (0, 100):
            PropagationParams(walls_between_femtos=inside)
        for outside in (-1, 101, 10**400):
            with pytest.raises(ValueError, match="walls_between_femtos"):
                PropagationParams(walls_between_femtos=outside)

    def test_wall_attenuation(self):
        p = PropagationParams(wall_loss_db=10.0, walls_between_femtos=1)
        assert p.wall_attenuation == pytest.approx(0.1)
        p2 = PropagationParams(wall_loss_db=10.0, walls_between_femtos=2)
        assert p2.wall_attenuation == pytest.approx(0.01)


class TestMeanDesiredPower:
    def test_hand_computed(self):
        # 10 mW, P0f = 1, d = 5 m, eta = 2  ->  0.01 / 25 = 4e-4 W
        params = PropagationParams(p0_femto=1.0)
        assert mean_desired_power(_fap(), 5.0, params) == pytest.approx(4e-4, rel=1e-12)

    def test_unit_distance_returns_tx_power(self):
        params = PropagationParams(p0_femto=1.0)
        assert mean_desired_power(_fap(power=0.007), 1.0, params) == pytest.approx(0.007)

    def test_matches_direct_formula(self):
        params = PropagationParams()
        fap = _fap(power=0.01)
        expected = 0.01 * params.p0_femto * 5.0 ** (-2.0)  # independent evaluation
        assert mean_desired_power(fap, 5.0, params) == expected

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            mean_desired_power(_fap(), 0.0, PropagationParams())


def _dense_setup(scheme, seed=101, n_faps=1000):
    frac = 1 / 3 if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
    plan = build_plan(scheme, TOTAL, 3, femto_fraction=frac)
    dep = generate(Scenario.D, DeploymentParams(n_faps=n_faps), seed)
    apply_plan(dep, plan)
    return dep, plan


def _pair_setup(scheme, offset):
    """The reference FAP of ``_dense_setup`` plus one neighbor at ``offset``
    from it, in its own sector."""
    dep, plan = _dense_setup(scheme, n_faps=1)
    position = dep.faps[0].position + np.asarray(offset)
    dep.extend(position)
    apply_plan(dep, plan)
    return dep, plan


class TestInterferencePowers:
    """Link coefficients are the interference powers at unit fading."""

    def test_hand_computed_single_neighbor(self):
        # one co-channel neighbor: 0.01 W, P0f = 1, d = 50 m, eta2 = 2,
        # xi = Z = 1, one 10 dB wall  ->  0.01 * 50^-2 * 0.1 = 4e-7 W
        dep, plan = _pair_setup(Scheme.SAME, [50.0, 0.0])
        ref = dep.faps[0]
        params = PropagationParams(p0_femto=1.0)
        ue = ref.position + np.array([0.0, 1e-9])
        ids, coeffs, _, _ = link_coefficients(dep, ref, ue, UeRegion.CENTER, params)
        assert ids == [1]
        assert coeffs[0] == pytest.approx(4e-7, rel=1e-9)

    def test_orthogonal_bands_zero_interference(self):
        # dynamic re-use, neighbors on different edge colors, no macro overlap
        dep, plan = _dense_setup(Scheme.DYNAMIC_REUSE, n_faps=1000)
        from femtosim import son
        from femtosim.topology import neighbor_graph

        graph = neighbor_graph(dep, 100.0)
        son.configure_frequencies(dep, graph, plan)
        ref = dep.faps[0]
        ue = ref.position + np.array([0.0, 5.0])
        ids, coeffs, macro_coeff, _ = link_coefficients(
            dep, ref, ue, UeRegion.EDGE, PropagationParams()
        )
        assert macro_coeff == 0.0  # Y = 0 under dynamic re-use
        # X_i = 0 annihilates the term bit-exactly; X_i = 1 leaves it positive
        alloc = band_oracle.allocation_of
        flags = [band_oracle.x_flag(plan, UeRegion.EDGE, alloc(dep, ref.id), alloc(dep, i))
                 for i in ids]
        assert not all(flags)
        for flag, c in zip(flags, coeffs):
            assert (c > 0.0) if flag else (c == 0.0)

    def test_dedicated_brute_force_oracle(self):
        dep, plan = _dense_setup(Scheme.DEDICATED)
        params = PropagationParams()
        ref = dep.faps[0]
        ue = ref.position + np.array([3.0, 4.0])  # 5 m away
        ids, coeffs, macro_coeff, s_bar = link_coefficients(
            dep, ref, ue, UeRegion.CENTER, params
        )
        assert macro_coeff == 0.0  # dedicated: Y = 0
        # brute force from raw positions: every neighbor is co-channel
        expected_ids = [
            f.id for f in dep.faps
            if f.id != ref.id and math.dist(f.position, ref.position) <= 100.0
        ]
        assert ids == expected_ids
        for fid, c in zip(ids, coeffs):
            f = dep.faps[fid]
            d = math.dist(f.position, ue)
            expected = f.tx_power * params.p0_femto * d**-2.0 * 0.1
            assert c == pytest.approx(expected, rel=1e-12)
        assert s_bar == pytest.approx(0.01 * params.p0_femto * 5.0**-2.0, rel=1e-9)

    def test_same_scheme_macro_term(self):
        dep, plan = _dense_setup(Scheme.SAME)
        params = PropagationParams()
        ref = dep.faps[0]
        ue = ref.position + np.array([5.0, 0.0])
        ids, _, macro_coeff, _ = link_coefficients(dep, ref, ue, UeRegion.CENTER, params)
        d_m = math.dist((0.0, 0.0), ue)
        assert macro_coeff == pytest.approx(1.5 * params.p0_macro * d_m**-3.5, rel=1e-12)

    def test_monotone_in_distance_and_walls(self):
        params1 = PropagationParams()

        def femto_term(distance, params):
            dep, plan = _pair_setup(Scheme.SAME, [distance, 0.0])
            ref = dep.faps[0]
            ue = ref.position + np.array([0.0, 5.0])
            _, coeffs, _, _ = link_coefficients(dep, ref, ue, UeRegion.CENTER, params)
            return coeffs[0]

        assert femto_term(30.0, params1) > femto_term(60.0, params1)
        params2 = PropagationParams(walls_between_femtos=2)
        assert femto_term(30.0, params2) < femto_term(30.0, params1)

    def test_linear_in_tx_power(self):
        dep, plan = _pair_setup(Scheme.SAME, [40.0, 0.0])
        ref = dep.faps[0]
        params = PropagationParams()
        ue = ref.position + np.array([0.0, 5.0])

        def femto_term():
            _, coeffs, _, _ = link_coefficients(dep, ref, ue, UeRegion.CENTER, params)
            return coeffs[0]

        base = femto_term()
        dep.faps[1].tx_power *= 2.0
        assert femto_term() == 2.0 * base


def _loop_coefficients(dep, ref, ue, plan, region, params):
    """Femto coefficients neighbor by neighbor through the band-overlap oracle
    and the FAP views: the arithmetic ``link_coefficients`` must keep bit for
    bit."""
    ids, _, _, _ = link_coefficients(dep, ref, ue, region, params)
    coeffs = np.zeros(len(ids))
    alloc = band_oracle.allocation_of
    for k, fid in enumerate(ids):
        f = dep.faps[fid]
        if band_oracle.x_flag(plan, region, alloc(dep, ref.id), alloc(dep, fid)):
            dx, dy = (f.position - ue).tolist()
            d = math.sqrt(dx * dx + dy * dy)  # the neighbor test's rule, no BLAS
            coeffs[k] = (f.tx_power * params.p0_femto * d ** (-params.eta_femto)
                         * params.wall_attenuation)
    return coeffs


class TestCochannelLookup:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_bit_identical_to_the_per_neighbor_loop(self, scheme):
        from femtosim import son
        from femtosim.topology import neighbor_graph

        dep, plan = _dense_setup(scheme, n_faps=3000)
        if scheme is Scheme.DYNAMIC_REUSE:
            son.configure_frequencies(dep, neighbor_graph(dep, 100.0), plan)
        for f in dep.faps:  # powers as SON leaves them, read from each FAP's row
            f.tx_power = 0.002 + 1e-6 * f.id
        params = PropagationParams(walls_between_femtos=2)
        for fid in (0, 5, 17):
            ref = dep.faps[fid]
            for region in UeRegion:
                ue = ref.position + np.array([3.0, -4.0])
                _, coeffs, _, _ = link_coefficients(dep, ref, ue, region, params)
                expected = _loop_coefficients(dep, ref, ue, plan, region, params)
                assert coeffs.tobytes() == expected.tobytes()
                assert np.any(coeffs > 0.0)

    def test_neighbor_without_allocation_rejected(self):
        dep, plan = _dense_setup(Scheme.SAME, n_faps=1)
        dep.extend(dep.faps[0].position + np.array([30.0, 0.0]))  # after the plan: no allocation
        ref = dep.faps[0]
        with pytest.raises(ValueError, match="FAP 1 has no allocation"):
            link_coefficients(dep, ref, ref.position + [5.0, 0.0], UeRegion.EDGE,
                              PropagationParams())
        with pytest.raises(ValueError, match="FAP 1 has no allocation"):
            link_coefficients(dep, dep.faps[1], dep.faps[1].position + [5.0, 0.0],
                              UeRegion.EDGE, PropagationParams())

    def test_neighbor_appended_after_the_plan_rejected(self):
        dep, plan = _pair_setup(Scheme.SAME, [30.0, 0.0])
        position = dep.faps[0].position + np.array([0.0, 40.0])
        dep.extend(position)
        assert dep.faps[2].allocation is None
        ref = dep.faps[0]
        with pytest.raises(ValueError, match="FAP 2 has no allocation"):
            link_coefficients(dep, ref, ref.position + [5.0, 0.0], UeRegion.EDGE,
                              PropagationParams())

    def test_allocation_outside_the_plan_rejected_as_cochannel_does(self):
        # an edge color under a plan without edge bands: cochannel rejects
        # reading it, and the deployment rejects writing it
        dep, plan = _pair_setup(Scheme.SAME, [30.0, 0.0])
        alloc = dep.faps[1].allocation
        with pytest.raises(ValueError, match="not an allocation"):
            cochannel(plan, UeRegion.EDGE, dep.faps[1].sector_index, 2)
        with pytest.raises(ValueError, match="no edge bands"):
            dep.faps[1].allocation = FemtoAllocation(alloc.center, EdgeChoice.Y, alloc.sector_index)
        with pytest.raises(ValueError, match="no edge bands"):
            dep.assign(plan, 2, [1])
        assert dep.faps[1].allocation == alloc

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_macro_coefficient_iff_the_oracles_y(self, scheme):
        from femtosim import son
        from femtosim.topology import neighbor_graph

        dep, plan = _dense_setup(scheme, n_faps=300)
        if scheme is Scheme.DYNAMIC_REUSE:
            son.configure_frequencies(dep, neighbor_graph(dep, 100.0), plan)
        expected = scheme in (Scheme.SAME, Scheme.PARTIAL)
        for fid in (0, 1, 2, 3, 4):
            ref = dep.faps[fid]
            for region in UeRegion:
                _, _, macro_coeff, _ = link_coefficients(
                    dep, ref, ref.position + [3.0, -4.0], region, PropagationParams()
                )
                y = band_oracle.y_flag(plan, region, *band_oracle.allocation_of(dep, fid))
                assert y == expected
                assert (macro_coeff > 0.0) == bool(y), (scheme, fid, region)


def _readers():
    """Every reader of the deployment's plan, called on a deployment."""
    from femtosim import outage, son
    from femtosim.topology import neighbor_graph

    params, cfg = PropagationParams(), outage.OutageConfig(n_trials=10)

    def ue(dep):
        return dep.faps[0].position + [5.0, 0.0]

    return {
        "link_coefficients": lambda dep: link_coefficients(
            dep, dep.faps[0], ue(dep), UeRegion.EDGE, params),
        "estimate": lambda dep: outage.estimate(dep, 0, cfg, params, seed=1),
        "_link_set": lambda dep: outage._link_set(dep, 0, cfg, params, 1, None),
        "noncochannel_fraction": lambda dep: son.noncochannel_fraction(
            dep, neighbor_graph(dep, 100.0)),
        "adjust_power": lambda dep: son.adjust_power(
            dep, 0, ue(dep), UeRegion.EDGE, params, gamma_db=9.0),
    }


@pytest.mark.parametrize("reader", list(_readers()))
def test_reader_without_a_plan_rejected(reader):
    # readers take the plan that a writer bound; a generated deployment has none
    dep = generate(Scenario.D, DeploymentParams(n_faps=300), seed=3)
    assert dep.plan is None
    powers = dep.tx_powers().copy()
    with pytest.raises(ValueError, match="has no plan"):
        _readers()[reader](dep)
    assert dep.plan is None and dep.edges().tolist() == [-1] * 300
    assert dep.tx_powers().tolist() == powers.tolist()
    # bound, every reader reads
    apply_plan(dep, build_plan(Scheme.SAME, TOTAL, 3))
    _readers()[reader](dep)
