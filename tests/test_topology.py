"""Deployment generation, sector assignment, and neighbor-graph tests."""

import copy
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from femtosim import topology
from femtosim.spectrum import Band, EdgeChoice, FemtoAllocation, Scheme, build_plan
from femtosim.topology import (
    MAX_DISTANCE_M,
    Deployment,
    DeploymentParams,
    PlacementError,
    Scenario,
    _cell_side,
    apply_plan,
    generate,
    neighbor_graph,
    sector_of,
)

PLAN = build_plan(Scheme.DYNAMIC_REUSE, Band(0, 60_000_000), 3)


def _adjacency(g):
    """The graph as {id: set of neighbor ids}."""
    return {i: set(g.neighbors(i).tolist()) for i in range(g.n_faps)}


class TestSectorOf:
    def test_angle_zero(self):
        assert sector_of(3, (100.0, 0.0)) == 0

    def test_angle_pi(self):
        # pi / (2 pi / 3) = 1.5 -> floor 1
        assert sector_of(3, (-100.0, 0.0)) == 1

    def test_angle_just_below_two_pi(self):
        p = (100.0 * math.cos(-1e-9), 100.0 * math.sin(-1e-9))
        assert sector_of(3, p) == 2

    def test_coincident_position_rejected(self):
        with pytest.raises(ValueError):
            sector_of(3, (0.0, 0.0))

    def test_rotation_permutes_sectors(self):
        rng = np.random.default_rng(5)
        rot = 2.0 * math.pi / 3.0
        c, s = math.cos(rot), math.sin(rot)
        for _ in range(200):
            p = rng.uniform(-900, 900, 2)
            if np.linalg.norm(p) < 1e-9:
                continue
            q = (c * p[0] - s * p[1], s * p[0] + c * p[1])
            assert sector_of(3, q) == (sector_of(3, p) + 1) % 3


class TestStoredSectors:
    """A FAP's sector is ``sector_of`` its position, binned when first read."""

    @pytest.mark.parametrize("n_sectors", [3, 4, 6])
    def test_generated_sectors_follow_positions(self, n_sectors):
        dep = generate(Scenario.D, DeploymentParams(n_faps=2000, n_sectors=n_sectors), 3)
        expected = [sector_of(n_sectors, p) for p in dep.positions()]
        assert dep.sectors().tolist() == expected
        assert set(expected) == set(range(n_sectors))

    def test_position_at_the_macro_bs_adds_nothing(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=20), seed=6)
        before = [a.copy() for a in (dep.positions(), dep.sectors(), dep.edges())]
        for rows in ([0.0, 0.0], [[1.0, 2.0], [0.0, -0.0]]):
            with pytest.raises(ValueError, match="macro BS"):
                dep.extend(rows)
            after = (dep.positions(), dep.sectors(), dep.edges())
            assert [a.tobytes() for a in after] == [a.tobytes() for a in before]
            assert dep.near((1.0, 2.0), 1.0).tolist() == []
        assert_positions_match_faps(dep)

    def test_without_a_macro_every_fap_is_in_sector_0(self):
        dep = Deployment(DeploymentParams(n_faps=3, n_sectors=6), macro=False)
        dep.extend([(0.0, 0.0), (-5.0, 1.0), (3.0, -4.0)])
        assert dep.sectors().tolist() == [0, 0, 0]


class TestMacroCell:
    """The macro cell is the deployment's ``DeploymentParams``: nothing else
    carries its radius, tx power or sector count."""

    def test_only_params_carry_the_macro_cell(self):
        assert not hasattr(topology, "MacroBs")
        assert list(inspect.signature(Deployment).parameters) == ["params", "macro"]
        with pytest.raises(ValueError):
            DeploymentParams(macro_radius_m=math.nextafter(MAX_DISTANCE_M, math.inf))
        with pytest.raises(ValueError, match="macro disc"):
            Deployment(DeploymentParams()).check_in_macro_disc((1e300, 0.0))

    def test_disc_test_and_cell_grid_read_one_radius(self):
        # the macro radius bounds the disc test alone: at the domain's widest
        # disc the cells are still the neighbor radius, a hair wider
        params = DeploymentParams(n_faps=1, macro_radius_m=MAX_DISTANCE_M)
        dep = Deployment(params)
        dep.check_in_macro_disc((params.macro_radius_m, 0.0))
        with pytest.raises(ValueError, match="macro disc"):
            dep.check_in_macro_disc((math.nextafter(params.macro_radius_m, math.inf), 0.0))
        assert _cell_side(params.neighbor_radius_m) == 100.0 * (1 + 1e-6)

    def test_no_macro_no_disc(self):
        dep = generate(Scenario.A, DeploymentParams(n_faps=1), seed=1)
        with pytest.raises(ValueError, match="macrocell"):
            dep.check_in_macro_disc((1.0, 0.0))


class TestDeploymentParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_faps": 0},
            {"neighbor_radius_m": 0.0},
            {"macro_radius_m": math.inf},
            {"femto_radius_m": -1.0},
            {"fap_tx_power_w": math.inf},
            {"macro_tx_power_w": math.nan},
            {"reference_distance_m": 1500.0},  # outside the 1000 m macro disc
            # one step outside each bound of the domain
            {"macro_radius_m": math.nextafter(1e5, math.inf)},
            {"femto_radius_m": math.nextafter(1e-3, 0.0)},
            {"reference_distance_m": math.nextafter(1e-3, 0.0)},
            {"neighbor_radius_m": math.nextafter(1e-3, 0.0)},
            {"fap_tx_power_w": math.nextafter(1e-9, 0.0)},
            {"macro_tx_power_w": math.nextafter(1e3, math.inf)},
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeploymentParams(**kwargs)

    @pytest.mark.parametrize("n_sectors", [0, -1])
    def test_sectorless_macro_cell_rejected(self, n_sectors):
        # 0 sectors would make extend divide by zero, and -1 would put FAPs
        # in sector -2
        with pytest.raises(ValueError, match="n_sectors"):
            DeploymentParams(n_sectors=n_sectors)

    def test_domain_bounds_accepted(self):
        DeploymentParams(macro_radius_m=1e5, femto_radius_m=1e-3, reference_distance_m=1e-3,
                         neighbor_radius_m=1e-3, fap_tx_power_w=1e-9, macro_tx_power_w=1e3)
        DeploymentParams(macro_radius_m=1e5, femto_radius_m=1e5, reference_distance_m=1e5,
                         fap_tx_power_w=1e3, macro_tx_power_w=1e-9, n_sectors=1)

    def test_infinite_neighbor_radius_accepted(self):
        params = DeploymentParams(n_faps=20, neighbor_radius_m=math.inf)
        dep = generate(Scenario.D, params, seed=4)
        assert neighbor_graph(dep, params.neighbor_radius_m).n_edges == 20 * 19 // 2


class TestGenerate:
    def test_scenario_a(self):
        dep = generate(Scenario.A, DeploymentParams(n_faps=1), seed=1)
        assert dep.macro is False
        assert len(dep.faps) == 1
        assert neighbor_graph(dep, 100.0).n_edges == 0

    def test_scenario_d_inside_disc(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=1000), seed=3)
        assert len(dep.faps) == 1000
        radii = np.linalg.norm(dep.positions(), axis=1)
        assert np.all(radii <= 1000.0)

    def test_reference_fap_pinned(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=1000), seed=3)
        assert np.array_equal(dep.faps[0].position, [200.0, 0.0])
        assert dep.faps[0].sector_index == 0

    def test_determinism(self):
        a = generate(Scenario.D, DeploymentParams(n_faps=500), seed=11)
        b = generate(Scenario.D, DeploymentParams(n_faps=500), seed=11)
        assert np.array_equal(a.positions(), b.positions())
        assert [f.sector_index for f in a.faps] == [f.sector_index for f in b.faps]

    def test_lower_densities_are_prefixes(self):
        # placement is sequential, so a smaller build-out of the same seed is a
        # bit-exact prefix of a larger one
        small = generate(Scenario.D, DeploymentParams(n_faps=300), seed=12)
        large = generate(Scenario.D, DeploymentParams(n_faps=1000), seed=12)
        head = large.faps[:300]
        assert [(f.id, f.sector_index) for f in small.faps] == [
            (f.id, f.sector_index) for f in head
        ]
        assert np.array_equal(small.positions(), large.positions()[:300])

    def test_scenario_b_separation(self):
        params = DeploymentParams(n_faps=40)
        dep = generate(Scenario.B, params, seed=9)
        g = neighbor_graph(dep, params.neighbor_radius_m)
        assert g.n_edges == 0

    def test_scenario_b_redraws_a_graph_neighbor(self, monkeypatch):
        # the first candidate is 100.00000000000001 m from FAP 0 at (200, 0)
        # by norm, but its d2 is 100 * 100, so the graph links the pair:
        # scenario B must redraw it
        stub = np.array([[187.25192387233957, -99.18410434663095]])
        draw = topology._disc_points
        calls = []

        def first_draw_stubbed(rng, radius, m):
            calls.append(m)
            points = draw(rng, radius, m)  # the stream advances as before
            return stub if len(calls) == 1 else points

        monkeypatch.setattr(topology, "_disc_points", first_draw_stubbed)
        params = DeploymentParams(n_faps=2)
        dep = generate(Scenario.B, params, seed=9)
        assert len(calls) >= 2
        assert dep.positions()[1].tolist() != stub[0].tolist()
        assert neighbor_graph(dep, params.neighbor_radius_m).n_edges == 0

    def test_scenario_b_infeasible_packing(self, monkeypatch):
        # 500 FAPs pairwise >100 m apart cannot fit a 300 m disc
        monkeypatch.setattr(topology, "MAX_PLACE_ATTEMPTS", 50)
        params = DeploymentParams(n_faps=500, macro_radius_m=300.0)
        with pytest.raises(PlacementError, match="after 50 attempts"):
            generate(Scenario.B, params, seed=9)

    def test_poisson_neighbor_mean_interior(self):
        # lambda = density * pi * r^2 = (1000 / (pi 1000^2)) * pi * 100^2 = 10;
        # measured only for FAPs at least 100 m inside the boundary to avoid
        # edge truncation
        params = DeploymentParams(n_faps=1000)
        dep = generate(Scenario.D, params, seed=17)
        g = neighbor_graph(dep, 100.0)
        radii = np.linalg.norm(dep.positions(), axis=1)
        interior = [f.id for f, r in zip(dep.faps, radii) if r <= 900.0]
        counts = np.array([g.degree(i) for i in interior])
        lam = 10.0
        se = math.sqrt(lam / len(counts))  # Poisson variance = lambda
        assert abs(counts.mean() - lam) < 3 * se

    def test_uniformity_chi_squared(self):
        # 100 equal-probability (r^2, theta) cells over the disc at alpha=0.01
        params = DeploymentParams(n_faps=10_000)
        dep = generate(Scenario.D, params, seed=29)
        pos = dep.positions()[1:]  # skip the pinned reference FAP
        r2 = (pos**2).sum(axis=1) / params.macro_radius_m**2
        theta = np.arctan2(pos[:, 1], pos[:, 0]) % (2 * math.pi)
        bins_r = np.minimum((r2 * 10).astype(int), 9)
        bins_t = np.minimum((theta / (2 * math.pi) * 10).astype(int), 9)
        counts = np.bincount(bins_r * 10 + bins_t, minlength=100)
        expected = len(pos) / 100.0
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.99, df=99)


def assert_positions_match_faps(dep):
    """The deployment's positions array equals the FAPs' own positions bit for
    bit, row i being FAP i."""
    assert [f.id for f in dep.faps] == list(range(len(dep.faps)))
    expected = np.array([f.position for f in dep.faps]).reshape(-1, 2)
    got = dep.positions()
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestDeploymentPositions:
    @pytest.mark.parametrize("scenario, n_faps, seed", [
        (Scenario.A, 1, 1), (Scenario.B, 40, 9), (Scenario.D, 1000, 3),
    ])
    def test_generate_matches_faps(self, scenario, n_faps, seed):
        assert_positions_match_faps(generate(scenario, DeploymentParams(n_faps=n_faps), seed))

    def test_read_only_and_not_rebuilt(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=50), seed=4)
        a, b = dep.positions(), dep.positions()
        assert np.shares_memory(a, b)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_fap_position_immutable(self):
        source = np.array([300.0, 40.0])
        dep = Deployment(DeploymentParams(n_faps=1))
        dep.extend(source)
        source[0] = 0.0  # the deployment holds its own copy
        fap = dep.faps[0]
        assert fap.position.tolist() == [300.0, 40.0]
        assert np.shares_memory(fap.position, dep.positions())  # a view of its row
        with pytest.raises(ValueError):
            fap.position[0] = 1.0
        with pytest.raises(AttributeError):
            fap.position = np.array([1.0, 2.0])
        with pytest.raises(AttributeError):
            dep.faps[0].position = np.array([1.0, 2.0])
        # only (x, y) rows join; a flat or 3-column array is not read as pairs
        frozen_triple = np.array([1.0, 2.0, 3.0])
        frozen_triple.flags.writeable = False
        for bad in (5.0, (1.0, 2.0, 3.0), frozen_triple, np.arange(6.0).reshape(2, 3),
                    np.zeros((1, 1, 2)), []):
            with pytest.raises(ValueError, match="rows"):
                dep.extend(bad)
        assert len(dep.faps) == 1
        assert_positions_match_faps(dep)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_adds_nothing(self, bad):
        dep = generate(Scenario.D, DeploymentParams(n_faps=20), seed=6)
        before = dep.positions().copy()
        for rows in ([bad, 0.0], [0.0, bad], [[1.0, 2.0], [3.0, bad]]):
            with pytest.raises(ValueError, match="not finite"):
                dep.extend(rows)
            assert len(dep.faps) == 20
            assert dep.positions().tobytes() == before.tobytes()
            # the valid row (1, 2) before the bad one was not indexed either
            assert dep.near((1.0, 2.0), 1.0).tolist() == []
        assert_positions_match_faps(dep)
        assert neighbor_graph(dep, 100.0).n_faps == 20

    def test_position_beyond_100_km_rejected(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=20), seed=6)
        dep.extend([(1e5, -1e5), (-1e5, 1e5)])  # the domain's corners join
        beyond = math.nextafter(1e5, math.inf)
        for p in ((beyond, 0.0), (0.0, -beyond), (1e300, 1e300)):
            with pytest.raises(ValueError, match="beyond 100 km"):
                dep.extend(p)
            with pytest.raises(ValueError, match="beyond 100 km"):
                dep.near(p, 100.0)
        assert len(dep.faps) == 22
        assert_positions_match_faps(dep)

    def test_append_grows_past_capacity(self):
        rng = np.random.default_rng(5)
        dep = generate(Scenario.D, DeploymentParams(n_faps=3), seed=5)
        before = dep.positions()
        for _ in range(3, 100):
            dep.extend(rng.uniform(-500.0, 500.0, 2))
            assert_positions_match_faps(dep)
        assert np.array_equal(dep.positions()[:3], before)
        assert before.shape == (3, 2)  # earlier views keep their rows

    def test_growth_outside_append_detected(self):
        # dep.faps is a read-only sequence of views: growing, rebinding or
        # replacing it fails at once and leaves the deployment as it was
        dep = generate(Scenario.D, DeploymentParams(n_faps=3), seed=5)
        with pytest.raises(AttributeError):
            dep.faps.append(dep.faps[0])
        with pytest.raises(AttributeError):
            dep.faps = list(dep.faps)
        with pytest.raises(TypeError):
            dep.faps[1] = dep.faps[0]
        assert len(dep.faps) == 3
        assert_positions_match_faps(dep)

    def test_deepcopy_is_independent(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=20), seed=6)
        twin = copy.deepcopy(dep)
        assert_positions_match_faps(twin)
        assert not np.shares_memory(twin.positions(), dep.positions())
        twin.extend((0.0, -300.0))
        assert_positions_match_faps(twin)
        assert len(dep.faps) == 20
        assert_positions_match_faps(dep)
        assert not twin.faps[0].position.flags.writeable
        with pytest.raises(AttributeError):
            twin.faps[0].position = np.zeros(2)


class TestAllocationStorage:
    """A FAP's allocation is its edge index under the deployment's plan."""

    def test_never_assigned_faps_have_no_allocation(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=40), seed=2)
        assert dep.plan is None
        assert {f.allocation for f in dep.faps} == {None}
        assert dep.edges().tolist() == [-1] * 40
        apply_plan(dep, PLAN)
        dep.extend([[300.0, 5.0]])
        dep.extend((0.0, 300.0))
        assert dep.faps[40].allocation is None and dep.faps[41].allocation is None
        assert None not in {f.allocation for f in dep.faps[:40]}
        with pytest.raises(ValueError):
            dep.edges()[0] = 1  # a read-only view

    def test_partial_assign_needs_the_bound_plan(self):
        other = build_plan(Scheme.DYNAMIC_REUSE, Band(0, 30_000_000), 3)
        dep = generate(Scenario.D, DeploymentParams(n_faps=40), seed=2)
        with pytest.raises(ValueError, match="not the deployment's"):
            dep.assign(PLAN, 1, [3])  # no plan bound yet
        apply_plan(dep, PLAN)
        with pytest.raises(ValueError, match="not the deployment's"):
            dep.assign(other, 1, [3])
        assert dep.edges()[3] == 0
        dep.assign(copy.deepcopy(PLAN), 1, [3])  # an equal plan is the same plan
        assert dep.faps[3].allocation.edge_choice is EdgeChoice.X
        apply_plan(dep, other)  # writing every FAP binds the new plan
        assert dep.plan is other
        assert {f.allocation.center for f in dep.faps} <= set(other.center_band_per_sector)

    def test_assign_rejects_edges_outside_the_plan(self):
        same = build_plan(Scheme.SAME, Band(0, 60_000_000), 3)
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=40), seed=2), same)
        for bad in (1, 3, [0] * 39 + [2]):
            with pytest.raises(ValueError, match="no edge bands"):
                dep.assign(same, bad)
        with pytest.raises(ValueError, match="no edge bands"):
            dep.assign(same, 1, [5])
        apply_plan(dep, PLAN)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="edge index"):
                dep.assign(PLAN, bad)
        assert dep.edges().tolist() == [0] * 40 and dep.plan is PLAN

    @pytest.mark.parametrize("ids, named", [
        ([-1], "-1"), ([5], "5"), ([7], "7"), ([0, 2, 5], "5"),
        ([True, False, False, False, False], "True"), ([1.0], "1.0"), (np.array([2.5]), "2.5"),
    ])
    def test_assign_rejects_ids_outside_the_deployment(self, ids, named):
        # -1 used to recolour FAP 4, a boolean mask was taken as ids and 7
        # raised a bare IndexError
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=5), seed=2), PLAN)
        with pytest.raises(ValueError, match=f"^no FAP with id {named}$"):
            dep.assign(PLAN, 2, ids)
        assert dep.edges().tolist() == [0] * 5
        dep.assign(PLAN, 2, [])
        dep.assign(PLAN, 2, np.array([4, 0], dtype=np.uint8))
        dep.assign(PLAN, 3, 1)
        assert dep.edges().tolist() == [2, 3, 0, 0, 2]

    @pytest.mark.parametrize("plan_sectors", [2, 4, 6])
    def test_plan_binds_only_at_the_deployment_sector_count(self, plan_sectors):
        # a 6-sector plan used to bind to a 3-sector deployment, whose sector
        # indices all lie below 6
        dep = generate(Scenario.D, DeploymentParams(n_faps=300, n_sectors=3), 1)
        scheme = Scheme.SAME if plan_sectors < 3 else Scheme.DYNAMIC_REUSE
        plan = build_plan(scheme, Band(0, 60_000_000), n_sectors=plan_sectors)
        with pytest.raises(ValueError, match="n_sectors=3"):
            apply_plan(dep, plan)
        assert dep.plan is None and dep.edges().tolist() == [-1] * 300
        apply_plan(dep, PLAN)
        with pytest.raises(ValueError, match="n_sectors=3"):
            dep.assign(plan, 0, [0])
        assert dep.plan is PLAN

    def test_setter_takes_only_the_fap_sector_allocations(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=40), seed=2)
        fap = dep.faps[0]
        s = fap.sector_index
        z = FemtoAllocation(PLAN.center_band_per_sector[s], EdgeChoice.Z, s)
        with pytest.raises(ValueError):
            fap.allocation = z  # no plan bound
        apply_plan(dep, PLAN)
        fap.allocation = z
        assert dep.edges()[0] == 3 and fap.allocation == z
        for bad in (FemtoAllocation(PLAN.center_band_per_sector[s - 1], EdgeChoice.Z, s),
                    FemtoAllocation(PLAN.center_band_per_sector[s], EdgeChoice.Z, s - 1)):
            with pytest.raises(ValueError, match="sector"):
                fap.allocation = bad
        assert fap.allocation == z
        with pytest.raises(ValueError, match="sector"):
            fap.allocation = None  # only extend leaves a FAP without an allocation
        assert fap.allocation == z and dep.edges()[0] == 3


class TestNeighborGraph:
    def _two_fap_deployment(self, distance):
        params = DeploymentParams(n_faps=1)
        dep = generate(Scenario.D, params, seed=1)
        position = dep.faps[0].position + np.array([distance, 0.0])
        dep.extend(position)
        return dep

    def test_within_radius_adjacent(self):
        g = neighbor_graph(self._two_fap_deployment(99.0), 100.0)
        adjacency = _adjacency(g)
        assert adjacency[0] == {1} and adjacency[1] == {0}

    def test_beyond_radius_not_adjacent(self):
        g = neighbor_graph(self._two_fap_deployment(101.0), 100.0)
        assert g.n_edges == 0

    def test_matches_brute_force(self):
        params = DeploymentParams(n_faps=1000)
        dep = generate(Scenario.D, params, seed=33)
        g = neighbor_graph(dep, 100.0)
        pos = {f.id: f.position for f in dep.faps}
        ids = sorted(pos)
        expected = {i: set() for i in ids}
        for i in ids:
            for j in ids:
                if i < j and math.dist(pos[i], pos[j]) <= 100.0:
                    expected[i].add(j)
                    expected[j].add(i)
        assert _adjacency(g) == expected

    def test_symmetric_irreflexive(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=300), seed=8)
        g = neighbor_graph(dep, 100.0)
        adjacency = _adjacency(g)
        for a, nbrs in adjacency.items():
            assert a not in nbrs
            for b in nbrs:
                assert a in adjacency[b]

    def test_bad_radius(self):
        dep = generate(Scenario.A, DeploymentParams(n_faps=1), seed=1)
        with pytest.raises(ValueError):
            neighbor_graph(dep, 0.0)

    def test_nan_radius_rejected(self):
        # nan <= 0 is False, so only `not radius > 0` catches it
        dep = generate(Scenario.D, DeploymentParams(n_faps=20), seed=1)
        with pytest.raises(ValueError):
            neighbor_graph(dep, math.nan)


def _layout(positions):
    """Deployment of FAPs at arbitrary positions (no macro BS needed)."""
    dep = Deployment(DeploymentParams(n_faps=len(positions)), macro=False)
    dep.extend(positions)
    return dep


def _all_pairs_edges(pos, radius):
    """Every pair i < j with ((p_i - p_j) ** 2).sum() <= radius * radius, by
    comparing each FAP with all others."""
    r2 = radius * radius
    edges = set()
    for i in range(len(pos)):
        d2 = ((pos[i] - pos) ** 2).sum(axis=1)
        edges.update((i, j) for j in np.flatnonzero(d2 <= r2).tolist() if j > i)
    return edges


def _assert_csr_matches_all_pairs(dep, radius):
    g = neighbor_graph(dep, radius)
    n = len(dep.faps)
    assert g.indices.dtype == np.int32
    assert g.indptr.shape == (n + 1,) and g.indptr[0] == 0
    assert g.indptr[-1] == len(g.indices)
    rows = [g.neighbors(i) for i in range(n)]
    for i, row in enumerate(rows):
        assert np.all(np.diff(np.sort(row)) > 0)  # no repeats
        assert i not in row
    directed = {(i, j) for i, row in enumerate(rows) for j in row.tolist()}
    assert directed == {(j, i) for i, j in directed}  # symmetric
    expected = _all_pairs_edges(dep.positions(), radius)
    assert set(g.edges()) == expected
    assert g.n_edges == len(expected)
    return expected


def _lattice(step, k=3):
    """Points at multiples of ``step`` on both axes, negative ones included:
    every point sits on a cell boundary of a grid of side ``step``."""
    return [(a * step, b * step) for a in range(-k, k + 1) for b in range(-k, k + 1)]


class TestNeighborGraphOracle:
    """The cell-grid search against a brute-force all-pairs comparison."""

    @pytest.mark.parametrize("n_faps, seed", [(2, 1), (50, 2), (500, 3), (2000, 4)])
    @pytest.mark.parametrize("radius", [100.0, 37.5, 250.0])
    def test_scenario_d(self, n_faps, seed, radius):
        dep = generate(Scenario.D, DeploymentParams(n_faps=n_faps), seed)
        _assert_csr_matches_all_pairs(dep, radius)

    @pytest.mark.parametrize("radius", [100.0, 0.1 + 0.2, 100 / 3, 1e-3, math.inf])
    def test_lattice_on_cell_boundaries(self, radius):
        step = radius if math.isfinite(radius) else 100.0
        edges = _assert_csr_matches_all_pairs(_layout(_lattice(step)), radius)
        if radius == 100.0:
            # lattice neighbors exactly r apart along an axis are adjacent;
            # diagonal ones (r * sqrt 2) are not
            assert len(edges) == 2 * 7 * 6

    @pytest.mark.parametrize("radius", [100.0, 0.1 + 0.2, 100 / 3])
    def test_pairs_exactly_r_apart(self, radius):
        dep = _layout([(0.0, 0.0), (radius, 0.0), (0.0, -radius), (-radius, 0.0),
                       (3 * radius, 5 * radius), (3 * radius, 6 * radius)])
        _assert_csr_matches_all_pairs(dep, radius)

    def test_tiny_radius(self):
        # the domain's smallest radius, 1 mm: only FAPs within 1 mm pass, and
        # the 1 mm cells' keys, up to 1e8 per axis at the 100 km corners, fit
        # int64
        dep = generate(Scenario.D, DeploymentParams(n_faps=300), seed=5)
        pos = dep.positions()
        layout = [tuple(p) for p in pos] + [tuple(pos[7]), (1e-3, 0.0), (2e-3, 0.0),
                                            (1e5, 1e5), (1e5, 1e5 - 5e-4), (-1e5, -1e5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # cell keys must not overflow
            edges = _assert_csr_matches_all_pairs(_layout(layout), 1e-3)
        assert {(7, 300), (301, 302), (303, 304)} <= edges

    def test_radius_whose_square_overflows(self):
        # 1e200 ** 2 is inf, so every pair passes, even ones 100 km apart
        dep = _layout([(0.0, 0.0), (1e5, 0.0), (-1e5, 1e5), (3.0, 4.0)])
        assert len(_assert_csr_matches_all_pairs(dep, 1e200)) == 4 * 3 // 2

    def test_infinite_radius_is_complete(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=60), seed=6)
        edges = _assert_csr_matches_all_pairs(dep, math.inf)
        assert len(edges) == 60 * 59 // 2

    def test_single_fap(self):
        dep = _layout([(5.0, -5.0)])
        assert _assert_csr_matches_all_pairs(dep, 100.0) == set()
        assert neighbor_graph(dep, 100.0).indptr.tolist() == [0, 0]

    def test_coincident_faps(self):
        dep = _layout([(200.0, 0.0), (200.0, 0.0), (-450.0, 3.0)])
        assert _assert_csr_matches_all_pairs(dep, 100.0) == {(0, 1)}


def _csr_row_by_row(pos, radius):
    """CSR arrays of the graph, each row by comparing its FAP with all others
    by the graph's float expression; rows come out ascending, so they match
    the graph's rows once those are sorted."""
    r2 = radius * radius
    rows = []
    for i, p in enumerate(pos):
        row = np.flatnonzero(((p - pos) ** 2).sum(axis=1) <= r2)
        rows.append(row[row != i])
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr.astype(np.int64), np.concatenate(rows).astype(np.int32)


class TestCandidateBlocks:
    """Blocks are cut on row boundaries and every step inside one is
    elementwise, so the block size cannot change a bit of the result: a row
    is never split across blocks, so its order does not depend on them."""

    @staticmethod
    def _case(name):
        if name == "crowded-inf":
            # one cell: every row has all 1100 FAPs as candidates, more than
            # a block of 2**10
            return generate(Scenario.D, DeploymentParams(n_faps=1100), seed=9), math.inf
        radius = {"d-100": 100.0, "d-250": 250.0}[name]
        return generate(Scenario.D, DeploymentParams(n_faps=2000), seed=4), radius

    @pytest.mark.parametrize("block", [1, 7, 2**10, None])
    @pytest.mark.parametrize("case", ["d-100", "d-250", "crowded-inf"])
    def test_graph_is_bit_identical_at_every_block_size(self, monkeypatch, case, block):
        dep, radius = self._case(case)
        default = neighbor_graph(dep, radius)
        if block is not None:  # None keeps the default
            monkeypatch.setattr(topology, "_CANDIDATE_BLOCK", block)
        g = neighbor_graph(dep, radius)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        assert g.indptr.tobytes() == default.indptr.tobytes()
        assert g.indices.tobytes() == default.indices.tobytes()
        indptr, indices = _csr_row_by_row(dep.positions(), radius)
        assert g.indptr.tobytes() == indptr.tobytes()
        rows = [np.sort(g.neighbors(i)) for i in range(g.n_faps)]
        assert np.concatenate(rows).tobytes() == indices.tobytes()

    @pytest.mark.parametrize("case", ["d-100", "crowded-inf"])
    def test_graph_walks_the_stream_once(self, monkeypatch, case):
        dep, radius = self._case(case)
        calls, real = [], topology._Pairs.blocks
        monkeypatch.setattr(topology._Pairs, "blocks", lambda self, *args, **kwargs: calls.append(
            args) or real(self, *args, **kwargs))
        g = neighbor_graph(dep, radius)
        assert len(calls) == 1 and g.n_edges > 0


class TestNeighborGraphMemory:
    # The dense-block search it replaced held 512 x N x 2 float64 differences
    # plus their squares, sums and masks: about 130 MB at N = 8000.  The grid
    # search holds the CSR result (about 2.4 MiB at 8000 FAPs), the spare
    # capacity of its growing buffer, a few per-FAP arrays and one block of
    # 2**14 candidates (about 10 temporaries of 128 KiB): 1.2 MiB above the
    # result at 8000 FAPs.  Any N-wide pairwise block, even a single float64
    # row block of 512 x 8000 x 2 (62.5 MiB), puts it far above.
    EXCESS_MB = 4

    def test_peak_well_below_dense_blocks(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=8000), seed=8)
        tracemalloc.start()
        try:
            g = neighbor_graph(dep, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - (g.indices.nbytes + g.indptr.nbytes) <= self.EXCESS_MB * 2**20

    def test_peak_near_the_result(self):
        # Holding the int32 indices twice (per-block pieces plus their
        # concatenation) puts the peak at twice the result.  The build may
        # hold the result, an eighth of it at most in the growing buffer's
        # spare capacity, and one block's temporaries plus a few per-FAP
        # arrays (4.9 MiB at 40000 FAPs).
        dep = generate(Scenario.D, DeploymentParams(n_faps=40000), seed=8)
        tracemalloc.start()
        try:
            g = neighbor_graph(dep, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = g.indices.nbytes + g.indptr.nbytes
        assert result > 50 * 2**20
        assert peak < 1.25 * result + 16 * 2**20
