"""The deployment's incremental cell index against a plain O(N) scan.

``Deployment.near`` and ``son.admit_fap`` read only the 3x3 cells around a
point.  The reference here compares the point with every FAP by the neighbor
graph's test, ``((positions - point) ** 2).sum(axis=1) <= radius * radius``
(the O(N) scan the index replaces), and picks the admitted color from those
sniffed FAPs by the documented rule.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from femtosim import son
from femtosim.channel import neighbor_ids
from femtosim.son import admit_fap, assign_uniform_random_colors, configure_frequencies
from femtosim.spectrum import EDGE_COLORS, Band, EdgeChoice, Scheme, build_plan
from femtosim.topology import (
    MAX_DISTANCE_M,
    Deployment,
    DeploymentParams,
    Scenario,
    _cell_key,
    _cell_keys,
    _cell_side,
    apply_plan,
    generate,
    neighbor_graph,
)

PLAN = build_plan(Scheme.DYNAMIC_REUSE, Band(0, 60_000_000), 3)


def _reference_sniff(positions, point, radius):
    d2 = ((positions - point) ** 2).sum(axis=1)
    return np.flatnonzero(d2 <= radius * radius).tolist()


def _reference_color(dep, point, radius):
    """First color absent among the sniffed FAPs, else their least-used one
    (ties to the first of EDGE_COLORS)."""
    seen = [
        dep.faps[i].allocation.edge_choice
        for i in _reference_sniff(dep.positions(), point, radius)
        if dep.faps[i].allocation is not None
    ]
    return min(EDGE_COLORS, key=lambda c: (seen.count(c), EDGE_COLORS.index(c)))


def _layout(points, neighbor_radius):
    params = DeploymentParams(n_faps=len(points), neighbor_radius_m=neighbor_radius)
    dep = Deployment(params, macro=False)
    dep.extend(points)
    return dep


def _lattice(step, k=3):
    """Points at multiples of ``step`` on both axes: each one sits on a cell
    boundary of a grid of side ``step``."""
    return [(a * step, b * step) for a in range(-k, k + 1) for b in range(-k, k + 1)]


RADII = [100.0, 0.1 + 0.2, 100 / 3, 1e-3, math.inf]


def _assert_near_matches(dep, point, radius):
    got = dep.near(point, radius)
    assert got.tolist() == _reference_sniff(dep.positions(), np.asarray(point, float), radius)
    assert np.all(np.diff(got) > 0)


class TestNearAdversarial:
    @pytest.mark.parametrize("radius", RADII)
    def test_lattice_on_cell_boundaries(self, radius):
        step = radius if math.isfinite(radius) else 100.0
        points = _lattice(step)
        dep = _layout(points, radius)
        for p in points + [(step / 2, -step / 2), (3.5 * step, 0.0)]:
            _assert_near_matches(dep, p, radius)

    @pytest.mark.parametrize("radius", [100.0, 0.1 + 0.2, 100 / 3])
    def test_points_exactly_r_away(self, radius):
        points = [(0.0, 0.0), (radius, 0.0), (0.0, -radius), (-radius, 0.0),
                  (radius * math.cos(1.0), radius * math.sin(1.0)),
                  (3 * radius, 5 * radius), (3 * radius, 6 * radius)]
        dep = _layout(points, radius)
        for p in points:
            _assert_near_matches(dep, p, radius)

    def test_tiny_radius(self):
        # the domain's smallest radius, 1 mm, among coincident FAPs and FAPs
        # about 1 mm apart
        base = generate(Scenario.D, DeploymentParams(n_faps=200), seed=5).positions()
        x, y = base[3]
        points = [tuple(p) for p in base] + [tuple(base[7]), (x + 1e-3, y),
                                             (x, math.nextafter(y + 1e-3, math.inf))]
        dep = _layout(points, 1e-3)
        for p in points:
            _assert_near_matches(dep, p, 1e-3)

    def test_tiny_radius_spreads_faps_over_the_cells(self):
        # the cells are 1 mm wide, with no floor from the macro radius, so
        # FAPs in the 1 km disc share no crowded cell
        dep = generate(Scenario.D, DeploymentParams(n_faps=2000, neighbor_radius_m=1e-3), 8)
        assert len(dep._cells) > 1990
        assert max(map(len, dep._cells.values())) <= 2

    def test_infinite_radius_index(self):
        dep = _layout(_lattice(MAX_DISTANCE_M, k=1), math.inf)
        _assert_near_matches(dep, (0.0, 0.0), math.inf)
        assert len(dep.near((3.0, -4.0), math.inf)) == len(dep.faps)

    @pytest.mark.parametrize("query", [50.0, 100.0, 100.0001, 250.0, math.inf])
    def test_query_radius_other_than_the_index_radius(self, query):
        # radii wider than the cell side fall back to every FAP
        dep = generate(Scenario.D, DeploymentParams(n_faps=400), seed=9)
        for p in dep.positions()[:40]:
            _assert_near_matches(dep, p, query)

    def test_empty_deployment(self):
        dep = Deployment(DeploymentParams(n_faps=1), macro=False)
        assert dep.near((0.0, 0.0), 100.0).tolist() == []


def _assert_near_matches_graph(dep, radius):
    """For every FAP i, ``near(p_i, radius)`` less i is row i of the graph."""
    graph = neighbor_graph(dep, radius)
    for i, p in enumerate(dep.positions()):
        ids = dep.near(p, radius)
        assert ids[ids != i].tolist() == graph.neighbors(i).tolist()


class TestNearMatchesGraph:
    """The admission sniff and the interferer set (``near``) and SON coloring
    (``neighbor_graph``) decide who is a neighbor by one test."""

    RADII = [100.0, 150.5, 0.1 + 0.2, 100 / 3, 1e-3, 1e200, math.inf]

    @pytest.mark.parametrize("index_radius", [None, 100.0])
    @pytest.mark.parametrize("radius", RADII)
    def test_generated(self, radius, index_radius):
        # the cell index built at the query radius (None), or at 100 m
        params = DeploymentParams(n_faps=400, neighbor_radius_m=index_radius or radius)
        _assert_near_matches_graph(generate(Scenario.D, params, seed=9), radius)

    def test_pair_whose_distance_rounds_to_the_radius(self):
        # sqrt(d2) rounds to 150.5, but d2 = 22650.250000000004 > 150.5 * 150.5
        dep = _layout([(0.0, 0.0), (60.5106484379751, -137.79953347386842)], 150.5)
        _assert_near_matches_graph(dep, 150.5)
        assert dep.near((0.0, 0.0), 150.5).tolist() == [0]

    def test_radius_whose_square_overflows(self):
        # 1e200 * 1e200 is inf, so every pair passes, even ones 100 km apart
        dep = _layout([(0.0, 0.0), (1e5, 0.0), (-1e5, -1e5), (3.0, 4.0)], 1e200)
        _assert_near_matches_graph(dep, 1e200)
        assert dep.near((0.0, 0.0), 1e200).tolist() == [0, 1, 2, 3]


SIDES = [_cell_side(r) for r in (100.0, 0.1 + 0.2, 1e-3, 1e200)]


@st.composite
def _keyed_points(draw):
    """A cell side and points for it: any coordinate of the domain (-0.0
    included), and multiples of the side, on cell boundaries."""
    side = draw(st.sampled_from(SIDES))
    k_max = int(MAX_DISTANCE_M // side)
    coord = st.one_of(st.floats(-MAX_DISTANCE_M, MAX_DISTANCE_M),
                      st.integers(-k_max, k_max).map(lambda k: k * side),
                      st.sampled_from([-0.0, 0.0]))
    return side, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))


# the domain's corners, where the 1 mm cells' keys are largest
EDGE_POINTS = [(-0.0, 0.0), (MAX_DISTANCE_M, -MAX_DISTANCE_M), (-MAX_DISTANCE_M, MAX_DISTANCE_M),
               (-SIDES[0], SIDES[0]), (-1e-320, 1e-320)]


class TestCellKeys:
    @settings(max_examples=300, deadline=None)
    @given(keyed=_keyed_points())
    @example(keyed=(SIDES[0], EDGE_POINTS))
    @example(keyed=(SIDES[2], EDGE_POINTS))
    @example(keyed=(math.inf, EDGE_POINTS))
    def test_vector_keys_match_scalar(self, keyed):
        side, points = keyed
        expected = [_cell_key(x, y, side) for x, y in points]
        assert _cell_keys(np.array(points), side).tolist() == expected


finite = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
points_st = st.lists(st.tuples(finite, finite), min_size=1, max_size=60)


class TestNearProperty:
    @settings(max_examples=150, deadline=None)
    @given(points=points_st, probe=st.tuples(finite, finite),
           radius=st.sampled_from([100.0, 7.0, 0.1 + 0.2, 1e-3, math.inf]),
           snap=st.booleans())
    def test_matches_all_pairs_scan(self, points, probe, radius, snap):
        if snap and math.isfinite(radius):
            # put points on the grid lines and exactly r from the probe
            points = [(round(x / radius) * radius, y) for x, y in points]
            points.append((probe[0] + radius, probe[1]))
        dep = _layout(points, radius)
        _assert_near_matches(dep, probe, radius)
        for p in points[:5]:
            _assert_near_matches(dep, p, radius)


disc = st.tuples(
    st.floats(min_value=1.0, max_value=990.0), st.floats(min_value=0.0, max_value=2 * math.pi)
).map(lambda ra: (ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])))


class TestAdmissionOracle:
    @staticmethod
    def _admit_and_check(dep, points, radius):
        graph = neighbor_graph(dep, radius)  # admit_fap reads only its radius
        for p in points:
            p = np.asarray(p, dtype=float)
            expected_ids = _reference_sniff(dep.positions(), p, radius)
            assert dep.near(p, radius).tolist() == expected_ids
            expected = _reference_color(dep, p, radius)
            _, events = admit_fap(dep, p, PLAN, graph)
            assert events[1].details["color"] == expected.value
            assert dep.faps[-1].allocation.edge_choice is expected

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(disc, min_size=1, max_size=80),
           radius=st.sampled_from([100.0, 30.0, 1e-3, math.inf]))
    def test_sequence_matches_reference(self, points, radius):
        dep = generate(Scenario.D, DeploymentParams(n_faps=30, neighbor_radius_m=radius), 3)
        apply_plan(dep, PLAN)
        configure_frequencies(dep, neighbor_graph(dep, radius), PLAN)
        self._admit_and_check(dep, points, radius)

    @pytest.mark.parametrize("radius", [100.0, 0.1 + 0.2, 100 / 3])
    def test_boundary_layout(self, radius):
        # FAPs on cell boundaries and exactly r from later admissions
        start = [(300.0 + x, y) for x, y in _lattice(radius, k=2)]
        dep = Deployment(DeploymentParams(n_faps=len(start), neighbor_radius_m=radius))
        dep.extend(start)
        apply_plan(dep, PLAN)
        configure_frequencies(dep, neighbor_graph(dep, radius), PLAN)
        later = [(300.0 + radius, 0.5 * radius), (300.0 - radius, 0.0), (300.0, 2 * radius),
                 (300.0 + 2.5 * radius, -2 * radius), (300.0, 0.0)]
        self._admit_and_check(dep, later, radius)

    def test_dense_sweep_chain(self):
        # the fig6 admission path: 1500 FAPs admitted into a 500-FAP start
        full = generate(Scenario.D, DeploymentParams(n_faps=2000), 11)
        dep = generate(Scenario.D, DeploymentParams(n_faps=500), 11)
        apply_plan(dep, PLAN)
        configure_frequencies(dep, neighbor_graph(dep, 100.0), PLAN)
        self._admit_and_check(dep, full.positions()[500:], 100.0)
        assert dep.positions().tobytes() == full.positions().tobytes()


def test_neighbor_ids_match_reference():
    dep = generate(Scenario.D, DeploymentParams(n_faps=1500), 4)
    for ref in list(dep.faps)[:50]:
        expected = [i for i in _reference_sniff(dep.positions(), ref.position, 100.0)
                    if i != ref.id]
        assert neighbor_ids(dep, ref) == expected


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_colors_consume_the_scalar_stream(seed):
    dep = generate(Scenario.D, DeploymentParams(n_faps=700), 2)
    apply_plan(dep, PLAN)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state = assign_uniform_random_colors(dep, neighbor_graph(dep, 100.0), PLAN, rng)
    expected = [EDGE_COLORS[int(ref_rng.integers(0, 3))] for _ in range(len(dep.faps))]
    assert list(state.colors.values()) == expected
    assert [f.allocation.edge_choice for f in dep.faps] == expected
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)  # same state after


def test_allocation_views_write_through():
    dep = generate(Scenario.D, DeploymentParams(n_faps=50), 2)
    apply_plan(dep, PLAN)
    twin = copy.deepcopy(dep)
    fap = dep.faps[3]
    # a FAP takes only its own sector's allocations
    same = next(f for f in dep.faps[4:] if f.sector_index == fap.sector_index)
    elsewhere = next(f for f in dep.faps if f.sector_index != fap.sector_index)
    dep.assign(PLAN, 2, [same.id, elsewhere.id])
    fap.allocation = same.allocation
    assert dep.faps[3].allocation == same.allocation
    assert dep.edges()[3] == 2
    with pytest.raises(ValueError, match="sector"):
        fap.allocation = elsewhere.allocation
    assert dep.faps[3].allocation == same.allocation
    fap.tx_power *= 0.5
    assert dep.faps[3].tx_power == 0.005
    assert twin.faps[3].tx_power == 0.01  # a deep copy holds its own arrays
    assert twin.faps[3].allocation.edge_choice is EdgeChoice.NONE
    son.assign_shared_edge(dep, neighbor_graph(dep, 100.0), PLAN, EdgeChoice.Z)
    assert {f.allocation.edge_choice for f in dep.faps} == {EdgeChoice.Z}


def test_plan_with_fewer_sectors_rejected():
    dep = generate(Scenario.D, DeploymentParams(n_faps=50, n_sectors=6), 1)
    with pytest.raises(ValueError):
        apply_plan(dep, PLAN)
    assert {f.allocation for f in dep.faps} == {None}
