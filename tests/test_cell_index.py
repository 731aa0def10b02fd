"""Neighbor queries against a plain O(N) scan.

``Deployment.near`` scans every FAP; ``neighbor_graph`` and
``earlier_neighbors`` read the 3x3 cells of a grid a hair wider than the
radius.  The reference here compares a point with every FAP by the neighbor
graph's test, ``((positions - point) ** 2).sum(axis=1) <= radius * radius``,
and picks the admitted color from those sniffed FAPs by the documented rule.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from femtosim import son, topology
from femtosim.channel import neighbor_ids
from femtosim.son import admit_fap, assign_uniform_random_colors, configure_frequencies
from femtosim.spectrum import EDGE_COLORS, Band, EdgeChoice, Scheme, build_plan
from femtosim.topology import (
    MAX_DISTANCE_M,
    Deployment,
    DeploymentParams,
    Scenario,
    _cell_keys,
    _cell_side,
    apply_plan,
    earlier_neighbors,
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

    @pytest.mark.parametrize("radius", [-100.0, 0.0, 1e-4, math.nan, -math.inf])
    def test_radius_outside_the_domain_rejected(self, radius):
        # -100 m used to find the FAPs within 100 m and NaN none; the graph
        # and the sniff stream reject both
        dep = generate(Scenario.D, DeploymentParams(n_faps=400), seed=1)
        point = dep.positions()[0]
        assert len(dep.near(point, 100.0)) > 1
        for query in (lambda: dep.near(point, radius), lambda: neighbor_graph(dep, radius)):
            with pytest.raises(ValueError, match="neighbor radius must be at least 0.001"):
                query()

    def test_empty_deployment(self):
        dep = Deployment(DeploymentParams(n_faps=1), macro=False)
        assert dep.near((0.0, 0.0), 100.0).tolist() == []

    def test_held_results_survive_extends_into_their_cells(self):
        # a result that viewed a cell's buffer would make the cell's next
        # append raise BufferError, or would change under its holder
        dep = _layout([(1.0, 1.0)], 100.0)
        held = []
        for i in range(1, 40):
            held.append(dep.near((1.0, 1.0), 100.0))
            held.append(dep.near((150.0, 1.0), 100.0))  # the next cell over
            dep.extend((1.0 + i, 1.0 - i))
        for k, ids in enumerate(held):
            assert ids.flags.owndata
            assert ids.tolist() == (list(range(k // 2 + 1)) if k % 2 == 0 else [])
        assert dep.near((1.0, 1.0), 100.0).tolist() == list(range(40))
        assert dep.near((1.0, 1.0), math.inf).flags.owndata


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


def _cell_key(x, y, side):
    """The cell key of one point, by scalar floors."""
    return math.floor(x / side) * (1 << 32) + math.floor(y / side)


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
            log = son.SonEventLog()
            admit_fap(dep, p, PLAN, graph, log)
            assert log.events[1].details["color"] == expected.value
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
    # an edge index names the FAP's own sector's allocation
    same = next(f for f in dep.faps[4:] if f.sector_index == fap.sector_index)
    elsewhere = next(f for f in dep.faps if f.sector_index != fap.sector_index)
    dep.assign(PLAN, 2, [same.id, elsewhere.id, fap.id])
    assert fap.allocation == dep.faps[3].allocation == same.allocation
    assert dep.edges()[3] == 2
    assert fap.allocation != elsewhere.allocation
    assert fap.allocation.edge_choice is elsewhere.allocation.edge_choice
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


def _stream(points, radius, start=0):
    """``earlier_neighbors`` of ``points`` from ``start``, each row as a list."""
    pos = np.asarray(points, dtype=float).reshape(-1, 2)
    return [row.tolist() for row in earlier_neighbors(pos, radius, start)]


def _assert_stream_matches(points, radius, start=0):
    """Every row of the stream is, as a set, the scan of the rows before it
    and ``near`` over a deployment of those rows; it names no id twice."""
    pos = np.asarray(points, dtype=float).reshape(-1, 2)
    rows = _stream(pos, radius, start)
    assert len(rows) == max(len(pos) - start, 0)
    dep = Deployment(DeploymentParams(n_faps=1), macro=False)
    dep.extend(pos[:start])
    for i, row in enumerate(rows, start):
        assert len(set(row)) == len(row)
        assert sorted(row) == _reference_sniff(pos[:i], pos[i], radius)
        assert sorted(row) == dep.near(pos[i], radius).tolist()
        dep.extend(pos[i])
    return rows


STREAM_RADII = [100.0, 7.0, 0.1 + 0.2, 100 / 3, 1e-3, 1e200, math.inf]


@st.composite
def _stream_layouts(draw):
    """A radius, points for it (on its grid lines, duplicated, or exactly r
    apart), and a start row from 0 to N."""
    radius = draw(st.sampled_from(STREAM_RADII))
    points = draw(st.lists(st.tuples(finite, finite), min_size=1, max_size=50))
    step = radius if math.isfinite(radius) and radius < 1e5 else 100.0
    if draw(st.booleans()):  # onto the cell boundaries
        points = [(round(x / step) * step, round(y / step) * step) for x, y in points]
    extra = draw(st.lists(st.tuples(st.integers(0, len(points) - 1), st.sampled_from(
        ["same", "right", "up"])), max_size=20))
    for k, how in extra:  # duplicates and pairs exactly r apart, in any order
        x, y = points[k]
        points.append({"same": (x, y), "right": (x + step, y), "up": (x, y + step)}[how])
    order = draw(st.permutations(range(len(points))))
    points = [points[k] for k in order]
    return radius, points, draw(st.integers(0, len(points)))


class TestEarlierNeighbors:
    @settings(max_examples=200, deadline=None)
    @given(layout=_stream_layouts())
    def test_rows_match_the_scan_and_near(self, layout):
        radius, points, start = layout
        _assert_stream_matches(points, radius, start)

    @pytest.mark.parametrize("radius", [100.0, 0.1 + 0.2, 100 / 3, 1e-3, math.inf])
    def test_lattice_on_cell_boundaries(self, radius):
        step = radius if math.isfinite(radius) else 100.0
        points = _lattice(step) + _lattice(step)[::3]  # and duplicates
        for start in (0, 1, len(points) // 2, len(points)):
            _assert_stream_matches(points, radius, start)

    @pytest.mark.parametrize("start", [0, 1, 40, 400])
    def test_generated(self, start):
        pos = generate(Scenario.D, DeploymentParams(n_faps=400), seed=9).positions()
        _assert_stream_matches(pos, 100.0, start)

    def test_start_at_or_past_the_end_yields_nothing(self):
        pos = [(1.0, 2.0), (3.0, 4.0)]
        assert _stream(pos, 100.0, 2) == [] == _stream(pos, 100.0, 5)
        assert _stream(np.empty((0, 2)), 100.0) == []
        assert _stream(pos, 100.0) == [[], [0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.5 * MAX_DISTANCE_M])
    def test_position_outside_the_domain_rejected(self, bad):
        # beyond 100 km, 1 mm cells would overflow their int64 keys
        with pytest.raises(ValueError, match="100 km"):
            _stream([(0.0, 0.0), (bad, 1.0)], 1e-3)

    def test_domain_corner_a(self):
        # corner "a" of the CLI's domain corners: a 100 km disc binned into 1
        # mm cells, whose keys reach about 2**59, plus FAPs 2**-10 m apart at
        # the domain's edges and duplicates
        params = DeploymentParams(n_faps=300, macro_radius_m=1e5, neighbor_radius_m=1e-3,
                                  reference_distance_m=2e-3, femto_radius_m=1e-3)
        pos = generate(Scenario.D, params, seed=3).positions().tolist()
        edge, gap = MAX_DISTANCE_M, 2.0**-10
        pos += [(edge, -edge), (edge - gap, -edge), (-edge, edge), (-edge, edge - gap),
                (0.0, 0.0), pos[5], (pos[7][0], pos[7][1] + gap), pos[5]]
        rows = _assert_stream_matches(pos, 1e-3, 100)
        assert [len(row) for row in rows[-8:]] == [0, 1, 0, 1, 0, 1, 1, 2]

    @pytest.mark.parametrize("block", [1, 7, 2**10])
    def test_block_size_changes_no_row(self, monkeypatch, block):
        # rows and their order are the same whatever the block, and blocks
        # of one row or less still yield every row
        pos = generate(Scenario.D, DeploymentParams(n_faps=1200), seed=4).positions()
        sparse = [(0.0, 0.0), (500.0, 0.0), (0.0, 500.0), (1.0, 0.0)]
        expected = [_stream(pos, r, 300) for r in (100.0, math.inf)] + [_stream(sparse, 100.0)]
        monkeypatch.setattr(topology, "_CANDIDATE_BLOCK", block)
        got = [_stream(pos, r, 300) for r in (100.0, math.inf)] + [_stream(sparse, 100.0)]
        assert got == expected
        _assert_stream_matches(pos[:500], 100.0, 200)

    @pytest.mark.parametrize("rows", [1, 7, 2**12])
    def test_count_chunk_changes_no_row(self, monkeypatch, rows):
        # the one chunk cuts the graph's blocks and the stream's alike
        dep = generate(Scenario.D, DeploymentParams(n_faps=1200), seed=4)
        pos = dep.positions()

        def outputs():
            graphs = [neighbor_graph(dep, r) for r in (100.0, math.inf)]
            return [(g.indptr.tolist(), g.indices.tolist()) for g in graphs] + [
                _stream(pos, r, s) for r in (100.0, math.inf) for s in (0, 300)]

        expected = outputs()
        monkeypatch.setattr(topology, "_CHUNK_ROWS", rows)
        assert outputs() == expected

    def test_blocks_are_cut_by_earlier_candidates(self, monkeypatch):
        # a block holds about _CANDIDATE_BLOCK earlier candidates (all but
        # the last of a count chunk at least half that), not all FAPs of its
        # rows' 3x3 cells
        pos = generate(Scenario.D, DeploymentParams(n_faps=4000), seed=1).positions()
        sizes, real = [], topology._Pairs.passes
        monkeypatch.setattr(topology._Pairs, "passes", lambda self, a, b, per_row, at: sizes.append(
            (b - a, len(at))) or real(self, a, b, per_row, at))
        rows = list(topology.earlier_neighbors(pos, 100.0, 500))
        budget = topology._CANDIDATE_BLOCK
        assert sum(n for n, _ in sizes) == len(rows) == 3500
        assert max(n for _, n in sizes) <= budget + 200  # a block runs at most one row past it
        chunks = -(-3500 // topology._CHUNK_ROWS)
        assert len([n for _, n in sizes if n < budget // 2]) <= chunks

    @pytest.mark.parametrize("start", [-1, -50, -60])
    def test_negative_start_rejected(self, start):
        pos = generate(Scenario.D, DeploymentParams(n_faps=50), seed=1).positions()
        with pytest.raises(ValueError, match="start must be at least 0"):
            _stream(pos, 100.0, start)
