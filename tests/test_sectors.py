"""Sectors binned in bulk.  ``extend`` computes no sector; ``sectors()``
bins the rows appended since its last call in one array pass
(``_bin_sectors``), which must equal the scalar rule ``_sector`` row for row:
``np.arctan2`` may differ from ``math.atan2`` in the last bits, so every
angle within 1e-9 of a sector boundary takes the scalar rule."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtosim import topology
from femtosim.channel import PropagationParams
from femtosim.outage import OutageConfig, density_sweep
from femtosim.spectrum import Band, Scheme, build_plan
from femtosim.topology import (
    MAX_DISTANCE_M,
    TWO_PI,
    Deployment,
    DeploymentParams,
    Scenario,
    _bin_sectors,
    _sector,
    generate,
)

SECTOR_COUNTS = range(1, 9)
# a few steps of nextafter either side of a point on a boundary
NUDGES = (-2, -1, 0, 1, 2)


def _nudge(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _scalar(points, n_sectors):
    return [_sector(x, y, n_sectors) for x, y in points]


def _assert_bulk_is_scalar(points, n_sectors):
    points = [(x, y) for x, y in points if not (x == 0.0 and y == 0.0)]
    bulk = _bin_sectors(np.array(points, dtype=float).reshape(-1, 2), n_sectors)
    assert bulk.dtype == np.int64
    assert bulk.tolist() == _scalar(points, n_sectors)


# coordinates of the domain: +-0.0, subnormals and magnitudes down to 1e-300
# up to the 100 km box
COORDS = st.one_of(
    st.floats(-MAX_DISTANCE_M, MAX_DISTANCE_M),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, MAX_DISTANCE_M, -MAX_DISTANCE_M]),
)


@st.composite
def _boundary_points(draw):
    """(S, points): points on the boundaries k * 2 pi / S, k = 0..S, at
    radii from 1e-300 to 100 km, nudged a few ulps either way."""
    n_sectors = draw(st.sampled_from(SECTOR_COUNTS))
    points = []
    for _ in range(draw(st.integers(1, 20))):
        theta = draw(st.integers(0, n_sectors)) * TWO_PI / n_sectors
        radius = draw(st.one_of(st.floats(1e-300, MAX_DISTANCE_M),
                                st.sampled_from([1e-300, 1.0, 30.0, 200.0, MAX_DISTANCE_M])))
        x = _nudge(radius * math.cos(theta), draw(st.sampled_from(NUDGES)))
        y = _nudge(radius * math.sin(theta), draw(st.sampled_from(NUDGES)))
        points.append((x, y))
    return n_sectors, points


class TestBulkRuleIsTheScalarRule:
    @settings(max_examples=300, deadline=None)
    @given(case=_boundary_points())
    def test_on_sector_boundaries(self, case):
        n_sectors, points = case
        _assert_bulk_is_scalar(points, n_sectors)

    @settings(max_examples=200, deadline=None)
    @given(n_sectors=st.sampled_from(SECTOR_COUNTS),
           points=st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=30))
    def test_anywhere_in_the_domain(self, n_sectors, points):
        _assert_bulk_is_scalar(points, n_sectors)

    @pytest.mark.parametrize("n_sectors", SECTOR_COUNTS)
    def test_every_boundary_axis_zero_and_corner(self, n_sectors):
        points = []
        for k in range(n_sectors + 1):
            theta = k * TWO_PI / n_sectors
            for radius in (1e-300, 1e-3, 30.0, 200.0, 1e3, MAX_DISTANCE_M):
                x0, y0 = radius * math.cos(theta), radius * math.sin(theta)
                points += [(_nudge(x0, a), _nudge(y0, b)) for a in NUDGES for b in NUDGES]
        for m in (1e-300, 1.0, MAX_DISTANCE_M):
            for z in (0.0, -0.0):
                points += [(m, z), (-m, z), (z, m), (z, -m)]
        edge = MAX_DISTANCE_M
        points += [(edge, edge), (-edge, edge), (-edge, -edge), (edge, -edge)]
        _assert_bulk_is_scalar(points, n_sectors)

    def test_sampled_boundaries_need_the_scalar_rule(self):
        # every boundary at many radii, where np.arctan2 alone moves
        # thousands of points into the neighbouring sector on some CPUs
        points = [(200.0 * math.cos(t), 200.0 * math.sin(t))
                  for t in np.linspace(0.0, TWO_PI, 4097).tolist()]
        rng = np.random.default_rng(0)
        for n_sectors in (3, 4, 6, 8):
            width = TWO_PI / n_sectors
            ring = [(r * math.cos(k * width), r * math.sin(k * width))
                    for r in rng.uniform(1.0, MAX_DISTANCE_M, 500).tolist()
                    for k in range(1, n_sectors)]
            _assert_bulk_is_scalar(points + ring, n_sectors)

    def test_origin_takes_the_scalar_rule(self):
        for origin in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]):
            with pytest.raises(ValueError, match="macro BS"):
                _bin_sectors(np.array([[3.0, 4.0], origin]), 3)

    def test_arctan2_stays_within_ulps_of_math_atan2(self):
        # the 1e-9 boundary band holds only while np.arctan2 and math.atan2
        # agree to far better than that; a platform whose arctan2 strays
        # fails here, not in a sector
        rng = np.random.default_rng(1)
        scale = np.array([1e-300, 1e-3, 1.0, 1e3, MAX_DISTANCE_M])
        points = rng.uniform(-1.0, 1.0, (20000, 2)) * rng.choice(scale, (20000, 1))
        x, y = points[:, 0], points[:, 1]
        scalar = np.array([math.atan2(b, a) for a, b in points.tolist()])
        assert np.max(np.abs(np.arctan2(y, x) - scalar)) <= 1e-12


def _columns(dep: Deployment) -> list[bytes]:
    radii = [f.radius for f in dep.faps]
    return [a.tobytes() for a in (dep.positions(), dep.sectors(), dep.tx_powers(),
                                  dep.edges(), np.array(radii))]


# a FAP position: anywhere in the 100 km box but at the macro BS
POINTS = st.tuples(COORDS, COORDS).filter(lambda p: p != (0.0, 0.0))


class TestLazySectors:
    def test_extend_bins_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(topology, "_bin_sectors", lambda *a: calls.append(a) or [])
        monkeypatch.setattr(topology, "_sector", lambda *a: calls.append(a) or 0)
        dep = generate(Scenario.D, DeploymentParams(n_faps=500), seed=1)
        dep.extend((300.0, 40.0), 1)
        dep.extend([(10.0, -20.0), (-5.0, 7.0)])
        assert calls == []

    def test_each_row_is_binned_once(self, monkeypatch):
        binned = []
        real = topology._bin_sectors
        monkeypatch.setattr(topology, "_bin_sectors",
                            lambda points, s: binned.append(len(points)) or real(points, s))
        dep = generate(Scenario.D, DeploymentParams(n_faps=100, n_sectors=6), seed=2)
        first = dep.sectors()
        assert dep.sectors().tolist() == first.tolist() and binned == [100]
        dep.extend((0.0, 300.0))
        assert dep.faps[100].sector_index == 1
        assert dep.faps[3].sector_index == first[3]
        assert binned == [100, 1]

    @settings(max_examples=100, deadline=None)
    @given(n_sectors=st.sampled_from(SECTOR_COUNTS), ops=st.lists(st.one_of(
        st.tuples(st.just("pair"), POINTS),
        st.tuples(st.just("rows"), st.lists(POINTS, max_size=20)),
        st.tuples(st.just("sectors"), st.none()),
        st.tuples(st.just("fap"), st.integers(0, 10**6)),
    ), max_size=25))
    def test_interleaved_reads_across_growth(self, n_sectors, ops):
        # capacity doubles from 16: extends, bulk reads and single-FAP reads
        # in any order read the scalar rule's sector of every row
        dep = Deployment(DeploymentParams(n_faps=1, n_sectors=n_sectors))
        points = []
        for op, arg in ops:
            if op == "pair":
                dep.extend(arg)
                points.append(arg)
            elif op == "rows":
                dep.extend(np.array(arg, dtype=float).reshape(-1, 2))
                points += arg
            elif op == "sectors":
                assert dep.sectors().tolist() == _scalar(points, n_sectors)
            elif points:
                i = arg % len(points)
                assert dep.faps[i].sector_index == _sector(*points[i], n_sectors)
        assert dep.sectors().tolist() == _scalar(points, n_sectors)
        assert dep.positions().tolist() == [list(p) for p in points]

    @settings(max_examples=60, deadline=None)
    @given(point=POINTS, edge=st.integers(-1, 3),
           before=st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33]), read=st.booleans())
    def test_one_pair_is_one_row(self, point, edge, before, read):
        # extend((x, y)) and extend([[x, y]]) write the same columns, also
        # when the pair fills or grows the capacity
        x, y = point
        rows = np.random.default_rng(before).uniform(-500.0, 500.0, (before, 2))
        pair, one_row = (Deployment(DeploymentParams(n_faps=1)) for _ in range(2))
        for dep in (pair, one_row):
            dep.extend(rows, 2)
            if read:
                dep.sectors()
        pair.extend((x, y), edge)
        one_row.extend([[x, y]], edge)
        assert len(pair.faps) == len(one_row.faps) == before + 1
        assert _columns(pair) == _columns(one_row)
        assert pair.faps[before].sector_index == _sector(x, y, 3)

    @pytest.mark.parametrize("bad, match", [
        ((math.nan, 1.0), "not finite"), ((1.0, math.inf), "not finite"),
        ((-math.inf, 0.0), "not finite"),
        ((math.nextafter(MAX_DISTANCE_M, math.inf), 0.0), "beyond 100 km"),
        ((0.0, -1e300), "beyond 100 km"),
        ((0.0, 0.0), "macro BS"), ((-0.0, 0.0), "macro BS"), ((0.0, -0.0), "macro BS"),
    ])
    def test_rejected_rows_add_nothing(self, bad, match):
        dep = generate(Scenario.D, DeploymentParams(n_faps=16), seed=6)  # capacity full
        before = _columns(dep)
        for rows in (bad, [bad], [(1.0, 2.0), bad], [(1.0, 2.0), bad, (0.0, 0.0)]):
            with pytest.raises(ValueError, match=match):
                dep.extend(rows)
            assert len(dep.faps) == 16
            assert _columns(dep) == before
        # the message names the first row that fails
        with pytest.raises(ValueError, match="not finite"):
            dep.extend([(1.0, 2.0), (math.nan, 0.0), (0.0, 0.0)])
        with pytest.raises(ValueError, match="macro BS"):
            dep.extend([(0.0, 0.0), (math.nan, 0.0)])

    def test_without_a_macro_the_origin_joins_in_sector_0(self):
        dep = Deployment(DeploymentParams(n_faps=1, n_sectors=6), macro=False)
        dep.extend((0.0, 0.0))
        dep.extend([(-0.0, 0.0), (-5.0, 1.0)])
        assert dep.sectors().tolist() == [0, 0, 0]
        with pytest.raises(ValueError, match="not finite"):
            dep.extend((math.nan, 0.0))


class TestSweepBinsEachRowOnce:
    def test_fig6_sweep(self, monkeypatch):
        # the density sweep bins each row of its growing network at most
        # once, never the full network's, and calls the scalar rule only
        # from the bulk rule's fallback
        binned, callers, deployments, rows = {}, [], {}, []
        real_sectors, real_bin, real_sector = Deployment.sectors, _bin_sectors, _sector

        def sectors(self):
            rows.clear()
            out = real_sectors(self)
            deployments[id(self)] = self
            binned[id(self)] = binned.get(id(self), 0) + sum(rows)
            return out

        def bin_sectors(points, n_sectors):
            rows.append(len(points))
            return real_bin(points, n_sectors)

        def scalar(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_sector(*args)

        monkeypatch.setattr(Deployment, "sectors", sectors)
        monkeypatch.setattr(topology, "_bin_sectors", bin_sectors)
        monkeypatch.setattr(topology, "_sector", scalar)
        plans = [build_plan(s, Band(0, 60_000_000), 3, femto_fraction=1 / 3) for s in Scheme]
        density_sweep([500, 1000, 2000, 4000], plans, OutageConfig(n_trials=200),
                      PropagationParams(), seed=2)
        assert set(callers) <= {"_bin_sectors"}
        assert binned
        for key, count in binned.items():
            dep = deployments[key]
            assert count <= len(dep.faps) == 4000
            assert dep.sectors().tolist() == [topology.sector_of(3, p) for p in dep.positions()]
        assert sum(binned.values()) <= 4000
