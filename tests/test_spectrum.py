"""Band algebra and per-scheme allocation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import band_oracle
from femtosim.spectrum import Band, Scheme, UeRegion, build_plan, cochannel, split_band

MHZ = 1_000_000
TOTAL = Band(0, 60 * MHZ)


class TestBand:
    def test_width(self):
        assert Band(10, 25).width == 15

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            Band(5, 5)
        with pytest.raises(ValueError):
            Band(10, 3)

    def test_non_integer_edge_rejected(self):
        with pytest.raises(ValueError):
            Band(0.5, 10)

    def test_integral_float_coerced(self):
        b = Band(0.0, 20e6)
        assert b.upper == 20 * MHZ and isinstance(b.upper, int)

    def test_intersection_half_open(self):
        assert not Band(0, 10).intersects(Band(10, 20))  # touching, disjoint
        assert Band(0, 11).intersects(Band(10, 20))
        assert Band(12, 13).intersects(Band(10, 20))  # nested


class TestSplitBand:
    def test_exact_thirds(self):
        parts = split_band(Band(0, 60 * MHZ), 3)
        assert [p.width for p in parts] == [20 * MHZ] * 3
        assert parts[0].upper == parts[1].lower and parts[1].upper == parts[2].lower

    def test_too_fine_split_rejected(self):
        with pytest.raises(ValueError):
            split_band(Band(0, 2), 3)

    @given(
        lower=st.integers(0, 10**9),
        width=st.integers(12, 10**9),
        parts=st.integers(1, 12),
    )
    @settings(max_examples=200)
    def test_partition_exactness(self, lower, width, parts):
        band = Band(lower, lower + width)
        pieces = split_band(band, parts)
        widths = [p.width for p in pieces]
        assert sum(widths) == band.width
        assert max(widths) - min(widths) <= 1
        # contiguous, so any frequency point lies in at most one piece
        for a, b in zip(pieces[:-1], pieces[1:]):
            assert a.upper == b.lower


class TestBuildPlan:
    def test_dedicated_table2_split(self):
        # 33.3% of the band for femtocells, the rest for the macrocell
        plan = build_plan(Scheme.DEDICATED, TOTAL, 3, femto_fraction=1 / 3)
        assert plan.center_band_per_sector[0] == Band(0, 20 * MHZ)
        assert plan.macro_sector_bands[0] == Band(20 * MHZ, 60 * MHZ)
        assert not plan.center_band_per_sector[0].intersects(plan.macro_sector_bands[0])

    def test_same_is_identity(self):
        plan = build_plan(Scheme.SAME, TOTAL, 3)
        assert plan.center_band_per_sector == (TOTAL,) * 3
        assert plan.macro_sector_bands == (TOTAL,) * 3

    def test_partial_macro_keeps_everything(self):
        plan = build_plan(Scheme.PARTIAL, TOTAL, 3, femto_fraction=1 / 3)
        assert plan.macro_sector_bands[0] == TOTAL
        assert plan.center_band_per_sector[0] == Band(0, 20 * MHZ)

    def test_dynamic_partition(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        assert plan.macro_sector_bands == (
            Band(0, 20 * MHZ),
            Band(20 * MHZ, 40 * MHZ),
            Band(40 * MHZ, 60 * MHZ),
        )
        # sector 0 (the paper's sector 1): center band is the second sector's
        # band, edge bands are three slices of the third one
        assert plan.center_band_per_sector[0] == Band(20 * MHZ, 40 * MHZ)
        edges = plan.edge_bands_per_sector[0]
        assert len(edges) == 3
        assert sum(e.width for e in edges) == 20 * MHZ
        assert edges[0].lower == 40 * MHZ and edges[2].upper == 60 * MHZ
        assert max(e.width for e in edges) - min(e.width for e in edges) <= 1

    def test_errors(self):
        with pytest.raises(ValueError):
            build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 2)
        with pytest.raises(ValueError):
            build_plan(Scheme.DEDICATED, TOTAL, 3, femto_fraction=1.2)
        with pytest.raises(ValueError):
            build_plan(Scheme.DEDICATED, TOTAL, 3)  # fraction required
        with pytest.raises(ValueError):
            build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3, edge_split=0.9)

    @given(
        n_sectors=st.integers(3, 8),
        width=st.integers(1000, 10**9),
        edge_split=st.floats(0.05, 0.5),
    )
    @settings(max_examples=100)
    def test_dynamic_invariants_generalize(self, n_sectors, width, edge_split):
        plan = build_plan(Scheme.DYNAMIC_REUSE, Band(0, width), n_sectors, edge_split=edge_split)
        plan.validate()  # raises on any violated invariant
        widths = [b.width for b in plan.macro_sector_bands]
        assert sum(widths) == width
        assert max(widths) - min(widths) <= 1


def _plan(scheme, total=TOTAL, n_sectors=3, femto_fraction=1 / 3, edge_split=0.5):
    frac = femto_fraction if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
    return build_plan(scheme, total, n_sectors, femto_fraction=frac, edge_split=edge_split)


def _x(plan, region, ref, other):
    """``cochannel``'s X flag of allocation ``ref`` against ``other``."""
    return int(cochannel(plan, region, *ref)[0][other])


class TestAllocationBands:
    """An allocation is its sector's center band plus at most one edge band;
    ``cochannel`` sees the bands only through its flags."""

    def test_edge_ue_served_on_its_edge_band(self):
        # 60 MHz over 3 sectors: sector 0 sends on [20, 40) MHz plus the low
        # third of [40, 60) MHz for color X, sector 1 on [40, 60) MHz, and
        # sector 2's edge bands lie in [20, 40) MHz
        plan = _plan(Scheme.DYNAMIC_REUSE)
        edge_x = Band(40 * MHZ, 40 * MHZ + 20 * MHZ // 3)
        assert band_oracle.bands(plan, 0, 1) == (Band(20 * MHZ, 40 * MHZ), edge_x)
        x, y = cochannel(plan, UeRegion.EDGE, 0, 1)
        assert x.tolist() == [[0, 1, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]] and y == 0
        x, y = cochannel(plan, UeRegion.CENTER, 0, 1)
        assert x.tolist() == [[1, 1, 1, 1], [0, 0, 0, 0], [0, 1, 1, 1]] and y == 0

    def test_center_only_serves_the_edge_region_on_the_center_band(self):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        for s in range(3):
            x_edge, y_edge = cochannel(plan, UeRegion.EDGE, s, 0)
            x_center, y_center = cochannel(plan, UeRegion.CENTER, s, 0)
            assert x_edge.tolist() == x_center.tolist() and y_edge == y_center

    def test_dedicated_single_band(self):
        plan = _plan(Scheme.DEDICATED)
        assert band_oracle.bands(plan, 2, 0) == (Band(0, 20 * MHZ),)
        x, y = cochannel(plan, UeRegion.EDGE, 2, 0)
        assert x.shape == (3, 1) and x.dtype == np.int8
        assert x.tolist() == [[1], [1], [1]] and y == 0

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_non_plan_allocation_rejected(self, scheme):
        plan = _plan(scheme)
        n_edges = 4 if scheme is Scheme.DYNAMIC_REUSE else 1
        for sector, edge in ((7, 0), (3, 0), (-1, 0), (0, -1), (0, n_edges), (0, 4)):
            with pytest.raises(ValueError, match="not an allocation"):
                cochannel(plan, UeRegion.EDGE, sector, edge)

    def test_disjoint_from_local_macro_band(self):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        for s, e in band_oracle.allocations(plan):
            for region in UeRegion:
                assert cochannel(plan, region, s, e)[1] == 0
            for band in band_oracle.bands(plan, s, e):
                assert not band.intersects(plan.macro_sector_bands[s])


class TestCochannel:
    def test_macro_flag_per_scheme(self):
        # same and partial share spectrum with the macrocell, the others do not
        expected = {
            Scheme.SAME: 1,
            Scheme.PARTIAL: 1,
            Scheme.DEDICATED: 0,
            Scheme.DYNAMIC_REUSE: 0,
        }
        for scheme, y in expected.items():
            plan = _plan(scheme)
            for region in UeRegion:
                for s, e in band_oracle.allocations(plan):
                    assert cochannel(plan, region, s, e)[1] == y, scheme
                    assert band_oracle.y_flag(plan, region, s, e) == y, scheme

    def test_distinct_edge_colors_orthogonal(self):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        for s in range(3):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    if a != b:
                        assert _x(plan, UeRegion.EDGE, (s, a), (s, b)) == 0
                        assert band_oracle.x_flag(plan, UeRegion.EDGE, (s, a), (s, b)) == 0

    def test_same_edge_color_cochannel(self):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        for s in range(3):
            for a in (1, 2, 3):
                assert _x(plan, UeRegion.EDGE, (s, a), (s, a)) == 1
                assert band_oracle.x_flag(plan, UeRegion.EDGE, (s, a), (s, a)) == 1

    def test_center_region_same_sector_always_cochannel(self):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        for s in range(3):
            for e in range(4):
                assert cochannel(plan, UeRegion.CENTER, s, e)[0][s].tolist() == [1, 1, 1, 1]

    def test_flat_schemes_always_cochannel(self):
        for scheme in (Scheme.SAME, Scheme.DEDICATED, Scheme.PARTIAL):
            plan = _plan(scheme)
            for region in UeRegion:
                for s in range(3):
                    assert cochannel(plan, region, s, 0)[0].tolist() == [[1], [1], [1]]

    @given(sector=st.integers(0, 2), ca=st.integers(1, 3), cb=st.integers(1, 3))
    def test_same_sector_symmetry(self, sector, ca, cb):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        a, b = (sector, ca), (sector, cb)
        assert _x(plan, UeRegion.EDGE, a, b) == _x(plan, UeRegion.EDGE, b, a)

    def test_random_colors_two_thirds_orthogonal(self):
        # independent uniform colors leave 2/3 of same-sector pairs orthogonal
        plan = _plan(Scheme.DYNAMIC_REUSE)
        rows = {e: cochannel(plan, UeRegion.EDGE, 0, e)[0] for e in (1, 2, 3)}
        rng = np.random.default_rng(2024)
        n = 20_000
        a, b = rng.integers(1, 4, size=n), rng.integers(1, 4, size=n)
        zeros = sum(1 - int(rows[i][0, j]) for i, j in zip(a.tolist(), b.tolist()))
        p = 2 / 3
        assert abs(zeros / n - p) < 3 * np.sqrt(p * (1 - p) / n)


class TestCochannelMatchesOracle:
    @pytest.mark.parametrize("total", [
        TOTAL, Band(7, 60 * MHZ + 11), Band(0, 1000), Band(10**20, 10**20 + 60 * MHZ),
    ], ids=["60MHz", "ragged", "1kHz", "beyond-int64"])
    @pytest.mark.parametrize("n_sectors", [3, 4, 5, 6, 8])
    def test_every_flag_matches_the_oracle(self, total, n_sectors):
        for scheme in Scheme:
            for frac, split in ((1 / 3, 0.5), (0.1, 0.2), (0.9, 0.05)):
                plan = _plan(scheme, total, n_sectors, femto_fraction=frac, edge_split=split)
                allocs = band_oracle.allocations(plan)
                n_edges = len(allocs) // n_sectors
                for region in UeRegion:
                    for ref in allocs:
                        x, y = cochannel(plan, region, *ref)
                        assert x.shape == (n_sectors, n_edges) and x.dtype == np.int8
                        expected = [[band_oracle.x_flag(plan, region, ref, (t, f))
                                     for f in range(n_edges)] for t in range(n_sectors)]
                        assert x.tolist() == expected, (scheme, region, ref)
                        assert y == band_oracle.y_flag(plan, region, *ref), (scheme, region, ref)

    def test_every_value_occurs(self):
        plan = _plan(Scheme.DYNAMIC_REUSE)
        flags = {v for s, e in band_oracle.allocations(plan)
                 for v in cochannel(plan, UeRegion.EDGE, s, e)[0].ravel().tolist()}
        assert flags == {0, 1}
