"""Band algebra and per-scheme allocation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtosim.spectrum import (
    Band,
    EdgeChoice,
    FemtoAllocation,
    MacroSector,
    Scheme,
    UeRegion,
    bands_for_femto,
    build_plan,
    cochannel,
    cochannel_row,
    cochannel_table,
    split_band,
)

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


class TestBandsForFemto:
    def test_center_plus_edge(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        alloc = FemtoAllocation(plan.center_band_per_sector[0], EdgeChoice.X, 0)
        bands = bands_for_femto(plan, alloc)
        assert bands == frozenset(
            {Band(20 * MHZ, 40 * MHZ), plan.edge_bands_per_sector[0][0]}
        )

    def test_center_only(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        alloc = FemtoAllocation(plan.center_band_per_sector[0], EdgeChoice.NONE, 0)
        assert bands_for_femto(plan, alloc) == frozenset({Band(20 * MHZ, 40 * MHZ)})

    def test_dedicated_single_band(self):
        plan = build_plan(Scheme.DEDICATED, TOTAL, 3, femto_fraction=1 / 3)
        alloc = FemtoAllocation(plan.center_band_per_sector[2], EdgeChoice.NONE, 2)
        assert bands_for_femto(plan, alloc) == frozenset({Band(0, 20 * MHZ)})

    def test_sector_out_of_range(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        bad = FemtoAllocation(plan.center_band_per_sector[0], EdgeChoice.NONE, 7)
        with pytest.raises(ValueError):
            bands_for_femto(plan, bad)

    def test_disjoint_from_local_macro_band(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        for s in range(3):
            for choice in (EdgeChoice.NONE, EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z):
                alloc = FemtoAllocation(plan.center_band_per_sector[s], choice, s)
                for band in bands_for_femto(plan, alloc):
                    assert not band.intersects(plan.macro_sector_bands[s])


def _alloc(plan, sector, choice):
    return FemtoAllocation(plan.center_band_per_sector[sector], choice, sector)


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
            frac = 1 / 3 if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
            plan = build_plan(scheme, TOTAL, 3, femto_fraction=frac)
            for region in UeRegion:
                ref = _alloc(plan, 0, EdgeChoice.X if scheme is Scheme.DYNAMIC_REUSE else EdgeChoice.NONE)
                assert cochannel(plan, ref, region, MacroSector(0)) == y, scheme

    def test_distinct_edge_colors_orthogonal(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        a = _alloc(plan, 1, EdgeChoice.X)
        b = _alloc(plan, 1, EdgeChoice.Y)
        assert cochannel(plan, a, UeRegion.EDGE, b) == 0

    def test_same_edge_color_cochannel(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        a = _alloc(plan, 1, EdgeChoice.X)
        b = _alloc(plan, 1, EdgeChoice.X)
        assert cochannel(plan, a, UeRegion.EDGE, b) == 1

    def test_center_region_same_sector_always_cochannel(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        a = _alloc(plan, 2, EdgeChoice.X)
        b = _alloc(plan, 2, EdgeChoice.Z)
        assert cochannel(plan, a, UeRegion.CENTER, b) == 1

    def test_flat_schemes_always_cochannel(self):
        for scheme, frac in ((Scheme.SAME, None), (Scheme.DEDICATED, 1 / 3), (Scheme.PARTIAL, 1 / 3)):
            plan = build_plan(scheme, TOTAL, 3, femto_fraction=frac)
            a = _alloc(plan, 0, EdgeChoice.NONE)
            b = _alloc(plan, 1, EdgeChoice.NONE)
            assert cochannel(plan, a, UeRegion.EDGE, b) == 1

    @given(
        sector=st.integers(0, 2),
        ca=st.sampled_from([EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z]),
        cb=st.sampled_from([EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z]),
    )
    def test_same_sector_symmetry(self, sector, ca, cb):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        a = _alloc(plan, sector, ca)
        b = _alloc(plan, sector, cb)
        assert cochannel(plan, a, UeRegion.EDGE, b) == cochannel(plan, b, UeRegion.EDGE, a)

    def test_random_colors_two_thirds_orthogonal(self):
        # independent uniform colors leave 2/3 of same-sector pairs orthogonal
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        rng = np.random.default_rng(2024)
        colors = (EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z)
        n = 20_000
        zeros = 0
        for _ in range(n):
            a = _alloc(plan, 0, colors[rng.integers(3)])
            b = _alloc(plan, 0, colors[rng.integers(3)])
            zeros += 1 - cochannel(plan, a, UeRegion.EDGE, b)
        p = 2 / 3
        assert abs(zeros / n - p) < 3 * np.sqrt(p * (1 - p) / n)


def _plan_allocations(plan):
    """Every allocation a FAP can hold under ``plan``, [sector][edge index]:
    the center band alone, plus one per edge color where the plan has edge
    bands."""
    edges = list(EdgeChoice) if plan.scheme is Scheme.DYNAMIC_REUSE else [EdgeChoice.NONE]
    return [[_alloc(plan, s, e) for e in edges] for s in range(plan.n_sectors)]


class TestCochannelTable:
    @pytest.mark.parametrize("total", [TOTAL, Band(10**20, 10**20 + 60 * MHZ)],
                             ids=["60MHz", "beyond-int64"])
    def test_every_entry_is_cochannel_on_the_plans_allocations(self, total):
        for scheme in Scheme:
            frac = 1 / 3 if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
            plan = build_plan(scheme, total, 3, femto_fraction=frac)
            allocations = _plan_allocations(plan)
            assert [list(a) for a in plan.allocations()] == allocations
            n_edges = len(allocations[0])
            for region in UeRegion:
                table = cochannel_table(plan, region)
                assert table.shape == (3, n_edges, 3, n_edges) and table.dtype == np.int8
                for s, e in np.ndindex(3, n_edges):
                    ref = allocations[s][e]
                    row = cochannel_row(plan, ref, region)
                    assert row.tolist() == table[s, e].tolist()
                    for t, f in np.ndindex(3, n_edges):
                        expected = cochannel(plan, ref, region, allocations[t][f])
                        assert table[s, e, t, f] == expected, (scheme, region, ref, t, f)

    def test_every_value_occurs(self):
        plan = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)
        table = cochannel_table(plan, UeRegion.EDGE)
        assert set(np.unique(table).tolist()) == {0, 1}
