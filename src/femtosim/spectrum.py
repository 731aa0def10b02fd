"""Frequency-band algebra and per-scheme spectrum allocation.

Bands are half-open integer intervals [lower, upper) in Hz, so splits and
partitions can be checked bit-exactly.  Four allocation schemes are
implemented:

* ``DEDICATED``      femtocells get a private low slice, the macrocell the rest
* ``SAME``           femtocells and macrocell share the full cellular band
* ``PARTIAL``        macrocell keeps the full band, femtocells reuse its low slice
* ``DYNAMIC_REUSE``  the band splits into N equal macro sector bands; femtocells
  of a sector transmit on the next sector's band (shared center band) plus at
  most one of three edge bands carved from the band after that, so neighboring
  femtocells can be pushed onto non-overlapping edge bands

Sector indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Band",
    "EdgeChoice",
    "FemtoAllocation",
    "FrequencyPlan",
    "MacroSector",
    "Scheme",
    "UeRegion",
    "active_band",
    "bands_for_femto",
    "build_plan",
    "cochannel",
    "cochannel_row",
    "cochannel_table",
    "split_band",
]


class Scheme(Enum):
    DEDICATED = "dedicated"
    SAME = "same"
    PARTIAL = "partial"
    DYNAMIC_REUSE = "dynamic"


class EdgeChoice(Enum):
    NONE = "none"
    X = "x"
    Y = "y"
    Z = "z"


#: Edge colors in deterministic tie-break order.
EDGE_COLORS = (EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z)


class UeRegion(Enum):
    CENTER = "center"
    EDGE = "edge"


@dataclass(frozen=True)
class Band:
    """Half-open frequency interval [lower, upper) in integer Hz."""

    lower: int
    upper: int

    def __post_init__(self):
        for edge in (self.lower, self.upper):
            if edge != int(edge):
                raise ValueError(f"band edge {edge!r} is not an integer Hz value")
        object.__setattr__(self, "lower", int(self.lower))
        object.__setattr__(self, "upper", int(self.upper))
        if self.upper <= self.lower:
            raise ValueError(f"empty band [{self.lower}, {self.upper})")

    @property
    def width(self) -> int:
        return self.upper - self.lower

    def intersects(self, other: "Band") -> bool:
        return self.lower < other.upper and other.lower < self.upper

    def __str__(self) -> str:
        return f"[{self.lower},{self.upper})"


@dataclass(frozen=True)
class MacroSector:
    """Interference source tag for one macrocell sector."""

    sector_index: int


@dataclass(frozen=True)
class FemtoAllocation:
    """Bands a single femtocell transmits on: a center band plus at most one
    edge band (the edge band is resolved against the plan by its color)."""

    center: Band
    edge_choice: EdgeChoice
    sector_index: int


def split_band(band: Band, parts: int) -> tuple[Band, ...]:
    """Split a band into ``parts`` contiguous slices whose widths differ by at
    most 1 Hz and whose union is exactly the input band."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if band.width < parts:
        raise ValueError(f"cannot split a {band.width} Hz band into {parts} non-empty parts")
    w = band.width
    edges = [band.lower + (i * w) // parts for i in range(parts + 1)]
    return tuple(Band(a, b) for a, b in zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class FrequencyPlan:
    """Per-scheme partition of the total cellular band.

    ``macro_sector_bands[s]`` is what the macro BS transmits in sector s (the
    same band repeated for the non-sectorized schemes).  ``center_band_per_sector``
    and ``edge_bands_per_sector`` describe the femto side; the edge tuple is
    empty for schemes without edge structure.
    """

    scheme: Scheme
    total: Band
    macro_sector_bands: tuple[Band, ...]
    center_band_per_sector: tuple[Band, ...]
    edge_bands_per_sector: tuple[tuple[Band, ...], ...]

    @property
    def n_sectors(self) -> int:
        return len(self.macro_sector_bands)

    @property
    def has_edge_bands(self) -> bool:
        return all(self.edge_bands_per_sector)

    def allocations(self) -> tuple[tuple[FemtoAllocation, ...], ...]:
        """The plan's own allocations: [s][e] is sector s's center band with
        edge index e, 0 for no edge band and 1-3 for the ``EDGE_COLORS``; a
        plan without edge bands has e = 0 only."""
        edges = tuple(EdgeChoice) if self.has_edge_bands else (EdgeChoice.NONE,)
        return tuple(tuple(FemtoAllocation(center, e, s) for e in edges)
                     for s, center in enumerate(self.center_band_per_sector))

    def edge_band(self, sector_index: int, choice: EdgeChoice) -> Band | None:
        if choice is EdgeChoice.NONE:
            return None
        edges = self.edge_bands_per_sector[sector_index]
        if not edges:
            raise ValueError(f"{self.scheme.value} plan has no edge bands")
        return edges[EDGE_COLORS.index(choice)]

    def validate(self) -> None:
        """Check the structural invariants of the plan; raises ValueError."""
        n = self.n_sectors
        if not (len(self.center_band_per_sector) == len(self.edge_bands_per_sector) == n):
            raise ValueError("per-sector band lists have inconsistent lengths")
        if self.scheme is not Scheme.DYNAMIC_REUSE:
            return
        widths = [b.width for b in self.macro_sector_bands]
        if max(widths) - min(widths) > 1:
            raise ValueError("macro sector bands are not equal-width within 1 Hz")
        if sum(widths) != self.total.width:
            raise ValueError("macro sector bands do not partition the total band")
        for a in range(n):
            for b in range(a + 1, n):
                if self.macro_sector_bands[a].intersects(self.macro_sector_bands[b]):
                    raise ValueError("macro sector bands overlap")
        for s in range(n):
            local = self.macro_sector_bands[s]
            femto_bands = (self.center_band_per_sector[s], *self.edge_bands_per_sector[s])
            for fb in femto_bands:
                if fb.intersects(local):
                    raise ValueError(f"sector {s}: femto band {fb} overlaps the local macro band")
            for a in range(len(femto_bands)):
                for b in range(a + 1, len(femto_bands)):
                    if femto_bands[a].intersects(femto_bands[b]):
                        raise ValueError(f"sector {s}: femto bands overlap each other")


def build_plan(
    scheme: Scheme,
    total_band: Band,
    n_sectors: int = 3,
    femto_fraction: float | None = None,
    edge_split: float = 0.5,
) -> FrequencyPlan:
    """Build the frequency plan for one allocation scheme.

    ``femto_fraction`` (required for DEDICATED and PARTIAL) is the share of the
    total band given to femtocells.  ``edge_split`` (DYNAMIC_REUSE only) is the
    fraction of a sector's femto spectrum reserved for the three edge bands;
    0.5 devotes one full non-local sector band to them, which is the default
    layout, and values above 0.5 are rejected because the center band always
    occupies one full non-local band.
    """
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")

    if scheme in (Scheme.DEDICATED, Scheme.PARTIAL):
        if femto_fraction is None or not (0.0 < femto_fraction < 1.0):
            raise ValueError(f"{scheme.value} scheme needs femto_fraction in (0, 1)")
        cut = total_band.lower + round(femto_fraction * total_band.width)
        if cut <= total_band.lower or cut >= total_band.upper:
            raise ValueError("femto_fraction leaves an empty femto or macro band")
        femto = Band(total_band.lower, cut)
        macro = Band(cut, total_band.upper) if scheme is Scheme.DEDICATED else total_band
        return FrequencyPlan(
            scheme=scheme,
            total=total_band,
            macro_sector_bands=(macro,) * n_sectors,
            center_band_per_sector=(femto,) * n_sectors,
            edge_bands_per_sector=((),) * n_sectors,
        )

    if scheme is Scheme.SAME:
        return FrequencyPlan(
            scheme=scheme,
            total=total_band,
            macro_sector_bands=(total_band,) * n_sectors,
            center_band_per_sector=(total_band,) * n_sectors,
            edge_bands_per_sector=((),) * n_sectors,
        )

    if scheme is Scheme.DYNAMIC_REUSE:
        if n_sectors < 3:
            raise ValueError("dynamic re-use needs at least 3 sectors")
        if not (0.0 < edge_split <= 0.5):
            raise ValueError("edge_split must be in (0, 0.5]")
        sector_bands = split_band(total_band, n_sectors)
        centers = []
        edge_triples = []
        for s in range(n_sectors):
            center = sector_bands[(s + 1) % n_sectors]
            host = sector_bands[(s + 2) % n_sectors]
            # edge region = edge_split of the sector's femto spectrum, capped at
            # the host band and placed at its low end
            edge_total = min(round(edge_split * (center.width + host.width)), host.width)
            region = Band(host.lower, host.lower + edge_total)
            centers.append(center)
            edge_triples.append(split_band(region, 3))
        plan = FrequencyPlan(
            scheme=scheme,
            total=total_band,
            macro_sector_bands=sector_bands,
            center_band_per_sector=tuple(centers),
            edge_bands_per_sector=tuple(edge_triples),
        )
        plan.validate()
        return plan

    raise ValueError(f"unknown scheme {scheme!r}")


def bands_for_femto(plan: FrequencyPlan, alloc: FemtoAllocation) -> frozenset[Band]:
    """All bands the femtocell transmits on under this plan."""
    if not 0 <= alloc.sector_index < plan.n_sectors:
        raise ValueError(f"sector index {alloc.sector_index} out of range")
    if alloc.edge_choice is EdgeChoice.NONE:
        return frozenset((alloc.center,))
    edge = plan.edge_band(alloc.sector_index, alloc.edge_choice)
    return frozenset((alloc.center, edge))


def active_band(plan: FrequencyPlan, alloc: FemtoAllocation, ue_region: UeRegion) -> Band:
    """Band serving a UE in the given region of the femtocell.

    Edge-region UEs are served on the edge band when one is assigned; a
    femtocell with no edge band serves its whole cell on the center band.
    """
    if ue_region is UeRegion.EDGE and alloc.edge_choice is not EdgeChoice.NONE:
        return plan.edge_band(alloc.sector_index, alloc.edge_choice)
    return alloc.center


def cochannel(
    plan: FrequencyPlan,
    alloc_ref: FemtoAllocation,
    ue_region: UeRegion,
    other: FemtoAllocation | MacroSector,
) -> int:
    """Binary co-channel indicator for one interference source.

    Returns 1 iff the band serving the reference UE intersects any band the
    ``other`` source transmits on: the macro sector's band when ``other`` is a
    :class:`MacroSector` (the Y flag), or any band of the other femtocell's
    allocation (the per-neighbor X flag).
    """
    serving = active_band(plan, alloc_ref, ue_region)
    if isinstance(other, MacroSector):
        if not 0 <= other.sector_index < plan.n_sectors:
            raise ValueError(f"sector index {other.sector_index} out of range")
        return int(serving.intersects(plan.macro_sector_bands[other.sector_index]))
    return int(any(serving.intersects(b) for b in bands_for_femto(plan, other)))


def cochannel_row(
    plan: FrequencyPlan, alloc_ref: FemtoAllocation, ue_region: UeRegion
) -> np.ndarray:
    """(S, E) int8 femto co-channel indicator of ``alloc_ref`` against each of
    the plan's allocations (``FrequencyPlan.allocations``): entry [s, e] is
    ``cochannel(plan, alloc_ref, ue_region, plan.allocations()[s][e])``."""
    return np.array([[cochannel(plan, alloc_ref, ue_region, other) for other in sector]
                     for sector in plan.allocations()], dtype=np.int8)


def cochannel_table(plan: FrequencyPlan, ue_region: UeRegion) -> np.ndarray:
    """(S, E, S, E) int8 femto co-channel indicator over the plan's own
    allocations: entry [s, e] is ``cochannel_row`` of allocation [s][e]."""
    return np.array([[cochannel_row(plan, ref, ue_region) for ref in sector]
                     for sector in plan.allocations()], dtype=np.int8)
