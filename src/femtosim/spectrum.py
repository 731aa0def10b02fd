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

A femtocell's allocation under a plan is a (sector, edge index) pair, and
every scheme reaches the femto-UE SIR only through binary co-channel flags:
X per neighbor femtocell and Y for the macro sector.  ``cochannel`` gives
both for one allocation, X as a row over every allocation of the plan.
Sector indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations

import numpy as np

__all__ = [
    "Band",
    "EdgeChoice",
    "FemtoAllocation",
    "FrequencyPlan",
    "Scheme",
    "UeRegion",
    "build_plan",
    "cochannel",
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
class FemtoAllocation:
    """A femtocell's allocation as ``Fap.allocation`` reads it: its sector's
    center band plus at most one edge band, named by its color."""

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

    @cached_property
    def n_edges(self) -> int:
        """Edge indices an allocation can take: 0 (no edge band) only, or
        also 1-3 (the ``EDGE_COLORS``) when every sector has edge bands;
        computed once per plan."""
        return 1 + len(EDGE_COLORS) if all(self.edge_bands_per_sector) else 1

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
        if any(a.intersects(b) for a, b in combinations(self.macro_sector_bands, 2)):
            raise ValueError("macro sector bands overlap")
        for s, local in enumerate(self.macro_sector_bands):
            femto_bands = (self.center_band_per_sector[s], *self.edge_bands_per_sector[s])
            for fb in femto_bands:
                if fb.intersects(local):
                    raise ValueError(f"sector {s}: femto band {fb} overlaps the local macro band")
            if any(a.intersects(b) for a, b in combinations(femto_bands, 2)):
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

    if scheme in (Scheme.DEDICATED, Scheme.PARTIAL, Scheme.SAME):
        femto = macro = total_band
        if scheme is not Scheme.SAME:
            if femto_fraction is None or not (0.0 < femto_fraction < 1.0):
                raise ValueError(f"{scheme.value} scheme needs femto_fraction in (0, 1)")
            cut = total_band.lower + round(femto_fraction * total_band.width)
            if cut <= total_band.lower or cut >= total_band.upper:
                raise ValueError("femto_fraction leaves an empty femto or macro band")
            femto = Band(total_band.lower, cut)
            if scheme is Scheme.DEDICATED:
                macro = Band(cut, total_band.upper)
        return FrequencyPlan(scheme, total_band, (macro,) * n_sectors, (femto,) * n_sectors,
                             ((),) * n_sectors)

    if scheme is Scheme.DYNAMIC_REUSE:
        if n_sectors < 3:
            raise ValueError(f"dynamic re-use needs n_sectors >= 3, got {n_sectors}")
        if not (0.0 < edge_split <= 0.5):
            raise ValueError("edge_split must be in (0, 0.5]")
        if total_band.width < n_sectors:
            raise ValueError(f"n_sectors={n_sectors} exceeds the band's {total_band.width} Hz")
        sector_bands = split_band(total_band, n_sectors)
        centers, edge_triples = [], []
        for s in range(n_sectors):
            center = sector_bands[(s + 1) % n_sectors]
            host = sector_bands[(s + 2) % n_sectors]
            # edge region = edge_split of the sector's femto spectrum, capped at
            # the host band and placed at its low end
            edge_total = min(round(edge_split * (center.width + host.width)), host.width)
            if edge_total < len(EDGE_COLORS):
                raise ValueError(f"edge_split {edge_split} leaves sector {s} {edge_total} Hz"
                                 " for its three edge bands")
            region = Band(host.lower, host.lower + edge_total)
            centers.append(center)
            edge_triples.append(split_band(region, 3))
        plan = FrequencyPlan(scheme, total_band, sector_bands, tuple(centers), tuple(edge_triples))
        plan.validate()
        return plan

    raise ValueError(f"unknown scheme {scheme!r}")


def cochannel(
    plan: FrequencyPlan, ue_region: UeRegion, sector: int, edge: int
) -> tuple[np.ndarray, int]:
    """Co-channel flags of allocation (``sector``, ``edge``), edge index 0
    being no edge band and 1-3 the ``EDGE_COLORS``.

    A UE in ``ue_region`` is served on the FAP's edge band if it is an edge
    UE and the FAP has one, else on the center band.  Returns ``(x, y)``:
    ``x`` is the (S, E) int8 X row, [t, f] being 1 iff the serving band
    intersects a band of allocation (t, f), with S ``plan.n_sectors`` and E
    ``plan.n_edges``; ``y`` is the Y flag, 1 iff the serving band intersects
    ``sector``'s macro band.  Raises ValueError for a pair outside the plan.
    """
    n_edges = plan.n_edges
    if not (0 <= sector < plan.n_sectors and 0 <= edge < n_edges):
        raise ValueError(f"({sector}, {edge}) is not an allocation of the {plan.scheme.value} plan")
    serving = plan.center_band_per_sector[sector]
    if ue_region is UeRegion.EDGE and edge:
        serving = plan.edge_bands_per_sector[sector][edge - 1]
    x = np.empty((plan.n_sectors, n_edges), dtype=np.int8)
    for t, center in enumerate(plan.center_band_per_sector):
        on_center = serving.intersects(center)
        x[t] = on_center
        for f in range(1, n_edges):
            x[t, f] = on_center or serving.intersects(plan.edge_bands_per_sector[t][f - 1])
    return x, int(serving.intersects(plan.macro_sector_bands[sector]))
