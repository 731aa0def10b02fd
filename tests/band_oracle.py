"""Independent co-channel oracle for the tests: the X and Y flags of a
frequency plan, computed from its ``Band`` tuples alone by comparing
interval endpoints as Python ints (so band edges beyond int64 are exact).

An allocation is a (sector, edge index) pair: the sector's center band, plus
edge band ``edge - 1`` of the sector when ``edge`` is 1-3.  Only dynamic
re-use has edge bands.  A UE in the edge region is served on its FAP's edge
band when the FAP has one; every other UE is served on the center band.
"""

from femtosim.spectrum import Scheme, UeRegion


def overlaps(a, b) -> bool:
    """Half-open intervals [lower, upper) share at least one Hz."""
    return max(a.lower, b.lower) < min(a.upper, b.upper)


def allocation_of(deployment, fid) -> tuple[int, int]:
    """FAP ``fid``'s (sector, edge index), read from the deployment's arrays."""
    return int(deployment.sectors()[fid]), int(deployment.edges()[fid])


def allocations(plan) -> list[tuple[int, int]]:
    """Every (sector, edge index) a FAP can hold under ``plan``."""
    n_edges = 4 if plan.scheme is Scheme.DYNAMIC_REUSE else 1
    return [(s, e) for s in range(len(plan.macro_sector_bands)) for e in range(n_edges)]


def bands(plan, sector, edge) -> tuple:
    """The bands allocation (``sector``, ``edge``) transmits on."""
    center = plan.center_band_per_sector[sector]
    return (center,) if edge == 0 else (center, plan.edge_bands_per_sector[sector][edge - 1])


def serving(plan, region, sector, edge):
    """The band that serves a UE in ``region`` of allocation (``sector``, ``edge``)."""
    own = bands(plan, sector, edge)
    return own[-1] if region is UeRegion.EDGE else own[0]


def x_flag(plan, region, ref, other) -> int:
    """1 iff neighbor allocation ``other`` transmits on the band serving the
    UE of allocation ``ref``."""
    band = serving(plan, region, *ref)
    return int(any(overlaps(band, b) for b in bands(plan, *other)))


def y_flag(plan, region, sector, edge) -> int:
    """1 iff the macro BS's band in ``sector`` meets the UE's serving band."""
    return int(overlaps(serving(plan, region, sector, edge), plan.macro_sector_bands[sector]))
