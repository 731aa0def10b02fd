"""Deployment geometry: macro BS, random FAP placement, sectors, neighbor graph.

FAP positions are drawn uniformly over the macro disc by rejection sampling
from the bounding square, which makes the neighbor-count distribution of
interior FAPs converge to Poisson(density * pi * neighbor_radius^2).  The
reference FAP used by outage experiments is always FAP 0, pinned at the
configured distance from the macro BS on the +x axis; all other positions are
random.  Distances are 2-D horizontal.  A FAP's id is its row index in
``Deployment.faps``.  A FAP's position is fixed once it is built, and FAPs
join a deployment only through ``Deployment.append``, so the deployment's
(N, 2) positions array never needs rebuilding.

The neighbor graph is found on a uniform cell grid whose side is a hair above
the neighbor radius, so a FAP's neighbors all lie in the 3x3 cells around its
own and the search costs O(N * mean degree) rather than O(N^2).  It is stored
as CSR arrays (int64 row pointers, int32 neighbor ids ascending in each row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectrum import FemtoAllocation, FrequencyPlan, base_allocation

__all__ = [
    "Deployment",
    "DeploymentParams",
    "Fap",
    "MacroBs",
    "NeighborGraph",
    "PlacementError",
    "Scenario",
    "apply_plan",
    "generate",
    "neighbor_graph",
    "sector_of",
]

TWO_PI = 2.0 * math.pi


class Scenario(Enum):
    A = "A"  # single femtocell, no overlaid macrocell
    B = "B"  # discrete femtocells, pairwise non-neighboring
    C = "C"  # a few interfering femtocells
    D = "D"  # dense femtocells


class PlacementError(RuntimeError):
    """Raised when a scenario's geometric constraints cannot be satisfied."""


@dataclass(frozen=True)
class MacroBs:
    position: np.ndarray  # (2,) meters
    tx_power: float  # W
    radius: float  # m
    n_sectors: int

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.radius <= 0 or self.tx_power <= 0:
            raise ValueError("macro radius and tx power must be positive")


def _fixed_point(value) -> np.ndarray:
    """A read-only (2,) float array owning its data.  One that already is one
    (another FAP's position) is shared rather than copied, since neither
    holder can write it."""
    if not (isinstance(value, np.ndarray) and value.base is None
            and not value.flags.writeable and value.dtype == np.float64):
        value = np.array(value, dtype=float)
        value.flags.writeable = False
    if value.shape != (2,):
        raise ValueError(f"a FAP position is an (x, y) pair, got shape {value.shape}")
    return value


@dataclass
class Fap:
    id: int  # row index in Deployment.faps
    position: np.ndarray  # (2,) meters
    tx_power: float  # W, mutable via SON
    radius: float  # m, mutable via SON
    sector_index: int
    allocation: FemtoAllocation | None = None

    def __setattr__(self, name, value):
        if name == "position":
            if "position" in self.__dict__:
                raise AttributeError("a FAP's position is fixed once built")
            value = _fixed_point(value)
        object.__setattr__(self, name, value)

    def __setstate__(self, state):
        # copy.deepcopy and pickle restore __dict__ directly, and their array
        # copies come back writeable
        state = dict(state)
        position = state.pop("position")
        self.__dict__.update(state)
        self.position = position


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Neighbor graph in CSR form: FAP i's neighbors are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, and every edge appears
    in both rows.  ``neighbor_radius`` is the radius it was built with."""

    indptr: np.ndarray  # (N + 1,) int64
    indices: np.ndarray  # (2 * n_edges,) int32
    neighbor_radius: float

    @classmethod
    def radius_only(cls, radius: float) -> "NeighborGraph":
        """An edgeless graph over no FAPs that only carries a sniffing radius
        (all that ``son.admit_fap`` reads)."""
        return cls(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32), radius)

    @property
    def n_faps(self) -> int:
        return len(self.indptr) - 1

    def neighbors(self, fap_id: int) -> np.ndarray:
        return self.indices[self.indptr[fap_id]:self.indptr[fap_id + 1]]

    def degree(self, fap_id: int) -> int:
        return int(self.indptr[fap_id + 1] - self.indptr[fap_id])

    def rows(self) -> np.ndarray:
        """Row (FAP id) of every entry of ``indices``."""
        return np.repeat(np.arange(self.n_faps), np.diff(self.indptr))

    def edges(self):
        """Undirected edges as (a, b) with a < b."""
        rows = self.rows()
        lower = rows < self.indices
        return zip(rows[lower].tolist(), self.indices[lower].tolist())

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def mean_degree(self) -> float:
        return len(self.indices) / self.n_faps if self.n_faps else 0.0


@dataclass(frozen=True)
class DeploymentParams:
    """Geometry and radio defaults for one deployment (Table-2 style values)."""

    n_faps: int = 1000
    macro_radius_m: float = 1000.0
    femto_radius_m: float = 10.0
    neighbor_radius_m: float = 100.0
    reference_distance_m: float = 200.0
    macro_tx_power_w: float = 1.5
    fap_tx_power_w: float = 0.01
    n_sectors: int = 3
    c_max_mean_degree: float = 2.0  # scenario C sparsity bound
    max_place_attempts: int = 1000  # per-FAP rejection budget (scenario B)
    max_layout_attempts: int = 200  # whole-layout budget (scenario C)

    def __post_init__(self):
        if self.n_faps < 1:
            raise ValueError(f"a deployment needs at least 1 FAP, got {self.n_faps}")
        # an infinite neighbor radius is allowed: every FAP is then a neighbor
        if not self.neighbor_radius_m > 0:
            raise ValueError("neighbor_radius_m must be positive")
        for name in ("macro_radius_m", "femto_radius_m", "reference_distance_m",
                     "macro_tx_power_w", "fap_tx_power_w"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.reference_distance_m > self.macro_radius_m:
            raise ValueError("reference_distance_m exceeds macro_radius_m")


@dataclass
class Deployment:
    """FAPs and their positions; row i of ``positions()`` is FAP i.  Add FAPs
    with ``append`` only: the positions array is grown, never rebuilt."""

    macro: MacroBs | None
    faps: list[Fap]
    params: DeploymentParams

    def __post_init__(self):
        if any(f.id != i for i, f in enumerate(self.faps)):
            raise ValueError("FAP ids must equal their rows in faps")
        self._pos = np.array([f.position for f in self.faps], dtype=float).reshape(-1, 2)
        self._faps = self.faps
        self._n = len(self.faps)

    def append(self, fap: Fap) -> None:
        """Add ``fap`` as the next row; its id must equal that row."""
        n = self._check_rows()
        if fap.id != n:
            raise ValueError(f"FAP id {fap.id} is not the next row {n}")
        if n == len(self._pos):  # full: double the buffer
            grown = np.empty((max(2 * n, 16), 2))
            grown[:n] = self._pos[:n]
            self._pos = grown
        self._pos[n] = fap.position
        self.faps.append(fap)
        self._n = n + 1

    def positions(self) -> np.ndarray:
        """(N, 2) read-only view of the FAP positions; row i is FAP i."""
        view = self._pos[: self._check_rows()]
        view.flags.writeable = False
        return view

    def _check_rows(self) -> int:
        if self.faps is not self._faps or len(self.faps) != self._n:
            raise RuntimeError("Deployment.faps changed outside Deployment.append")
        return self._n

    def fap_by_id(self, fap_id: int) -> Fap:
        if not 0 <= fap_id < len(self.faps):
            raise ValueError(f"no FAP with id {fap_id}")
        return self.faps[fap_id]


def sector_of(macro: MacroBs, position) -> int:
    """Angular sector index of a position: floor(angle / (2*pi/N))."""
    d = np.asarray(position, dtype=float) - macro.position
    if d[0] == 0.0 and d[1] == 0.0:
        raise ValueError("position coincides with the macro BS")
    angle = math.atan2(d[1], d[0]) % TWO_PI
    return min(int(angle // (TWO_PI / macro.n_sectors)), macro.n_sectors - 1)


def _sample_in_disc(rng: np.random.Generator, radius: float) -> np.ndarray:
    while True:
        p = rng.uniform(-radius, radius, 2)
        if p[0] * p[0] + p[1] * p[1] <= radius * radius:
            return p


def _make_macro(params: DeploymentParams) -> MacroBs:
    return MacroBs(
        position=np.zeros(2),
        tx_power=params.macro_tx_power_w,
        radius=params.macro_radius_m,
        n_sectors=params.n_sectors,
    )


def _make_fap(fap_id: int, position, macro: MacroBs | None, params: DeploymentParams) -> Fap:
    sector = sector_of(macro, position) if macro is not None else 0
    return Fap(
        id=fap_id,
        position=position,
        tx_power=params.fap_tx_power_w,
        radius=params.femto_radius_m,
        sector_index=sector,
    )


def _random_positions(rng, macro, params, check=None) -> list[Fap]:
    """Reference FAP pinned at reference_distance on the +x axis, rest uniform."""
    faps = [_make_fap(0, np.array([params.reference_distance_m, 0.0]), macro, params)]
    for i in range(1, params.n_faps):
        for _ in range(params.max_place_attempts):
            p = _sample_in_disc(rng, params.macro_radius_m)
            if check is None or check(p, faps):
                faps.append(_make_fap(i, p, macro, params))
                break
        else:
            raise PlacementError(
                f"could not place FAP {i} after {params.max_place_attempts} attempts"
            )
    return faps


def generate(scenario: Scenario, params: DeploymentParams, seed: int) -> Deployment:
    """Generate a deployment for one scenario; identical (scenario, params,
    seed) triples produce bit-identical deployments."""
    rng = np.random.default_rng(seed)

    if scenario is Scenario.A:
        if params.n_faps != 1:
            raise ValueError("scenario A has exactly one FAP")
        fap = _make_fap(0, np.zeros(2), None, params)
        return Deployment(None, [fap], params)

    macro = _make_macro(params)

    if scenario is Scenario.B:
        r = params.neighbor_radius_m

        def separated(p, placed):
            return all(np.linalg.norm(p - f.position) > r for f in placed)

        faps = _random_positions(rng, macro, params, check=separated)
        return Deployment(macro, faps, params)

    if scenario is Scenario.C:
        for _ in range(params.max_layout_attempts):
            faps = _random_positions(rng, macro, params)
            dep = Deployment(macro, faps, params)
            g = neighbor_graph(dep, params.neighbor_radius_m)
            if g.n_edges >= 1 and g.mean_degree < params.c_max_mean_degree:
                return dep
        raise PlacementError(
            f"no scenario-C layout found in {params.max_layout_attempts} attempts"
        )

    if scenario is Scenario.D:
        faps = _random_positions(rng, macro, params)
        return Deployment(macro, faps, params)

    raise ValueError(f"unknown scenario {scenario!r}")


# Grid cells per axis are capped so that a tiny radius cannot overflow the
# int64 cell keys; a coarser grid only adds candidate pairs.
_MAX_CELLS_PER_AXIS = 1 << 20
# Candidate pairs per source block: bounds one block's temporaries at a few
# tens of MB whatever N is.
_CANDIDATE_BLOCK = 1 << 18
_NEIGHBOR_CELLS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def neighbor_graph(deployment: Deployment, radius: float) -> NeighborGraph:
    """Symmetric, irreflexive graph of FAP pairs i != j with
    ``((p_i - p_j) ** 2).sum() <= radius * radius``: exact Euclidean
    distances, by the same float expression for every pair.

    Positions are binned into a uniform grid whose cell side exceeds the
    largest axis offset that can pass that test: the radius (at least 1e-150,
    below which a square can underflow to 0) plus a relative 1e-6, far above
    the float error of the test and of ``floor(x / side)``.  Two neighbors
    are therefore never two cells apart on either axis, and each FAP's
    candidate partners are the FAPs in the 3x3 cells around its own, read as
    ranges of the FAPs sorted by cell key.  The cell count per axis is
    capped, and a radius whose square is infinite gives one cell (the
    complete graph).  Candidates are tested in source blocks of bounded size,
    so work and memory are O(N * mean degree).  The result is CSR with int32
    indices, ascending within each row.
    """
    if not radius > 0:
        raise ValueError("neighbor radius must be positive")
    pos = deployment.positions()
    n = len(pos)
    if n == 0:
        return NeighborGraph.radius_only(radius)
    r2 = radius * radius
    lo = pos.min(axis=0)
    if math.isinf(r2):
        side = math.inf
    else:
        extent = float((pos.max(axis=0) - lo).max())
        side = max(max(radius, 1e-150) * (1.0 + 1e-6), extent / _MAX_CELLS_PER_AXIS)
    cell = np.floor((pos - lo) / side).astype(np.int64)
    # one empty row of padding per column: a neighborhood key that steps off
    # the top or bottom of a column lands in padding, never in another cell
    stride = int(cell[:, 1].max()) + 2
    keys = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(keys, kind="stable")
    occupied, first, count = np.unique(keys[order], return_index=True, return_counts=True)

    # each FAP's neighborhood as 9 ranges of `order`: start and length
    starts = np.zeros((n, len(_NEIGHBOR_CELLS)), dtype=np.int64)
    lengths = np.zeros((n, len(_NEIGHBOR_CELLS)), dtype=np.int64)
    for k, (dx, dy) in enumerate(_NEIGHBOR_CELLS):
        target = keys + dx * stride + dy
        slot = np.minimum(np.searchsorted(occupied, target), len(occupied) - 1)
        hit = occupied[slot] == target
        starts[hit, k] = first[slot[hit]]
        lengths[hit, k] = count[slot[hit]]
    per_fap = lengths.sum(axis=1)  # >= 1: a FAP's own cell holds it
    ends = np.cumsum(per_fap)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1], _CANDIDATE_BLOCK), side="right")
    bounds = sorted({*cuts.tolist(), n})

    # a candidate range is a slice of the cell-sorted coordinates
    x, y = pos[:, 0], pos[:, 1]
    sorted_x, sorted_y = x[order], y[order]
    degree = np.zeros(n, dtype=np.int64)
    chunks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lens, reps = lengths[a:b].ravel(), per_fap[a:b]
        # index in `order` of every candidate: its range's start plus a ramp
        at = np.repeat(starts[a:b].ravel() - (np.cumsum(lens) - lens), lens)
        at += np.arange(len(at))
        # ((p_i - p_j) ** 2).sum(), term for term
        d2 = ((np.repeat(x[a:b], reps) - sorted_x[at]) ** 2
              + (np.repeat(y[a:b], reps) - sorted_y[at]) ** 2)
        keep = d2 <= r2
        i = np.repeat(np.arange(a, b), reps)[keep]
        j = order[at[keep]]
        # a row's ranges come cell by cell: sort (row, id) pairs, drop i == j
        pair = np.sort((i * n + j)[i != j])
        chunks.append((pair % n).astype(np.int32))
        degree[a:b] = np.bincount(pair // n - a, minlength=b - a)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.concatenate(chunks)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return NeighborGraph(indptr=indptr, indices=indices, neighbor_radius=radius)


def apply_plan(deployment: Deployment, plan: FrequencyPlan) -> Deployment:
    """Give every FAP its sector's base allocation (center band, no edge)."""
    for f in deployment.faps:
        f.allocation = base_allocation(plan, f.sector_index)
    return deployment
