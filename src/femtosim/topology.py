"""Deployment geometry: macro BS, random FAP placement, sectors, neighbor graph.

FAP positions are drawn uniformly over the macro disc by rejection sampling
from the bounding square, which makes the neighbor-count distribution of
interior FAPs converge to Poisson(density * pi * neighbor_radius^2).  The
reference FAP used by outage experiments is always FAP 0, pinned at the
configured distance from the macro BS on the +x axis; all other positions are
random.  Distances are 2-D horizontal.

The macro BS sits at the origin, and a deployment's ``DeploymentParams`` is
the one source of its radius, tx power and sector count, checked there; the
``macro`` flag is off only in scenario A, which has no macrocell.  A FAP's
sector is its angle around the macro BS (``sector_of``), which ``extend``
derives from its position as it joins.

A deployment stores its FAPs as arrays, row i being FAP i: position, sector,
tx power, radius and an int8 edge index.  Under dynamic re-use a FAP sends on
its sector's center band plus at most one of three edge bands, so with the
deployment's one bound ``plan`` the edge index is its whole allocation: -1
none, 0 the center band alone, 1-3 the center band plus that edge color of
``EDGE_COLORS``.  ``Fap.allocation`` builds the ``FemtoAllocation`` from the
plan on read.  ``Deployment.faps`` is a sequence of ``Fap`` views that read
and write those rows.  FAPs join only at the end, through ``extend``, and a
position lies within 100 km of the macro BS on each axis and never changes,
so the deployment also keeps an incremental cell index over its positions;
``near`` answers a radius query from the 3x3 cells around a point, in
O(degree).  ``near`` and ``neighbor_graph`` share one neighbor test, ``dx * dx
+ dy * dy <= r * r`` in float64, so they agree on every pair, and one binning
rule: cells a hair wider than the radius, with column-major keys.  The
graph's candidates are three runs of the key-sorted FAPs, one per
column of the 3x3 cells, so it costs O(N * mean degree), not O(N^2); it is
stored as CSR (int64 row pointers, int32 neighbor ids ascending in each row).
Placement, admission and replay share one disc test, which NaN fails, and
scenario B redraws a FAP while ``near`` finds a neighbor, so the graph links
none of its pairs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectrum import EdgeChoice, FemtoAllocation, FrequencyPlan

__all__ = [
    "Deployment",
    "DeploymentParams",
    "Fap",
    "NeighborGraph",
    "PlacementError",
    "Scenario",
    "apply_plan",
    "generate",
    "neighbor_graph",
    "sector_of",
]

TWO_PI = 2.0 * math.pi
# an edge index is a position in this tuple: 0 no edge band, 1-3 EDGE_COLORS
_EDGES = tuple(EdgeChoice)
# the distance domain (see check_domain)
MIN_DISTANCE_M, MAX_DISTANCE_M = 1e-3, 1e5


def check_domain(name: str, value, low, high=math.inf) -> None:
    """Raise ValueError unless ``low <= value <= high``, which NaN fails.

    Each key has one physical domain, checked by the constructor that owns
    it: distances (the macro and femto radii, the reference FAP's distance,
    the UE offset) from 1 mm to 100 km, and the neighbor radius at least 1
    mm, or infinite; tx powers from 1 nW to 1 kW; the path-loss constants p0
    from 1e-20 to 1 (-200 to 0 dB); path-loss exponents from 1.5 to 6; the
    SIR threshold from -100 to 100 dB; FAP coordinates within 100 km of the
    macro BS on each axis.  ``ExperimentConfig.validate`` adds the rules
    across keys: the UE lies within the femto radius and at least 1 mm from
    the macro BS.  On that domain:

    - s_bar = P_F p0 d^-eta is at least about 1e-9 * 1e-20 * (1e5)^-6 = 1e-59,
      and the macro coefficient P_M p0 d^-eta at most about 1e3 * 1 *
      (1e-3)^-6 = 1e21, so the kernel's macro term c gamma / s_bar stays at
      or below about 1e21 * 1e10 / 1e-59 = 1e90, whatever the fading draws.
    - The UE offset is at least 1 mm, about 7e7 ulps of FAP 0's coordinate
      (ulp(1e5) = 1.5e-11), so the distances taken back from the UE's
      position are exact to 2e-8 relative; and the square of every finite
      distance key lies in [1e-6, 1e10].
    - Cells are at least 1 mm wide and coordinates at most 1e5 m, so cell
      coordinates stay within +-1e8 < 2**27: keys fit int64, and a quotient
      x / side is exact to 2**-26 of a cell, far below the cells' 1e-6 margin.
    """
    if not low <= value <= high:
        bound = f"at least {low:g}" if high == math.inf else f"within [{low:g}, {high:g}]"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_position(x: float, y: float) -> None:
    if not (abs(x) <= MAX_DISTANCE_M and abs(y) <= MAX_DISTANCE_M):  # NaN fails
        raise ValueError(f"position ({x}, {y}) is not finite or lies beyond 100 km on an axis")


class Scenario(Enum):
    A = "A"  # single femtocell, no overlaid macrocell
    B = "B"  # discrete femtocells, pairwise non-neighboring
    C = "C"  # a few interfering femtocells
    D = "D"  # dense femtocells


class PlacementError(RuntimeError):
    """Raised when a scenario's geometric constraints cannot be satisfied."""


class Fap:
    """One FAP: a view of row ``id`` of deployment ``dep``'s FAP arrays, as
    ``Deployment.faps`` hands it out.  Setting ``tx_power``, ``radius`` or
    ``allocation`` writes that row, so every later read sees it; ``position``
    and ``sector_index`` are fixed once the FAP has joined."""

    __slots__ = ("id", "_dep")

    def __init__(self, dep: "Deployment", row: int):
        self.id, self._dep = row, dep

    @property
    def position(self) -> np.ndarray:
        """(2,) meters, read-only."""
        p = self._dep._pos[self.id]
        p.flags.writeable = False
        return p

    @property
    def sector_index(self) -> int:
        return int(self._dep._sector[self.id])

    @property
    def tx_power(self) -> float:
        """W, mutable via SON."""
        return float(self._dep._tx_power[self.id])

    @tx_power.setter
    def tx_power(self, value: float) -> None:
        self._dep._tx_power[self.id] = value

    @property
    def radius(self) -> float:
        """m, mutable via SON."""
        return float(self._dep._radius[self.id])

    @radius.setter
    def radius(self, value: float) -> None:
        self._dep._radius[self.id] = value

    @property
    def allocation(self) -> FemtoAllocation | None:
        """The sector's center band under the deployment's plan with the
        FAP's edge color, or None."""
        dep, edge = self._dep, self._dep._edge[self.id]
        if edge < 0:
            return None
        s = self.sector_index
        return FemtoAllocation(dep.plan.center_band_per_sector[s], _EDGES[edge], s)

    @allocation.setter
    def allocation(self, value: FemtoAllocation | None) -> None:
        """None, or one of this FAP's sector's allocations under the plan."""
        dep, s = self._dep, self.sector_index
        if value is None:
            dep._edge[self.id] = -1
        elif dep.plan is None or value != FemtoAllocation(
                dep.plan.center_band_per_sector[s], value.edge_choice, s):
            raise ValueError(f"FAP {self.id} takes only a sector-{s} allocation of the"
                             " deployment's plan")
        else:
            dep.assign(dep.plan, _EDGES.index(value.edge_choice), [self.id])

    def __repr__(self) -> str:
        return (f"Fap(id={self.id}, position={self.position.tolist()}, "
                f"tx_power={self.tx_power!r}, radius={self.radius!r}, "
                f"sector_index={self.sector_index}, allocation={self.allocation!r})")


class _FapList(Sequence):
    """The FAPs of a deployment as ``Fap`` views, made on access."""

    __slots__ = ("_dep",)

    def __init__(self, dep: "Deployment"):
        self._dep = dep

    def __len__(self) -> int:
        return self._dep._n

    def __getitem__(self, index):
        n = self._dep._n
        if isinstance(index, slice):
            return [Fap(self._dep, i) for i in range(*index.indices(n))]
        index = int(index)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"FAP index {index} out of range")
        return Fap(self._dep, index)

    def __iter__(self):
        return (Fap(self._dep, i) for i in range(self._dep._n))


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Neighbor graph in CSR form: FAP i's neighbors are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, and every edge appears
    in both rows.  ``neighbor_radius`` is the radius it was built with."""

    indptr: np.ndarray  # (N + 1,) int64
    indices: np.ndarray  # (2 * n_edges,) int32
    neighbor_radius: float

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
        check_domain("neighbor_radius_m", self.neighbor_radius_m, MIN_DISTANCE_M)
        for name in ("macro_radius_m", "femto_radius_m", "reference_distance_m"):
            check_domain(name, getattr(self, name), MIN_DISTANCE_M, MAX_DISTANCE_M)
        for name in ("macro_tx_power_w", "fap_tx_power_w"):
            check_domain(name, getattr(self, name), 1e-9, 1e3)
        check_domain("n_sectors", self.n_sectors, 1)
        if self.reference_distance_m > self.macro_radius_m:
            raise ValueError("reference_distance_m exceeds macro_radius_m")


# Keys are column-major: the cells dy = -1, 0, 1 of a column have
# consecutive keys.  Within the domain a cell coordinate fits 2**27 (see
# check_domain), so keys fit int64.
_CELL_STRIDE = 1 << 32
_NEIGHBOR_OFFSETS = [dx * _CELL_STRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _cell_side(radius: float) -> float:
    """Side of a grid cell that holds every offset passing a ``d² <= radius *
    radius`` test: the radius plus a relative 1e-6, far above the float error
    of the test and of ``floor(x / side)``."""
    return radius * (1.0 + 1e-6)


def _cell_key(x: float, y: float, side: float) -> int:
    return math.floor(x / side) * _CELL_STRIDE + math.floor(y / side)


def _cell_keys(points: np.ndarray, side: float) -> np.ndarray:
    """``_cell_key`` of each (x, y) row of ``points``, as int64."""
    cell = np.floor(points / side).astype(np.int64)
    return cell[:, 0] * _CELL_STRIDE + cell[:, 1]


class Deployment:
    """FAPs of one deployment as arrays, row i being FAP i.  FAPs join only
    through ``extend``, and the arrays are grown by doubling, never rebuilt.
    With ``macro``, a macro BS sits at the origin with the radius, tx power
    and sector count of ``params``; without it (scenario A) there is no macro
    disc and every FAP is in sector 0.  A FAP's allocation is its edge index
    under ``plan``, which ``assign`` binds when it writes every FAP."""

    def __init__(self, params: DeploymentParams, macro: bool = True):
        self.params = params
        self.macro = macro
        self._n = 0
        self._pos = np.empty((0, 2))
        self._sector = np.empty(0, dtype=np.int64)
        self._tx_power = np.empty(0)
        self._radius = np.empty(0)
        self._edge = np.empty(0, dtype=np.int8)
        self.plan: FrequencyPlan | None = None
        self._cell_side = _cell_side(params.neighbor_radius_m)
        self._cells: dict[int, list[int]] = {}

    @property
    def faps(self) -> Sequence[Fap]:
        return _FapList(self)

    def extend(self, positions, edges=-1) -> None:
        """Append one FAP per (x, y) row of ``positions`` with edge indices
        ``edges`` (see ``edges``; -1, the default, is no allocation), at the
        deployment's default tx power and radius.  A FAP's sector is the one
        ``sector_of`` gives its position, or 0 without a macro BS.  Adds
        nothing and raises ValueError unless ``positions`` is one (x, y) pair
        or (m, 2) rows, each coordinate within 100 km of the macro BS and none
        at it; the caller fits the edges to ``plan``."""
        positions = np.asarray(positions, dtype=float)
        if positions.ndim not in (1, 2) or positions.shape[-1] != 2:
            raise ValueError(f"FAP positions are (x, y) rows, got shape {positions.shape}")
        positions = positions.reshape(-1, 2)
        side, keys, sectors = self._cell_side, [], []
        n_sectors = self.params.n_sectors
        for x, y in positions.tolist():
            _check_position(x, y)
            keys.append(_cell_key(x, y, side))
            sectors.append(_sector(x, y, n_sectors) if self.macro else 0)
        n, m = self._n, len(positions)
        if n + m > len(self._pos):
            capacity = max(2 * len(self._pos), n + m, 16)
            for name in ("_pos", "_sector", "_tx_power", "_radius", "_edge"):
                old = getattr(self, name)
                grown = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
                grown[:n] = old[:n]
                setattr(self, name, grown)
        rows = slice(n, n + m)
        self._pos[rows] = positions
        self._sector[rows] = sectors
        self._tx_power[rows] = self.params.fap_tx_power_w
        self._radius[rows] = self.params.femto_radius_m
        self._edge[rows] = edges
        self._n = n + m
        cells = self._cells
        for i, key in enumerate(keys, n):
            cell = cells.get(key)
            if cell is None:
                cells[key] = [i]
            else:
                cell.append(i)

    def positions(self) -> np.ndarray:
        """(N, 2) read-only view of the FAP positions; row i is FAP i."""
        return self._view(self._pos)

    def sectors(self) -> np.ndarray:
        """(N,) read-only view of the FAP sector indices."""
        return self._view(self._sector)

    def tx_powers(self) -> np.ndarray:
        """(N,) read-only view of the FAP tx powers (W)."""
        return self._view(self._tx_power)

    def edges(self) -> np.ndarray:
        """(N,) read-only view of the FAP edge indices: -1 no allocation, 0 no
        edge band, 1-3 the ``EDGE_COLORS``."""
        return self._view(self._edge)

    def _view(self, column: np.ndarray) -> np.ndarray:
        view = column[: self._n]
        view.flags.writeable = False
        return view

    def fap_by_id(self, fap_id: int) -> Fap:
        if not 0 <= fap_id < self._n:
            raise ValueError(f"no FAP with id {fap_id}")
        return Fap(self, fap_id)

    def near(self, point, radius: float) -> np.ndarray:
        """Ids, ascending, of the FAPs that pass ``neighbor_graph``'s test at
        ``radius`` from ``point``, among the FAPs in the 3x3 cells around
        ``point``, or all FAPs when the radius is wider than the cells.
        Raises ValueError at a coordinate that is NaN or beyond 100 km."""
        point = np.asarray(point, dtype=float)
        x, y = point.tolist()
        _check_position(x, y)
        if _cell_side(radius) <= self._cell_side:
            key = _cell_key(x, y, self._cell_side)
            found = []
            for offset in _NEIGHBOR_OFFSETS:
                found += self._cells.get(key + offset, ())
            ids = np.array(found, dtype=np.intp)
        else:
            ids = np.arange(self._n)
        d = self._pos.take(ids, axis=0) - point
        d *= d
        # neighbor_graph's ((p_i - p_j) ** 2).sum(), term for term
        ids = ids[d[:, 0] + d[:, 1] <= radius * radius]
        ids.sort()
        return ids

    def check_in_macro_disc(self, position) -> None:
        """Raise ValueError unless ``position`` lies in the macro disc by
        placement's test, which a NaN coordinate fails."""
        if not self.macro:
            raise ValueError("admission requires an overlaid macrocell")
        x, y = np.asarray(position, dtype=float).tolist()
        if not _in_disc(x, y, self.params.macro_radius_m):
            raise ValueError("new FAP position lies outside the macro disc")

    def check_plan(self, plan: FrequencyPlan) -> None:
        """Raise ValueError unless ``plan`` equals the deployment's plan."""
        if plan is not self.plan and plan != self.plan:
            raise ValueError(f"the {plan.scheme.value} plan is not the deployment's;"
                             " apply it to every FAP first")

    def assign(self, plan: FrequencyPlan, edges, ids=None) -> None:
        """Give FAPs ``ids`` their sector's allocation under ``plan`` with edge
        index ``edges`` (scalar or per FAP; 0 no edge band, 1-3 the
        ``EDGE_COLORS``).  Writing every FAP (``ids`` None) binds ``plan``;
        writing some needs it bound already."""
        if ids is not None:
            self.check_plan(plan)
        rows = slice(None) if ids is None else ids
        sectors = self._sector[:self._n][rows]
        if np.any(sectors >= plan.n_sectors):
            raise ValueError(f"sector index {sectors.max()} out of range for the plan")
        edges = np.asarray(edges)
        if np.any(edges < 0) or np.any(edges >= len(_EDGES)):
            raise ValueError(f"edge index outside 0-{len(_EDGES) - 1}")
        if np.any(edges > 0) and not plan.has_edge_bands:
            raise ValueError(f"{plan.scheme.value} plan has no edge bands")
        self._edge[:self._n][rows] = edges
        if ids is None:
            self.plan = plan


def _sector(x: float, y: float, n_sectors: int) -> int:
    """Sector of the point (x, y) around the macro BS at the origin."""
    if x == 0.0 and y == 0.0:
        raise ValueError("position coincides with the macro BS")
    return min(int(math.atan2(y, x) % TWO_PI // (TWO_PI / n_sectors)), n_sectors - 1)


def sector_of(n_sectors: int, position) -> int:
    """Angular sector index of an (x, y) position around the macro BS at the
    origin: floor(angle / (2*pi/N)), the angle counterclockwise from +x in
    [0, 2*pi).  Raises ValueError at the macro BS."""
    x, y = np.asarray(position, dtype=float).tolist()
    return _sector(x, y, n_sectors)


def _in_disc(dx, dy, radius):
    """The disc test of placement, admission and replay, on floats or arrays;
    a NaN offset fails it."""
    return dx * dx + dy * dy <= radius * radius


def _disc_points(rng: np.random.Generator, radius: float, m: int) -> np.ndarray:
    """``m`` points uniform over the disc by rejection from the bounding
    square.  Pairs are drawn in blocks of the number still needed, which never
    overshoots, so the draws and the accepted points, in order, are those of
    drawing one pair at a time until ``m`` are accepted."""
    blocks = [np.empty((0, 2))]
    while m:
        p = rng.uniform(-radius, radius, (m, 2))
        p = p[_in_disc(p[:, 0], p[:, 1], radius)]
        blocks.append(p)
        m -= len(p)
    return np.concatenate(blocks)


def _layout(rng, params: DeploymentParams, separation=None) -> Deployment:
    """Reference FAP pinned at reference_distance on the +x axis, rest uniform;
    with ``separation``, each FAP is redrawn (up to max_place_attempts times)
    while some FAP placed before it is its neighbor at that radius."""
    dep = Deployment(params)
    dep.extend((params.reference_distance_m, 0.0))
    if separation is None:
        dep.extend(_disc_points(rng, params.macro_radius_m, params.n_faps - 1))
        return dep
    for i in range(1, params.n_faps):
        for _ in range(params.max_place_attempts):
            p = _disc_points(rng, params.macro_radius_m, 1)
            if not len(dep.near(p[0], separation)):
                dep.extend(p)
                break
        else:
            raise PlacementError(
                f"could not place FAP {i} after {params.max_place_attempts} attempts"
            )
    return dep


def generate(scenario: Scenario, params: DeploymentParams, seed: int) -> Deployment:
    """Generate a deployment for one scenario; identical (scenario, params,
    seed) triples produce bit-identical deployments."""
    rng = np.random.default_rng(seed)

    if scenario is Scenario.A:
        if params.n_faps != 1:
            raise ValueError("scenario A has exactly one FAP")
        dep = Deployment(params, macro=False)
        dep.extend((0.0, 0.0))
        return dep

    if scenario is Scenario.B:
        return _layout(rng, params, separation=params.neighbor_radius_m)

    if scenario is Scenario.C:
        for _ in range(params.max_layout_attempts):
            dep = _layout(rng, params)
            g = neighbor_graph(dep, params.neighbor_radius_m)
            if g.n_edges >= 1 and g.mean_degree < params.c_max_mean_degree:
                return dep
        raise PlacementError(
            f"no scenario-C layout found in {params.max_layout_attempts} attempts"
        )

    if scenario is Scenario.D:
        return _layout(rng, params)

    raise ValueError(f"unknown scenario {scenario!r}")


# Candidate pairs per source block: bounds one block's temporaries at a few
# tens of MB whatever N is.
_CANDIDATE_BLOCK = 1 << 18


def neighbor_graph(deployment: Deployment, radius: float) -> NeighborGraph:
    """Symmetric, irreflexive graph of FAP pairs i != j with
    ``((p_i - p_j) ** 2).sum() <= radius * radius``: exact Euclidean
    distances, by the same float expression for every pair.

    FAPs are binned by the cell index's rule (``_cell_side``,
    ``_cell_keys``): a cell is wider than any axis offset that passes, so each
    FAP's candidates are the FAPs of the 3x3 cells around its own, three runs
    of the FAPs sorted by key, one per column.  The radius is at least 1 mm,
    or infinite, which gives one cell (the complete graph).  Candidates are
    tested in source blocks of bounded size.  A first pass counts each row's
    neighbors and keeps one bit per candidate, so that a second pass writes
    the pairs straight into the one CSR buffer: the peak is the result, the
    bits (about a tenth of it) and one block.  Work and memory are O(N *
    mean degree).  The result is CSR with int32 indices, ascending in rows.
    """
    check_domain("neighbor radius", radius, MIN_DISTANCE_M)
    pos = deployment.positions()
    n = len(pos)
    if n == 0:
        return NeighborGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32), radius)
    r2 = radius * radius
    keys = _cell_keys(pos, _cell_side(radius))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    # each FAP's neighborhood as 3 runs of `order`, one per column: the keys
    # from its column's dy = -1 cell to its dy = 1 cell
    column = keys[:, None] + np.array([-_CELL_STRIDE, 0, _CELL_STRIDE])
    starts = np.searchsorted(sorted_keys, column - 1, side="left")
    lengths = np.searchsorted(sorted_keys, column + 1, side="right") - starts
    per_fap = lengths.sum(axis=1)  # >= 1: a FAP's own cell holds it
    ends = np.cumsum(per_fap)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1], _CANDIDATE_BLOCK), side="right")
    bounds = sorted({*cuts.tolist(), n})
    blocks = list(zip(bounds[:-1], bounds[1:]))

    # a candidate run is a slice of the key-sorted coordinates
    x, y = pos[:, 0], pos[:, 1]
    sorted_x, sorted_y = x[order], y[order]

    def candidates(a, b):
        """Index in `order` of every candidate of rows a..b."""
        lens = lengths[a:b].ravel()
        # its run's start plus a ramp
        at = np.repeat(starts[a:b].ravel() - (np.cumsum(lens) - lens), lens)
        at += np.arange(len(at))
        return at

    # first pass: which candidates pass, kept as bits, and each row's count
    indptr = np.zeros(n + 1, dtype=np.int64)
    passed = []
    for a, b in blocks:
        at, reps = candidates(a, b), per_fap[a:b]
        # ((p_i - p_j) ** 2).sum(), term for term
        d2 = ((np.repeat(x[a:b], reps) - sorted_x.take(at)) ** 2
              + (np.repeat(y[a:b], reps) - sorted_y.take(at)) ** 2)
        keep = d2 <= r2
        passed.append(np.packbits(keep))
        # every FAP is its own candidate once, and passes
        indptr[a + 1:b + 1] = np.add.reduceat(keep, np.cumsum(reps) - reps, dtype=np.int64) - 1
    np.cumsum(indptr, out=indptr)
    # second pass: write each block's pairs into the one CSR buffer
    indices = np.empty(indptr[-1], dtype=np.int32)
    for (a, b), bits in zip(blocks, passed):
        at = candidates(a, b)
        keep = np.unpackbits(bits, count=len(at)).view(bool)
        i = np.repeat(np.arange(a, b), per_fap[a:b])[keep]
        j = order.take(at[keep])
        # a row's runs come column by column: sort (row, id) pairs, drop i == j
        pair = np.sort((i * n + j)[i != j])
        indices[indptr[a]:indptr[b]] = pair % n
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return NeighborGraph(indptr=indptr, indices=indices, neighbor_radius=radius)


def apply_plan(deployment: Deployment, plan: FrequencyPlan) -> Deployment:
    """Bind ``plan`` and give every FAP its sector's center band, no edge."""
    deployment.assign(plan, 0)
    return deployment
