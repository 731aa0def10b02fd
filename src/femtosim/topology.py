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
sector is its angle around the macro BS (``sector_of``): ``sectors`` bins the
rows appended since it was last read in one array pass, row for row equal to
the scalar rule, so a FAP joins with one check and two writes.

A deployment stores its FAPs as arrays, row i being FAP i: position, sector,
tx power, radius and an int8 edge index.  Under dynamic re-use a FAP sends on
its sector's center band plus at most one of three edge bands, so with the
deployment's one bound ``plan`` the edge index is its whole allocation: -1
none, 0 the center band alone, 1-3 the center band plus that edge color of
``EDGE_COLORS``.  ``Fap.allocation`` builds the ``FemtoAllocation`` from the
plan on read.  ``Deployment.faps`` is a sequence of ``Fap`` views that read
and write those rows.  FAPs join only at the end, through ``extend``, and a
position lies within 100 km of the macro BS on each axis and never changes.
``near`` (a scan of every FAP), ``neighbor_graph`` (CSR: int64 row
pointers, int32 ids in each row) and ``earlier_neighbors`` (each FAP's
neighbors among the FAPs before it) share one neighbor test, ``dx * dx + dy
* dy <= r * r`` in float64.  The last two read one blocked stream of the
pairs that pass it (``_Pairs``), tested among the FAPs of the 3x3 cells
around a FAP's, cells a hair wider than r, in O(N * mean degree), and list
them in its order, so a sniff row is its graph row's ids below its own.
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
    "earlier_neighbors",
    "generate",
    "neighbor_graph",
    "sector_of",
]

TWO_PI = 2.0 * math.pi
# an edge index is a position in this tuple: 0 no edge band, 1-3 EDGE_COLORS
_EDGES = tuple(EdgeChoice)
# the distance and tx power domains (see check_domain)
MIN_DISTANCE_M, MAX_DISTANCE_M = 1e-3, 1e5
MIN_POWER_W, MAX_POWER_W = 1e-9, 1e3
MAX_PLACE_ATTEMPTS = 1000  # per-FAP rejection budget (scenario B)


def check_domain(name: str, value, low, high=math.inf) -> None:
    """Raise ValueError unless ``low <= value <= high``, which NaN fails.

    Each key has one physical domain, checked by the constructor that owns
    it: distances (the macro and femto radii, the reference FAP's distance,
    the UE offset) from 1 mm to 100 km, and the neighbor radius at least 1
    mm, or infinite; tx powers from 1 nW to 1 kW; the path-loss constants p0
    from 1e-20 to 1 (-200 to 0 dB); path-loss exponents from 1.5 to 6; the
    SIR threshold from -100 to 100 dB; the wall count from 0 to 100; FAP
    coordinates within 100 km of the macro BS on each axis.
    ``ExperimentConfig.validate`` adds the rules across keys: the UE lies
    within the femto radius and at least 1 mm from the macro BS.  On that
    domain:

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


def _check_position(x: float, y: float, macro: bool = False) -> None:
    if not (abs(x) <= MAX_DISTANCE_M and abs(y) <= MAX_DISTANCE_M):  # NaN fails
        raise ValueError(f"position ({x}, {y}) is not finite or lies beyond 100 km on an axis")
    if macro and x == 0.0 and y == 0.0:
        raise ValueError("position coincides with the macro BS")


class Scenario(Enum):
    # the paper's letters; nothing builds its scenario C, a few interfering femtocells
    A = "A"  # single femtocell, no overlaid macrocell (criterion 3)
    B = "B"  # discrete femtocells, pairwise non-neighboring (criterion 3)
    D = "D"  # dense femtocells (every experiment)


class PlacementError(RuntimeError):
    """Raised when scenario B cannot place a FAP apart from every earlier one."""


class Fap:
    """One FAP: a view of row ``id`` of deployment ``dep``'s FAP arrays, as
    ``Deployment.faps`` hands it out.  Setting ``tx_power``, ``radius`` or
    ``allocation`` writes that row, so every later read sees it, and raises
    ValueError for a value outside its domain (see ``check_domain``);
    ``position`` and ``sector_index`` are fixed once the FAP has joined."""

    __slots__ = ("id", "_dep")

    def __init__(self, dep: "Deployment", row: int):
        self.id, self._dep = row, dep

    @property
    def position(self) -> np.ndarray:
        """(2,) meters, read-only."""
        return self._dep._view("_pos")[self.id]

    @property
    def sector_index(self) -> int:
        """Row ``id`` of ``Deployment.sectors``, binned when first read."""
        return int(self._dep.sectors()[self.id])

    @property
    def tx_power(self) -> float:
        """W, mutable via SON."""
        return float(self._dep._tx_power[self.id])

    @tx_power.setter
    def tx_power(self, value: float) -> None:
        check_domain(f"FAP {self.id} tx_power", value, MIN_POWER_W, MAX_POWER_W)
        self._dep._tx_power[self.id] = value

    @property
    def radius(self) -> float:
        """m, mutable via SON."""
        return float(self._dep._radius[self.id])

    @radius.setter
    def radius(self, value: float) -> None:
        check_domain(f"FAP {self.id} radius", value, MIN_DISTANCE_M, MAX_DISTANCE_M)
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
    def allocation(self, value: FemtoAllocation) -> None:
        """One of this FAP's sector's allocations under the plan, written
        through ``Deployment.assign``."""
        dep, s = self._dep, self.sector_index
        if dep.plan is None or not isinstance(value, FemtoAllocation) or value != FemtoAllocation(
                dep.plan.center_band_per_sector[s], value.edge_choice, s):
            raise ValueError(f"FAP {self.id} takes only a sector-{s} allocation of the"
                             " deployment's plan")
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
        rows = range(self._dep._n)[index]  # a slice gives a range; IndexError past the end
        if isinstance(rows, range):
            return [Fap(self._dep, i) for i in rows]
        return Fap(self._dep, rows)

    def __iter__(self):
        return (Fap(self._dep, i) for i in range(self._dep._n))


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Neighbor graph in CSR form: FAP i's neighbors are
    ``indices[indptr[i]:indptr[i + 1]]``, in stream order, and every edge
    appears in both rows.  ``neighbor_radius`` is its radius."""

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


@dataclass(frozen=True)
class DeploymentParams:
    """Geometry and radio defaults for one deployment (Table-2 style values),
    each field named as its key."""

    n_faps: int = 1000
    macro_radius_m: float = 1000.0
    femto_radius_m: float = 10.0
    neighbor_radius_m: float = 100.0
    reference_distance_m: float = 200.0
    macro_tx_power_w: float = 1.5
    fap_tx_power_w: float = 0.01
    n_sectors: int = 3

    def __post_init__(self):
        check_domain("n_faps", self.n_faps, 1)
        # an infinite neighbor radius is allowed: every FAP is then a neighbor
        check_domain("neighbor_radius_m", self.neighbor_radius_m, MIN_DISTANCE_M)
        for name in ("macro_radius_m", "femto_radius_m", "reference_distance_m"):
            check_domain(name, getattr(self, name), MIN_DISTANCE_M, MAX_DISTANCE_M)
        for name in ("macro_tx_power_w", "fap_tx_power_w"):
            check_domain(name, getattr(self, name), MIN_POWER_W, MAX_POWER_W)
        check_domain("n_sectors", self.n_sectors, 1)
        if self.reference_distance_m > self.macro_radius_m:
            raise ValueError("reference_distance_m exceeds macro_radius_m")


# Keys are column-major: the cells dy = -1, 0, 1 of a column have
# consecutive keys.  Within the domain a cell coordinate fits 2**27 (see
# check_domain), so keys fit int64.
_CELL_STRIDE = 1 << 32


def _cell_side(radius: float) -> float:
    """Side of a grid cell that holds every offset passing a ``d² <= radius *
    radius`` test: the radius plus a relative 1e-6, far above the float error
    of the test and of ``floor(x / side)``."""
    return radius * (1.0 + 1e-6)


def _cell_keys(points: np.ndarray, side: float) -> np.ndarray:
    """Keys ``floor(x / side) * _CELL_STRIDE + floor(y / side)``, as int64."""
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
        self._binned = 0  # rows whose sector ``sectors`` has binned
        self._tx_power = np.empty(0)
        self._radius = np.empty(0)
        self._edge = np.empty(0, dtype=np.int8)
        self.plan: FrequencyPlan | None = None
        self._read_only: dict[str, np.ndarray] = {}  # views of the columns, made on read
        self._near = None, None  # the last query of near and its ids

    def __getstate__(self):  # a copy makes its own views
        return {**self.__dict__, "_read_only": {}}

    @property
    def faps(self) -> Sequence[Fap]:
        return _FapList(self)

    def extend(self, positions, edges=-1) -> None:
        """Append one FAP per (x, y) row of ``positions`` with edge indices
        ``edges`` (see ``edges``; -1, the default, is no allocation), at the
        deployment's default tx power and radius, unbinned (see ``sectors``).
        Adds nothing and raises ValueError unless ``positions`` is one (x, y)
        pair, with one scalar edge index, both written as scalars, or (m, 2)
        rows, each coordinate within 100 km of the macro BS and none at it;
        the caller fits the edges to ``plan``."""
        positions = np.asarray(positions, dtype=float)
        n = self._n
        if positions.shape == (2,):
            x, y = positions.tolist()
            _check_position(x, y, self.macro)
            if n == len(self._pos):
                self._grow(n + 1)
            self._pos[n], self._edge[n], self._n = positions, edges, n + 1
            return
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"FAP positions are (x, y) rows, got shape {positions.shape}")
        # all rows at once; the first that fails raises its message
        bad = ~(np.abs(positions) <= MAX_DISTANCE_M).all(axis=1)
        bad |= self.macro & ~positions.any(axis=1)  # a row at the macro BS
        if bad.any():
            _check_position(*positions[bad.argmax()].tolist(), self.macro)
        m = len(positions)
        if n + m > len(self._pos):
            self._grow(n + m)
        self._pos[n:n + m], self._edge[n:n + m], self._n = positions, edges, n + m

    def _grow(self, rows: int) -> None:
        """Double the columns, to ``rows`` at least; free rows take the defaults."""
        n, capacity = self._n, max(2 * len(self._pos), rows, 16)
        for name in ("_pos", "_sector", "_tx_power", "_radius", "_edge"):
            old = getattr(self, name)
            grown = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)
        self._tx_power[n:] = self.params.fap_tx_power_w
        self._radius[n:] = self.params.femto_radius_m
        self._read_only = {}

    def positions(self) -> np.ndarray:
        """(N, 2) read-only view of the FAP positions; row i is FAP i."""
        return self._view("_pos")

    def sectors(self) -> np.ndarray:
        """(N,) read-only view of the FAP sector indices (``sector_of``, or 0
        without a macro BS); rows appended since the last call are binned here."""
        if self._binned < self._n:
            rows = slice(self._binned, self._n)
            self._sector[rows] = (_bin_sectors(self._pos[rows], self.params.n_sectors)
                                  if self.macro else 0)
            self._binned = self._n
        return self._view("_sector")

    def tx_powers(self) -> np.ndarray:
        """(N,) read-only view of the FAP tx powers (W)."""
        return self._view("_tx_power")

    def edges(self) -> np.ndarray:
        """(N,) read-only view of the FAP edge indices: -1 no allocation, 0 no
        edge band, 1-3 the ``EDGE_COLORS``."""
        return self._view("_edge")

    def _view(self, name: str) -> np.ndarray:
        view = self._read_only.get(name)
        if view is None:
            view = self._read_only[name] = getattr(self, name).view()
            view.flags.writeable = False
        return view[:self._n]

    def fap_by_id(self, fap_id: int) -> Fap:
        if not 0 <= fap_id < self._n:
            raise ValueError(f"no FAP with id {fap_id}")
        return Fap(self, fap_id)

    def near(self, point, radius: float) -> np.ndarray:
        """Ids, ascending and in a fresh array, of the FAPs that pass
        ``neighbor_graph``'s test at ``radius`` from ``point``, by a scan of
        every FAP.  Positions never change, so the last query's ids serve it
        again until a FAP joins.  Raises ValueError at a coordinate NaN or
        beyond 100 km, or at a radius below 1 mm or NaN; it may be infinite."""
        point = np.asarray(point, dtype=float)
        x, y = point.tolist()
        _check_position(x, y)
        check_domain("neighbor radius", radius, MIN_DISTANCE_M)
        if self._near[0] != (self._n, x, y, radius):
            d = self.positions() - point
            d *= d
            # neighbor_graph's ((p_i - p_j) ** 2).sum(), term for term
            ids = np.arange(self._n)[d[:, 0] + d[:, 1] <= radius * radius]
            self._near = (self._n, x, y, radius), ids
        return self._near[1].copy()

    def check_in_macro_disc(self, position) -> None:
        """Raise ValueError unless ``position``, an (x, y) pair of floats,
        lies in the macro disc by placement's test, which NaN fails."""
        if not self.macro:
            raise ValueError("admission requires an overlaid macrocell")
        x, y = position
        if not _in_disc(x, y, self.params.macro_radius_m):
            raise ValueError("new FAP position lies outside the macro disc")

    def bound_plan(self) -> FrequencyPlan:
        """The plan ``assign`` bound, which readers use; ValueError if none is."""
        if self.plan is None:
            raise ValueError("the deployment has no plan; apply one to every FAP first")
        return self.plan

    def check_plan(self, plan: FrequencyPlan) -> None:
        """Raise ValueError unless ``plan`` equals the deployment's plan."""
        if plan is not self.plan and plan != self.plan:
            raise ValueError(f"the {plan.scheme.value} plan is not the deployment's;"
                             " apply it to every FAP first")

    def assign(self, plan: FrequencyPlan, edges, ids=None) -> None:
        """Give FAPs ``ids`` their sector's allocation under ``plan`` with edge
        index ``edges`` (scalar or per FAP; 0 no edge band, 1-3 the
        ``EDGE_COLORS``).  Writing every FAP (``ids`` None) binds ``plan``;
        writing some needs it bound already.  A plan binds only to a deployment
        of its sector count.  An id not an integer in 0..N-1 raises ValueError."""
        if plan.n_sectors != self.params.n_sectors:
            raise ValueError(f"a {plan.n_sectors}-sector plan does not fit a deployment of"
                             f" n_sectors={self.params.n_sectors}")
        if ids is not None:
            self.check_plan(plan)
            for i in np.ravel(ids).tolist():  # a boolean mask or a float is no id
                if type(i) is not int or not 0 <= i < self._n:
                    raise ValueError(f"no FAP with id {i!r}")
        rows = slice(None) if ids is None else ids
        edges = np.asarray(edges)
        low, high = (edges.min(), edges.max()) if edges.size else (0, 0)
        if low < 0 or high >= len(_EDGES):
            raise ValueError(f"edge index outside 0-{len(_EDGES) - 1}")
        if high >= plan.n_edges:
            raise ValueError(f"{plan.scheme.value} plan has no edge bands")
        self._edge[:self._n][rows] = edges
        if ids is None:
            self.plan = plan


def _sector(x: float, y: float, n_sectors: int) -> int:
    """Sector of the point (x, y) around the macro BS at the origin."""
    if x == 0.0 and y == 0.0:
        raise ValueError("position coincides with the macro BS")
    return min(int(math.atan2(y, x) % TWO_PI // (TWO_PI / n_sectors)), n_sectors - 1)


def _bin_sectors(points: np.ndarray, n_sectors: int) -> np.ndarray:
    """``_sector`` of each (x, y) row in one array pass.  ``np.arctan2`` may
    differ from ``math.atan2`` in the last bits, so an angle within 1e-9 of a
    sector boundary (0 and 2*pi included), or the origin, takes ``_sector``."""
    x, y = points[:, 0], points[:, 1]
    width = TWO_PI / n_sectors
    angle = np.arctan2(y, x) % TWO_PI
    sector = np.minimum(angle // width, n_sectors - 1).astype(np.int64)
    near = np.abs(angle - np.rint(angle / width) * width) < 1e-9
    for i in np.flatnonzero(near | ((x == 0.0) & (y == 0.0))).tolist():
        sector[i] = _sector(*points[i].tolist(), n_sectors)
    return sector


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
    with ``separation``, each FAP is redrawn (up to MAX_PLACE_ATTEMPTS times)
    while some FAP placed before it is its neighbor at that radius."""
    dep = Deployment(params)
    dep.extend((params.reference_distance_m, 0.0))
    if separation is None:
        dep.extend(_disc_points(rng, params.macro_radius_m, params.n_faps - 1))
        return dep
    for i in range(1, params.n_faps):
        for _ in range(MAX_PLACE_ATTEMPTS):
            p = _disc_points(rng, params.macro_radius_m, 1)
            if not len(dep.near(p[0], separation)):
                dep.extend(p)
                break
        else:
            raise PlacementError(
                f"could not place FAP {i} after {MAX_PLACE_ATTEMPTS} attempts"
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

    if scenario is Scenario.D:
        return _layout(rng, params)

    raise ValueError(f"unknown scenario {scenario!r}")


# Candidate pairs per block, whatever N is: 2**14, so each of a block's ten or
# so float64/int64 temporaries is 128 KiB and together they fit an L2 cache.
# The graph build then peaks 1.2 MiB above its result at 8000 FAPs.
_CANDIDATE_BLOCK = 1 << 14
_CHUNK_ROWS = 256  # rows whose runs are counted at once (a sniff's tables are 18 KiB)


def _ramp(starts, lengths):
    """The index runs ``[start, start + length)``, one after another."""
    at = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(len(at))
    return at


class _Pairs:
    """The pairs that pass the neighbor test over (N, 2) ``positions``, in
    blocks.  The positions are binned in cells a hair wider than ``radius``
    (``_cell_side``) and sorted once by (cell, id) as ``order``; ``cells``
    lists each cell's 3x3 cells by dense rank, column by column, with the
    empty rank C where a cell holds no position.  A row's candidates are
    runs of ``order`` in those cells."""

    def __init__(self, positions, radius: float):
        check_domain("neighbor radius", radius, MIN_DISTANCE_M)
        pos = np.asarray(positions, dtype=float)
        if not np.all(np.abs(pos) <= MAX_DISTANCE_M):  # NaN fails
            raise ValueError("a position is not finite or lies beyond 100 km on an axis")
        self.n = n = len(pos)
        self.r2 = radius * radius
        keys = _cell_keys(pos, _cell_side(radius))
        self.order = order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(n, dtype=bool)  # the first FAP of a cell
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        cells = keys[first]
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[order] = np.cumsum(first) - 1
        # cell c is order[cell_start[c]:cell_start[c + 1]]; rank C is empty
        self.cell_start = np.append(np.flatnonzero(first), [n, n])
        # binary searches with needles in key order narrow from the last
        # result; a column's cells dy = -1, 0, 1 have consecutive ranks
        column = np.array([[-_CELL_STRIDE], [0], [_CELL_STRIDE]]) + cells
        lo = np.searchsorted(cells, column - 1, side="left")
        hi = np.searchsorted(cells, column + 1, side="right")
        self.cells = (lo.T[:, :, None] + np.arange(3)).reshape(-1, 9)
        self.cells[self.cells >= np.repeat(hi.T, 3, axis=1)] = len(cells)
        self.x, self.y = pos[:, 0], pos[:, 1]
        self.sorted_x, self.sorted_y = self.x[order], self.y[order]

    def blocks(self, start: int = 0, earlier: bool = False):
        """Yield (a, b, ends, ids) for rows a..b from ``start`` on, in order:
        the ids of the candidates that pass (``passes``), row after row, and
        each row's end in them.  A row's candidates are the FAPs of its 3x3
        cells, three runs, one a column, so a row keeps its own id; with
        ``earlier``, those with ids below its own, nine runs, one a cell, each
        ended by ``searchsorted`` on (cell rank) * N + id, an exact int64
        below N * (N + 1).  The runs are counted ``_CHUNK_ROWS`` rows at a
        time and cut into blocks of about ``_CANDIDATE_BLOCK`` candidates, so
        a walk holds one chunk and one block."""
        n = self.n
        if earlier:
            cell_id = self.rank[self.order] * n + self.order  # ascending
        else:  # a column's cells follow one another: one run a column, per cell
            first = self.cell_start.take(self.cells)
            col_len = (self.cell_start.take(self.cells + 1) - first).reshape(-1, 3, 3).sum(axis=2)
            col_start = first[:, ::3].copy()
        for a0 in range(start, n, _CHUNK_ROWS):
            rank = self.rank[a0:a0 + _CHUNK_ROWS]
            if earlier:
                c = self.cells.take(rank, axis=0)
                starts = self.cell_start.take(c)
                c *= n
                c += np.arange(a0, a0 + len(rank))[:, None]
                lengths = np.searchsorted(cell_id, c)
                lengths -= starts
            else:
                starts, lengths = col_start.take(rank, axis=0), col_len.take(rank, axis=0)
            counts = lengths.sum(axis=1)
            # a block starts at each row whose running count, a row counting
            # one more, reaches a multiple of the budget
            block = np.cumsum(counts + 1)
            block //= _CANDIDATE_BLOCK
            bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(rank)]
            for a, b in zip(bounds[:-1], bounds[1:]):
                per_row, at = counts[a:b], _ramp(starts[a:b].ravel(), lengths[a:b].ravel())
                hit = np.flatnonzero(self.passes(a0 + a, a0 + b, per_row, at))
                # not np.add.reduceat, which misreports a row of no candidates
                ends = np.searchsorted(hit, np.cumsum(per_row))
                yield a0 + a, a0 + b, ends, self.order.take(at.take(hit))

    def passes(self, a: int, b: int, per_row, at) -> np.ndarray:
        """Whether each candidate at ``at`` passes the neighbor test with its
        row of a..b: ``((p_i - p_j) ** 2).sum() <= r * r`` term for term, in
        place."""
        dx = np.repeat(self.x[a:b], per_row)
        dx -= self.sorted_x.take(at)
        dx *= dx
        dy = np.repeat(self.y[a:b], per_row)
        dy -= self.sorted_y.take(at)
        dy *= dy
        dx += dy
        return dx <= self.r2


def neighbor_graph(deployment: Deployment, radius: float) -> NeighborGraph:
    """Symmetric, irreflexive graph of FAP pairs i != j with
    ``((p_i - p_j) ** 2).sum() <= radius * radius``: exact Euclidean
    distances, by the same float expression for every pair.

    A FAP's candidates are the FAPs of the 3x3 cells around its own, read in
    blocks from ``_Pairs``.  The radius is at least 1 mm, or infinite, which
    gives one cell (the complete graph).  One walk of the blocks appends each
    block's kept ids, less each row's own, to one growing buffer, which
    becomes the CSR indices as it stands: the peak is the result, the spare
    eighth at most that the buffer reserves as it grows, a few per-FAP
    arrays and one block, 1.2 MiB above the result at 8000 FAPs and 4.9 MiB at
    40000.  Work and memory are O(N * mean degree).  The result is CSR with
    int32 indices, each row in stream order: cells column by column, ids
    ascending in a cell, so the ids below its own are ``earlier_neighbors``'
    row for it.
    """
    pairs = _Pairs(deployment.positions(), radius)
    indptr = np.zeros(pairs.n + 1, dtype=np.int64)
    kept = bytearray()
    for a, b, ends, j in pairs.blocks():
        count = np.diff(ends, prepend=0)
        # every FAP is its own candidate once, and passes
        indptr[a + 1:b + 1] = count - 1
        kept += memoryview(j[j != np.repeat(np.arange(a, b), count)].astype(np.int32))
    np.cumsum(indptr, out=indptr)
    indices = np.frombuffer(kept, dtype=np.int32)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return NeighborGraph(indptr=indptr, indices=indices, neighbor_radius=radius)


def earlier_neighbors(positions, radius: float, start: int = 0):
    """Yield, for each row i >= ``start`` of the (N, 2) ``positions`` in turn,
    the ids j < i of the rows that pass ``neighbor_graph``'s test with it, in
    candidate order: the sniff of each FAP when FAPs join in row order.  They
    are the FAPs with ids below i of the 3x3 cells around row i's, read in
    blocks from ``_Pairs``, each built and tested as the stream reaches it."""
    check_domain("start", start, 0)
    for _, _, ends, ids in _Pairs(positions, radius).blocks(start, earlier=True):
        ends = ends.tolist()
        yield from map(ids.__getitem__, map(slice, [0, *ends], ends))


def apply_plan(deployment: Deployment, plan: FrequencyPlan) -> Deployment:
    """Bind ``plan`` and give every FAP its sector's center band, no edge."""
    deployment.assign(plan, 0)
    return deployment
