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


@dataclass(frozen=True)
class NeighborGraph:
    adjacency: dict[int, set[int]]
    neighbor_radius: float

    def degree(self, fap_id: int) -> int:
        return len(self.adjacency[fap_id])

    def edges(self):
        """Undirected edges as (a, b) with a < b."""
        for a, nbrs in self.adjacency.items():
            for b in nbrs:
                if a < b:
                    yield a, b

    @property
    def n_edges(self) -> int:
        return sum(len(n) for n in self.adjacency.values()) // 2

    @property
    def mean_degree(self) -> float:
        n = len(self.adjacency)
        return 2.0 * self.n_edges / n if n else 0.0


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


def neighbor_graph(deployment: Deployment, radius: float) -> NeighborGraph:
    """Symmetric, irreflexive graph of FAP pairs within center-to-center
    ``radius`` (exact Euclidean distances)."""
    if radius <= 0:
        raise ValueError("neighbor radius must be positive")
    pos = deployment.positions()
    ids = list(range(len(pos)))  # one int object per id, shared by every set
    r2 = radius * radius
    adjacency: dict[int, set[int]] = {}
    block = 512
    for start in range(0, len(ids), block):
        stop = min(start + block, len(ids))
        # d2 is exactly symmetric, so each row alone gives that FAP's neighbors
        d2 = ((pos[start:stop, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        near = d2 <= r2
        near[np.arange(stop - start), np.arange(start, stop)] = False
        for i, row in zip(ids[start:stop], near):
            adjacency[i] = {ids[j] for j in np.flatnonzero(row).tolist()}
    return NeighborGraph(adjacency=adjacency, neighbor_radius=radius)


def apply_plan(deployment: Deployment, plan: FrequencyPlan) -> Deployment:
    """Give every FAP its sector's base allocation (center band, no edge)."""
    for f in deployment.faps:
        f.allocation = base_allocation(plan, f.sector_index)
    return deployment
