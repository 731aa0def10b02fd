"""SON coordinator: edge-band auto-configuration, interference-triggered power
and cell-size adjustment, and admission of newly installed FAPs.

The distributed FAP negotiation is modeled as a centralized deterministic pass
over the deployment.  Coloring, admission and power control each take an
optional append-only event log, their only report: given one, they record
every state change in it, so a pass can be audited and replayed; without
one, they build no event.  The coordinator has exclusive
access to the deployment while it runs; outage evaluation and SON passes
alternate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import PropagationParams, link_coefficients
from .spectrum import (
    EDGE_COLORS,
    EdgeChoice,
    FrequencyPlan,
    Scheme,
    UeRegion,
    cochannel,
)
from .topology import MAX_POWER_W, MIN_POWER_W, Deployment, NeighborGraph, check_domain, sector_of

__all__ = [
    "ColoringState",
    "SonEvent",
    "SonEventKind",
    "SonEventLog",
    "admit_fap",
    "adjust_power",
    "assign_shared_edge",
    "assign_uniform_random_colors",
    "configure_frequencies",
    "noncochannel_fraction",
    "replay",
    "same_color_conflicts",
]


class SonEventKind(Enum):
    RECONFIGURE = "reconfigure"
    POWER_REQUEST = "power_request"
    NEW_FAP = "new_fap"
    COLOR_CONFLICT = "color_conflict"


@dataclass(frozen=True)
class SonEvent:
    seq: int
    kind: SonEventKind
    subject: int  # FAP id
    details: dict

    def to_line(self) -> str:
        return json.dumps(
            {"seq": self.seq, "kind": self.kind.value, "subject": self.subject,
             "details": self.details},
            sort_keys=True,
        )

    @staticmethod
    def from_line(line: str) -> "SonEvent":
        d = json.loads(line)
        return SonEvent(d["seq"], SonEventKind(d["kind"]), d["subject"], d["details"])


class SonEventLog:
    """Append-only event log with monotone sequence numbers."""

    def __init__(self):
        self.events: list[SonEvent] = []

    def append(self, kind: SonEventKind, subject: int, **details) -> None:
        self.events.append(SonEvent(len(self.events), kind, subject, details))

    def to_lines(self) -> list[str]:
        return [ev.to_line() for ev in self.events]

    @staticmethod
    def from_lines(lines) -> "SonEventLog":
        log = SonEventLog()
        log.events = [SonEvent.from_line(ln) for ln in lines if ln.strip()]
        return log


@dataclass
class ColoringState:
    colors: dict[int, EdgeChoice]
    graph: NeighborGraph

    @property
    def conflicts(self) -> set[tuple[int, int]]:
        """Adjacent same-color pairs (a, b), a < b, computed on each access."""
        return same_color_conflicts(self.graph, self.colors)


def same_color_conflicts(graph: NeighborGraph, colors: dict[int, EdgeChoice]) -> set[tuple[int, int]]:
    """Recompute from scratch the neighbor pairs sharing an edge color."""
    codes = np.full(graph.n_faps, -1, dtype=np.int8)  # index in EDGE_COLORS; -1 none
    for fid, color in colors.items():
        if color is not EdgeChoice.NONE:
            codes[fid] = EDGE_COLORS.index(color)
    rows = graph.rows()
    a, b = codes[rows], codes[graph.indices]
    hit = (rows < graph.indices) & (a == b) & (a >= 0)
    return set(zip(rows[hit].tolist(), graph.indices[hit].tolist()))


def _check_graph(deployment: Deployment, graph: NeighborGraph) -> None:
    """Raise ValueError unless ``graph`` covers exactly the deployment's FAPs."""
    n = len(deployment.faps)
    if graph.n_faps != n:
        raise ValueError(f"neighbor graph covers {graph.n_faps} FAPs, the deployment has {n}")


def configure_frequencies(
    deployment: Deployment,
    graph: NeighborGraph,
    plan: FrequencyPlan,
    log: SonEventLog | None = None,
) -> ColoringState:
    """Assign every FAP one of the three edge colors by greedy coloring.

    FAPs are processed in descending neighbor-graph degree (ids break ties);
    each takes the globally least-used color not present among its already
    colored neighbors.  When neighbors cover all three colors, the color with
    the fewest same-colored neighbors is taken and a COLOR_CONFLICT event is
    recorded.  Greedy conflicts are never worse than uniform random assignment
    on average.
    """
    if plan.scheme is not Scheme.DYNAMIC_REUSE:
        raise ValueError(f"{plan.scheme.value} scheme has no edge bands to configure")
    _check_graph(deployment, graph)

    indptr, indices = graph.indptr.tolist(), graph.indices
    order = np.lexsort((np.arange(graph.n_faps), -np.diff(graph.indptr))).tolist()
    colors: dict[int, EdgeChoice] = {}
    # index in EDGE_COLORS, 3 uncolored; intp, the dtype bincount counts without a cast
    codes = np.full(graph.n_faps, 3, dtype=np.intp)
    usage = [0, 0, 0]
    for fid in order:
        neigh = indices[indptr[fid]:indptr[fid + 1]]
        neigh_codes = codes.take(neigh)
        counts = np.bincount(neigh_codes, minlength=4).tolist()  # zip drops the uncolored
        # a free color has count 0, the least, so it wins whenever there is one
        k = min(zip(counts, usage, (0, 1, 2)))[2]
        color = EDGE_COLORS[k]
        if counts[k] and log is not None:
            log.append(
                SonEventKind.COLOR_CONFLICT, fid,
                color=color.value, partners=neigh[neigh_codes == k].tolist(),
            )
        colors[fid] = color
        codes[fid] = k
        usage[k] += 1
        if log is not None:
            log.append(SonEventKind.RECONFIGURE, fid, color=color.value)
    deployment.assign(plan, codes + 1)
    return ColoringState(colors=colors, graph=graph)


def assign_uniform_random_colors(
    deployment: Deployment,
    graph: NeighborGraph,
    plan: FrequencyPlan,
    rng: np.random.Generator,
) -> ColoringState:
    """Uncoordinated baseline: every FAP picks an edge color at random, in id
    order (one ``rng.integers(0, 3)`` draw each)."""
    _check_graph(deployment, graph)
    ks = rng.integers(0, 3, size=len(deployment.faps))
    deployment.assign(plan, ks + 1)
    return ColoringState(colors=dict(enumerate(EDGE_COLORS[k] for k in ks.tolist())), graph=graph)


def assign_shared_edge(
    deployment: Deployment,
    graph: NeighborGraph,
    plan: FrequencyPlan,
    color: EdgeChoice = EdgeChoice.X,
) -> ColoringState:
    """Degenerate baseline: all FAPs share a single edge band."""
    _check_graph(deployment, graph)
    deployment.assign(plan, list(EdgeChoice).index(color))
    return ColoringState(colors=dict.fromkeys(range(len(deployment.faps)), color), graph=graph)


def noncochannel_fraction(
    deployment: Deployment,
    graph: NeighborGraph,
    ue_region: UeRegion = UeRegion.EDGE,
) -> float:
    """Fraction of ordered neighbor pairs whose interference indicator is 0
    under the deployment's plan, i.e. how often a neighbor does not reach the
    reference UE's band.  Raises ValueError when no plan is bound, ``graph``
    is another deployment's or a FAP of a pair has no allocation."""
    plan = deployment.bound_plan()
    _check_graph(deployment, graph)
    if not len(graph.indices):
        return 1.0
    edges, sectors = deployment.edges(), deployment.sectors()
    # every FAP of a pair is some row's neighbor
    if np.any(edges[graph.indices] < 0):
        raise ValueError("a FAP of a neighbor pair has no allocation")
    rows, cols = graph.rows(), graph.indices
    # (S, E, S, E): entry [s, e] is the X row of allocation (s, e)
    table = np.array([[cochannel(plan, ue_region, s, e)[0] for e in range(plan.n_edges)]
                      for s in range(plan.n_sectors)])
    x = table[sectors[rows], edges[rows], sectors[cols], edges[cols]]
    return int(np.count_nonzero(x == 0)) / len(graph.indices)


def adjust_power(
    deployment: Deployment,
    master: int,
    ue_position,
    ue_region: UeRegion,
    params: PropagationParams,
    gamma_db: float,
    margin_db: float = 3.0,
    step_db: float = 1.0,
    floor_w: float = 1e-4,
    log: SonEventLog | None = None,
) -> None:
    """Lower the co-channel interferer powers of a UE at ``ue_position``,
    served by FAP ``master`` on ``ue_region``, until its fading-averaged SIR
    reaches gamma + margin or every interferer sits at the power floor.
    The co-channel flags come from the deployment's plan, which must be bound.

    Each step reduces the strongest remaining interferer (the lowest id on
    ties) by ``step_db``, shrinks its cell radius by 10^(-step / (10 *
    eta1)), the distance at which its edge receive power is unchanged, and
    appends a POWER_REQUEST to ``log``, if given.  Powers never increase; a
    step that would take a radius out of its domain raises before it writes.
    """
    check_domain("floor_w", floor_w, MIN_POWER_W, MAX_POWER_W)
    ids, coeffs, macro_coeff, s_bar = link_coefficients(
        deployment, deployment.fap_by_id(master), ue_position, ue_region, params
    )
    hit = coeffs > 0.0  # the co-channel interferers, in id order
    ids, coeffs = np.asarray(ids, dtype=np.int64)[hit], coeffs[hit]
    powers = deployment.tx_powers()[ids]
    target = 10 ** ((gamma_db + margin_db) / 10.0)
    factor = 10 ** (-step_db / 10.0)
    while len(ids):
        total = sum(coeffs.tolist()) + macro_coeff
        adjustable = powers > floor_w
        if total <= 0.0 or s_bar / total >= target or not adjustable.any():
            break
        k = int(np.argmax(np.where(adjustable, coeffs, -np.inf)))  # first of the largest
        old_power = float(powers[k])
        new_power = max(old_power * factor, floor_w)
        delta_db = 10.0 * math.log10(old_power / new_power)
        fap = deployment.fap_by_id(int(ids[k]))
        fap.radius *= 10 ** (-delta_db / (10.0 * params.eta_desired))  # the checked write
        fap.tx_power = powers[k] = new_power  # in the domain: floor_w <= new_power <= old
        coeffs[k] *= new_power / old_power
        if log is not None:
            log.append(
                SonEventKind.POWER_REQUEST, fap.id, master=master, delta_db=delta_db,
                tx_power_w=fap.tx_power, radius_m=fap.radius,
            )


def admit_fap(
    deployment: Deployment,
    position,
    plan: FrequencyPlan,
    graph: NeighborGraph,
    log: SonEventLog | None = None,
    *,
    sniffed=None,
) -> None:
    """Admit a newly installed FAP: sniff neighbors within the graph radius,
    pick an edge color absent among them (else their minority color; ties go
    to the first of ``EDGE_COLORS``), and append the FAP without touching
    existing colors, by one scalar ``extend``; ``sectors`` bins it when read.
    With a ``log``, appends NEW_FAP (position and sector) and RECONFIGURE
    (color).  ``sniffed`` gives the ids the sniff finds (``earlier_neighbors``'
    rows), else ``near`` scans every FAP.  Raises ValueError when ``plan`` has
    no edge bands or is not the deployment's."""
    if plan.n_edges == 1:
        raise ValueError(f"{plan.scheme.value} plan has no edge bands to admit a FAP on")
    deployment.check_plan(plan)
    pos = np.asarray(position, dtype=float)  # converted once, read as floats
    x, y = pos.tolist()
    deployment.check_in_macro_disc((x, y))
    if sniffed is None:
        sniffed = deployment.near(pos, graph.neighbor_radius)
    # one int8 edge index per sniffed FAP, as bytes: EDGE_COLORS[k] is byte k + 1
    colors = deployment.edges()[sniffed].tobytes()
    counts = [colors.count(1), colors.count(2), colors.count(3)]
    edge = counts.index(min(counts)) + 1  # the first absent color, if one is
    deployment.extend(pos, edge)
    if log is not None:
        new_id = len(deployment.faps) - 1
        log.append(SonEventKind.NEW_FAP, new_id, x=x, y=y,
                   sector=int(deployment.sectors()[new_id]))
        log.append(SonEventKind.RECONFIGURE, new_id, color=EDGE_COLORS[edge - 1].value)


def replay(deployment: Deployment, events, plan: FrequencyPlan) -> Deployment:
    """Apply a SON event list to a deployment (normally a copy of the
    pre-pass state); reproduces the post-pass state bit-exactly.  A NEW_FAP
    event must name the next id, a position inside the macro disc and that
    position's sector, as ``admit_fap`` would, else ValueError."""
    for ev in events:
        if ev.kind is SonEventKind.POWER_REQUEST:
            fap = deployment.fap_by_id(ev.subject)
            fap.tx_power = ev.details["tx_power_w"]
            fap.radius = ev.details["radius_m"]
        elif ev.kind is SonEventKind.NEW_FAP:
            pos = np.array([ev.details["x"], ev.details["y"]])
            deployment.check_in_macro_disc(pos.tolist())
            sector = sector_of(deployment.params.n_sectors, pos)
            if ev.details["sector"] != sector:
                raise ValueError(
                    f"NEW_FAP {ev.subject} names sector {ev.details['sector']},"
                    f" its position lies in sector {sector}"
                )
            if ev.subject != len(deployment.faps):
                raise ValueError(
                    f"NEW_FAP id {ev.subject} is not the next row {len(deployment.faps)}"
                )
            deployment.extend(pos)
        elif ev.kind is SonEventKind.RECONFIGURE:
            deployment.fap_by_id(ev.subject)  # range check
            edge = list(EdgeChoice).index(EdgeChoice(ev.details["color"]))
            deployment.assign(plan, edge, [ev.subject])
        # COLOR_CONFLICT carries no state change
    return deployment
