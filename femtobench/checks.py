"""Output checks for the benchmark, made apart from the program.

The exact outage of a UE whose interferers have deterministic coefficients
c_k (femto links and the macro link, from ``link_coefficients``) and
independent unit-exponential slow and fast fading is

    P = 1 - prod_k phi(gamma c_k / s_bar),  phi(a) = E[exp(-a xi Z)] = x e^x E1(x), x = 1/a,

the Laplace-functional method of Andrews, Baccelli & Ganti (IEEE TCOM 2011).
Both of the program's estimators (the averaged conditional closed form and
the direct Monte Carlo count) are means of n i.i.d. values in [0, 1] with
mean P, so each must lie within Bernstein's bound of P.

The graph, coloring and admission properties are checked against
``scipy.spatial.cKDTree`` pair searches over position snapshots, not against
the program's own neighbor graph.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

# Chance that one correct estimate falls outside its Bernstein bound.  About
# 2e3 estimates are checked over all benchmark runs, so a false alarm is
# expected in fewer than one in 5e4 full sets; for counts that are not small
# the bound is sqrt(2 ln(2 / 1e-7)) = 5.8 standard errors.
FALSE_ALARM = 1e-7

# x e^x E1(x) overflows float64 in e^x beyond x ~ 709; above this switch the
# scaled form U(1, 1, x) = e^x E1(x) (Tricomi's confluent function) is used.
_SCALED_FROM_X = 700.0


def phi(a) -> np.ndarray:
    """E[exp(-a xi Z)] for independent unit exponentials xi, Z; phi(0) = 1."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.ones_like(a)
    x = 1.0 / a[a > 0]
    naive = x < _SCALED_FROM_X
    vals = np.empty_like(x)
    vals[naive] = x[naive] * np.exp(x[naive]) * special.exp1(x[naive])
    vals[~naive] = x[~naive] * special.hyperu(1.0, 1.0, x[~naive])
    out[a > 0] = vals
    return out


def exact_outage(coeffs, macro_coeff: float, s_bar: float, gamma: float) -> float:
    a = gamma * np.append(np.asarray(coeffs, dtype=float), macro_coeff) / s_bar
    return float(-np.expm1(np.log(phi(a)).sum()))


def bernstein_halfwidth(p: float, n: int, delta: float = FALSE_ALARM) -> float:
    """t with P(|mean - p| >= t) <= delta for the mean of n i.i.d. values in
    [0, 1] with mean p (variance at most p (1 - p))."""
    log_term = math.log(2.0 / delta)
    b = 2.0 * log_term / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * p * (1.0 - p) * log_term)) / (2.0 * n)


def csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def _positions(deployment) -> tuple[np.ndarray, list[int]]:
    return (
        np.array([f.position for f in deployment.faps], dtype=float).reshape(-1, 2),
        [f.id for f in deployment.faps],
    )


def _color(fap):
    return None if fap.allocation is None else fap.allocation.edge_choice.value


class Recorder:
    """Keeps what the checks need from the calls of one traced run; its
    methods are capture callbacks for :class:`tracing.Tracer`."""

    def __init__(self):
        self.graphs = []  # (graph, positions, ids) at build time
        self.colorings = []  # (variant, graph, state)
        self.admissions = []  # (deployment, index of the admitted FAP, radius)
        self.links = []  # (femto coefficients, macro coefficient, s_bar)
        self.estimates = []  # (estimate, link record)

    def captures(self) -> dict:
        return {
            "topology.neighbor_graph": self._graph,
            "son.configure_frequencies": self._coloring("greedy"),
            "son.assign_uniform_random_colors": self._coloring("random"),
            "son.assign_shared_edge": self._coloring("shared"),
            "son.admit_fap": self._admission,
            "channel.link_coefficients": self._link,
            "outage.estimate": self._estimate,
        }

    def _graph(self, graph, deployment, *args, **kwargs):
        self.graphs.append((graph, *_positions(deployment)))

    def _coloring(self, variant):
        def capture(state, deployment, graph, *args, **kwargs):
            self.colorings.append((variant, graph, state))
        return capture

    def _admission(self, result, deployment, position, plan, graph, *args, **kwargs):
        self.admissions.append((deployment, len(deployment.faps) - 1, graph.neighbor_radius))

    def _link(self, result, *args, **kwargs):
        _, coeffs, macro_coeff, s_bar = result
        self.links.append((np.array(coeffs, dtype=float), float(macro_coeff), float(s_bar)))

    def _estimate(self, result, *args, **kwargs):
        self.estimates.append((result, self.links[-1]))

    # --- derived counts ------------------------------------------------------

    def graph_pairs(self) -> dict[int, set]:
        """Independent edge set of every recorded graph, keyed by id(graph)."""
        out = {}
        for graph, pos, ids in self.graphs:
            pairs = cKDTree(pos).query_pairs(graph.neighbor_radius, output_type="ndarray")
            out[id(graph)] = {
                (min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j in pairs.tolist()
            }
        return out

    def conflicts(self, pairs: dict[int, set]) -> list[tuple[str, int, int, int]]:
        """(variant, independent conflicts, program's conflicts, edges) per coloring."""
        out = []
        for variant, graph, state in self.colorings:
            edges = pairs[id(graph)]
            colors = state.colors
            independent = sum(
                1 for a, b in edges
                if a in colors and b in colors and colors[a] is colors[b]
                and colors[a].value != "none"
            )
            out.append((variant, independent, len(state.conflicts), len(edges)))
        return out


def check_rows(rows, recorder: Recorder, gamma: float, n_trials: int):
    """Problems found in the CSV rows, and the largest |z| of an estimate
    against the exact outage."""
    problems = []
    if len(rows) != len(recorder.estimates):
        return [f"{len(rows)} CSV rows for {len(recorder.estimates)} estimates"], math.nan
    max_z = 0.0
    by_density = defaultdict(dict)
    for row, (est, (coeffs, macro_coeff, s_bar)) in zip(rows, recorder.estimates):
        where = f"{row['scheme']}@{row['density']}"
        p_closed, p_mc = float(row["p_out_closed"]), float(row["p_out_mc"])
        n = int(row["n_trials"])
        by_density[row["density"]][row["scheme"]] = (p_closed, p_mc)
        if (p_closed, p_mc, n) != (est.p_out_closed, est.p_out_mc, est.n_trials):
            problems.append(f"{where}: CSV row differs from its estimate")
        if n != n_trials:
            problems.append(f"{where}: n_trials {n} != configured {n_trials}")
        ci95 = 1.96 * math.sqrt(p_mc * (1.0 - p_mc) / n)
        if not math.isclose(float(row["ci95"]), ci95, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"{where}: ci95 {row['ci95']} != recomputed {ci95!r}")
        if not np.any(coeffs) and macro_coeff == 0.0:
            if p_closed != 0.0 or p_mc != 0.0:
                problems.append(f"{where}: no interferer but outage {p_closed}, {p_mc}")
            continue
        p_exact = exact_outage(coeffs, macro_coeff, s_bar, gamma)
        bound = bernstein_halfwidth(p_exact, n)
        se = math.sqrt(p_exact * (1.0 - p_exact) / n)
        for name, value in (("p_out_closed", p_closed), ("p_out_mc", p_mc)):
            if abs(value - p_exact) > bound:
                problems.append(
                    f"{where}: {name} {value!r} is {abs(value - p_exact):.3g} from the"
                    f" exact {p_exact!r}, beyond the bound {bound:.3g}"
                )
            if se > 0:
                max_z = max(max_z, abs(value - p_exact) / se)
    for density, schemes in by_density.items():
        if "partial" in schemes and "same" in schemes and schemes["partial"] != schemes["same"]:
            problems.append(f"partial != same at density {density}")
    return problems, max_z


def check_structure(recorder: Recorder, pairs: dict[int, set]) -> list[str]:
    """Neighbor graphs, coloring conflicts and admission colors."""
    problems = []
    for graph, _, _ in recorder.graphs:
        program = {(min(a, b), max(a, b)) for a, b in graph.edges()}
        if program != pairs[id(graph)]:
            problems.append(
                f"neighbor graph has {len(program)} edges, cKDTree finds"
                f" {len(pairs[id(graph)])} ({len(program ^ pairs[id(graph)])} differ)"
            )
    conflicts = defaultdict(list)
    for variant, independent, reported, edges in recorder.conflicts(pairs):
        conflicts[variant].append(independent)
        if independent != reported:
            problems.append(f"{variant} coloring reports {reported} conflicts, found {independent}")
        if variant == "shared" and independent != edges:
            problems.append(f"shared coloring conflicts on {independent} of {edges} edges")
    if conflicts["greedy"] and conflicts["random"]:
        if sum(conflicts["greedy"]) > sum(conflicts["random"]):
            problems.append(
                f"greedy coloring has {sum(conflicts['greedy'])} conflicts,"
                f" random {sum(conflicts['random'])}"
            )
    problems += _check_admissions(recorder.admissions)
    return problems


def _check_admissions(admissions) -> list[str]:
    """Each admitted FAP must take a color absent among the FAPs present at
    its admission within the sniffing radius, when one exists.  Admission
    never recolors, so the final colors are those seen at admission time."""
    problems = []
    by_deployment = defaultdict(list)
    for deployment, index, radius in admissions:
        by_deployment[id(deployment)].append((deployment, index, radius))
    for entries in by_deployment.values():
        deployment = entries[0][0]
        pos, _ = _positions(deployment)
        colors = [_color(f) for f in deployment.faps]
        tree = cKDTree(pos)
        for _, index, radius in entries:
            seen = {
                colors[j] for j in tree.query_ball_point(pos[index], radius)
                if j < index and colors[j] not in (None, "none")
            }
            if len(seen) < 3 and colors[index] in seen | {None, "none"}:
                problems.append(
                    f"admitted FAP {index} took {colors[index]} with free colors"
                    f" among neighbors colored {sorted(seen)}"
                )
    return problems
