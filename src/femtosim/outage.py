"""Femto-UE outage probability: the exact value, checked by Monte Carlo.

The SIR uses interference only (no noise term).  Interferer k has a fixed
coefficient c_k and unit-exponential slow (xi) and fast (Z) fading, and the
desired fast fading is unit exponential, so the outage probability is exactly
P = 1 - prod_k phi(gamma c_k / s_bar) with phi(a) = E[exp(-a xi Z)] =
x e^x E1(x), x = 1/a: the Laplace functional of Andrews, Baccelli & Ganti,
"A Tractable Approach to Coverage and Rate in Cellular Networks" (IEEE TCOM
2011).  ``estimate`` reports it as ``p_out_closed``, and a direct Monte Carlo
count as ``p_out_mc``.

Trials are split over a fixed number of shards with independent RNG streams
spawned from the seed.  Shard counts are integers, so their sum does not depend
on the order shards finish in, and the result is bit-identical for a given
(seed, shard count) no matter how many workers execute the shards.  Each
worker runs a strided group of shards and reuses its buffers across the group:
the (m, K) slow fading xi, five (m,) float vectors and one (m,) bool vector, m
being the largest shard, and one block of about 2**15 fast-fading values, so
(K + 5) m doubles, m bools and a block in all.  The fast fading Z is drawn one
row block at a time and folded into xi in place.  A fill draws its values row
after row and carries nothing but the bit generator, so the blocks draw the
numbers of one (m, K) fill, and blocking changes no draw and no count.  The
interference sum xi @ c is one matrix-vector product over the whole shard:
BLAS may round a product over row blocks differently from the whole one.
When no interferer is co-channel, no trial can be in outage and no fading is
drawn.

A variant of a deployment is a (plan, edges) pair, which ``estimate_variants``
writes with ``Deployment.assign``.  Variants share the trial seed, the
configuration and the geometry, hence the number K of neighbors, so their
trials are the same fading draws: it takes each variant's link set and makes
one pass, in which each shard is drawn once and each distinct link set with
an interferer is counted over it by its own matrix-vector product, then
writes each variant again for its ``estimate``, which finds its result in
that pass.  ``density_sweep`` runs its plans as variants of one growing
network at each density, and the SON ablation its three colorings of one
deployment.  Nothing is shared across densities.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import son
from .channel import PropagationParams, link_coefficients
from .spectrum import FrequencyPlan, Scheme, UeRegion
from .topology import (
    MAX_DISTANCE_M,
    MIN_DISTANCE_M,
    Deployment,
    DeploymentParams,
    Scenario,
    check_domain,
    earlier_neighbors,
    generate,
    neighbor_graph,
)

__all__ = [
    "OutageConfig",
    "OutageEstimate",
    "SweepRow",
    "conditional_outage",
    "density_sweep",
    "estimate",
    "estimate_variants",
    "log_phi",
    "sweep_csv_lines",
]

SWEEP_CSV_COLUMNS = "scheme,density,p_out_closed,p_out_mc,ci95,n_trials,seed"
# A shard's fast fading is drawn in row blocks of about 2**15 values (256 KiB,
# an L2-sized block).
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class OutageConfig:
    """SIR threshold, trials and UE placement, each field named as its key."""

    gamma_db: float = 9.0
    n_trials: int = 100_000
    ue_distance_m: float = 5.0  # UE to serving FAP
    ue_region: UeRegion = UeRegion.EDGE
    n_shards: int = 16
    ue_direction: str = "nearest"  # "nearest" (worst case) or "random"

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        check_domain("gamma_db", self.gamma_db, -100.0, 100.0)
        check_domain("ue_distance_m", self.ue_distance_m, MIN_DISTANCE_M, MAX_DISTANCE_M)
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.ue_direction not in ("nearest", "random"):
            raise ValueError(f"unknown ue_direction {self.ue_direction!r}")

    @property
    def gamma_linear(self) -> float:
        return 10 ** (self.gamma_db / 10.0)


@dataclass(frozen=True)
class OutageEstimate:
    p_out_closed: float
    p_out_mc: float
    ci95_halfwidth: float  # 1.96 * sqrt(p_mc (1 - p_mc) / n)
    n_trials: int
    closed_form_se: float = 0.0  # p_out_closed is exact, so always 0.0


def conditional_outage(s_bar, total_interference, gamma_linear):
    """Outage probability conditional on the interference level:
    1 - exp(-gamma * I / s_bar).  Accepts scalars or arrays of I."""
    if s_bar <= 0:
        raise ValueError("s_bar must be positive")
    if gamma_linear <= 0:
        raise ValueError("gamma_linear must be positive")
    i = np.asarray(total_interference, dtype=float)
    if np.any(i < 0):
        raise ValueError("interference must be non-negative")
    p = -np.expm1(-gamma_linear * i / s_bar)
    return float(p) if p.ndim == 0 else p


def log_phi(a) -> np.ndarray:
    """log phi(a) = log(x e^x E1(x)), x = 1/a, for an array of a > 0: the
    series for x < 1 (Abramowitz & Stegun 5.1.11), else a backward continued
    fraction for e^x E1(x) = 1/(x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))."""
    x = 1.0 / np.asarray(a, dtype=float)
    out = np.empty_like(x)
    small = x < 1.0
    xs, term, tail = x[small], 1.0, 0.0
    for n in range(1, 25):
        term = term * -xs / n
        tail = tail + term / n
    out[small] = np.log(xs) + xs + np.log(-np.euler_gamma - np.log(xs) - tail)
    xl = x[~small]
    t = xl + 161.0
    for n in range(80, 1, -1):
        t = xl + (2 * n - 1) - n * n / t
    out[~small] = -np.log1p((1.0 - 1.0 / t) / xl)  # phi = x / (x + 1 - 1/t)
    return out


def nearest_fap_angle(deployment: Deployment, ref) -> float:
    """Direction from the reference FAP toward its nearest other FAP (the
    worst-case UE bearing; ties go to the lowest id); 0 when there is no other
    FAP."""
    if len(deployment.faps) < 2:
        return 0.0
    dists = np.linalg.norm(deployment.positions() - ref.position, axis=1)
    dists[ref.id] = math.inf
    delta = deployment.faps[int(np.argmin(dists))].position - ref.position
    return math.atan2(delta[1], delta[0])


def _ue_angle(deployment, ref, config, seed) -> float:
    """The UE bearing from the reference FAP that ``estimate`` takes unless
    one is pinned: for a random direction, the one draw of the seed's child 0
    (children 1.. are the shards), else the bearing toward the nearest other
    FAP (worst case)."""
    if config.ue_direction == "random":
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        return rng.uniform(0.0, 2.0 * math.pi)
    return nearest_fap_angle(deployment, ref)


def _block_rows(k: int) -> int:
    """Trials per fast-fading block of a K-interferer shard: about
    ``_BLOCK_VALUES`` values, and at least one trial."""
    return max(1, _BLOCK_VALUES // max(k, 1))


def _run_shard(seed_seq, xi, z, work, flags, links, gamma_linear):
    """One shard of Monte Carlo trials, one per row of the (m, K) buffer
    ``xi``, over which every (coeffs, macro_coeff, s_bar) link set in
    ``links`` is evaluated; returns their outage counts.  It overwrites
    ``xi``, the (b, K) fast-fading block ``z``, the (5, m) float buffer
    ``work`` and the (m,) bool buffer ``flags``."""
    rng = np.random.default_rng(seed_seq)
    xi_m, z_m, z0, i_total, macro = work
    m, b = len(xi), len(z)
    rng.standard_exponential(out=xi)
    # a fill draws row after row and carries nothing but the bit generator, so
    # Z drawn block by block is the Z of one (m, K) fill
    for a in range(0, m, b):
        z_block = z[:m - a]
        rng.standard_exponential(out=z_block)
        xi[a:a + b] *= z_block
    rng.standard_exponential(out=xi_m)
    rng.standard_exponential(out=z_m)
    rng.standard_exponential(out=z0)
    counts = []
    for coeffs, macro_coeff, s_bar in links:
        # one gemv per link set over the whole shard (a gemv over row blocks
        # may round otherwise, as may a fused (K, L) product), in the order of
        # xi @ c + m * xi_m * z_m, then gamma * i / s_bar
        np.matmul(xi, coeffs, out=i_total)
        np.multiply(macro_coeff, xi_m, out=macro)
        macro *= z_m
        i_total += macro
        i_total *= gamma_linear
        i_total /= s_bar
        counts.append(int(np.count_nonzero(np.less(z0, i_total, out=flags))))
    return counts


def _count_outages(seed, config, links, n_workers):
    """Outage counts of the link sets, which share one K, over the same
    ``config.n_trials`` trials of ``seed``: each shard's fading is drawn once
    and every link set is evaluated over it.  No link set, no draws."""
    if not links:
        return []
    _, *shard_seqs = np.random.SeedSequence(seed).spawn(config.n_shards + 1)
    base, extra = divmod(config.n_trials, config.n_shards)
    sizes = [base + (1 if i < extra else 0) for i in range(config.n_shards)]
    gamma = config.gamma_linear

    def run_group(shards):
        k = len(links[0][0])
        xi = np.empty((sizes[0], k))
        z = np.empty((min(sizes[0], _block_rows(k)), k))
        work = np.empty((5, sizes[0]))
        flags = np.empty(sizes[0], dtype=bool)
        counts = [0] * len(links)
        for i in shards:
            m = sizes[i]
            shard = _run_shard(shard_seqs[i], xi[:m], z, work[:, :m], flags[:m], links, gamma)
            counts = [a + b for a, b in zip(counts, shard)]
        return counts

    n_groups = max(1, min(n_workers, config.n_shards))
    groups = [range(w, config.n_shards, n_groups) for w in range(n_groups)]
    if n_groups == 1:
        return run_group(groups[0])
    with ThreadPoolExecutor(max_workers=n_groups) as pool:
        return [sum(c) for c in zip(*pool.map(run_group, groups))]


def _link_set(deployment, reference_fap, config, params, seed, ue_angle):
    """(femto coefficients, macro coefficient, s_bar) of a UE of the reference
    FAP, placed as ``estimate`` places it."""
    ref = deployment.fap_by_id(reference_fap)
    if config.ue_distance_m > ref.radius:
        raise ValueError(
            f"ue_distance_m {config.ue_distance_m} exceeds the femto radius {ref.radius} m"
        )
    if ue_angle is None:
        ue_angle = _ue_angle(deployment, ref, config, seed)
    ue = ref.position + config.ue_distance_m * np.array([math.cos(ue_angle), math.sin(ue_angle)])
    _, coeffs, macro_coeff, s_bar = link_coefficients(
        deployment, ref, ue, config.ue_region, params
    )
    return coeffs, macro_coeff, s_bar


def _key(seed, config, link) -> tuple:
    coeffs, macro_coeff, s_bar = link
    return seed, config, coeffs.tobytes(), macro_coeff, s_bar


def _estimates(seed, config, links, n_workers) -> dict:
    """Estimates of the distinct link sets, which share one K, keyed by
    (seed, config, link set) as ``estimate``'s ``shared`` is: one Monte Carlo
    pass counts every link set with an interferer."""
    by_key = {_key(seed, config, link): link for link in links}
    # with no interferer the interference is 0 in every trial, and z0 < 0
    # never holds: the count is 0 without a draw
    live = [key for key, (c, m, _) in by_key.items() if np.any(c > 0) or m > 0]
    outages = dict(zip(live, _count_outages(seed, config, [by_key[k] for k in live], n_workers)))
    gamma, n = config.gamma_linear, config.n_trials
    cs = [(np.append(coeffs, m), s_bar) for coeffs, m, s_bar in by_key.values()]
    terms = [gamma * c[c > 0] / s_bar for c, s_bar in cs]
    # log_phi is elementwise, so one call serves the terms of every link set
    ends = np.cumsum([len(t) for t in terms])
    logs = np.split(log_phi(np.concatenate([np.empty(0), *terms])), ends)
    out = {}
    for key, log_terms in zip(by_key, logs):
        # fsum rounds correctly, so an added interferer never lowers P; with no
        # interferer, "0.0 -" gives +0.0 where a bare minus would give -0.0
        p_closed = 0.0 - math.expm1(math.fsum(log_terms.tolist()))
        p_mc = outages.get(key, 0) / n
        ci95 = 1.96 * math.sqrt(p_mc * (1.0 - p_mc) / n)
        out[key] = OutageEstimate(
            p_out_closed=p_closed, p_out_mc=p_mc, ci95_halfwidth=ci95, n_trials=n
        )
    return out


def estimate(
    deployment: Deployment,
    reference_fap: int,
    config: OutageConfig,
    params: PropagationParams,
    seed: int,
    n_workers: int = 1,
    ue_angle: float | None = None,
    shared: dict | None = None,
) -> OutageEstimate:
    """Outage probability of a UE of the reference FAP under the deployment's plan.

    ``p_out_closed`` is the exact outage over the positive femto and macro
    coefficients, whatever the trials; ``p_out_mc`` draws every fading term
    and counts SIR < gamma events.  ``ue_angle`` overrides the UE bearing
    (the density sweep pins it across snapshots of a growing network).
    ``shared`` maps (seed, config, link set) to an estimate already made:
    a hit is returned as is, and a miss is stored there.
    """
    link = _link_set(deployment, reference_fap, config, params, seed, ue_angle)
    shared = {} if shared is None else shared
    key = _key(seed, config, link)
    if key not in shared:
        shared.update(_estimates(seed, config, [link], n_workers))
    return shared[key]


def estimate_variants(deployment: Deployment, variants, config: OutageConfig,
                      params: PropagationParams, seed: int, n_workers: int = 1,
                      ue_angle: float | None = None) -> list[OutageEstimate]:
    """FAP 0's estimate under each (plan, edges) variant of the deployment,
    in order, from one Monte Carlo pass.  Each variant is written with
    ``deployment.assign(plan, edges)`` before its link set is taken and again
    before its ``estimate``, so the deployment ends in the last variant.
    Variants share the positions and the seed, hence the UE bearing, which is
    found once unless ``ue_angle`` pins it."""
    if ue_angle is None:
        ue_angle = _ue_angle(deployment, deployment.fap_by_id(0), config, seed)
    links = []
    for plan, edges in variants:
        deployment.assign(plan, edges)
        links.append(_link_set(deployment, 0, config, params, seed, ue_angle))
    shared = _estimates(seed, config, links, n_workers)
    out = []
    for plan, edges in variants:
        deployment.assign(plan, edges)
        out.append(estimate(deployment, 0, config, params, seed, n_workers, ue_angle=ue_angle,
                            shared=shared))
    return out


@dataclass(frozen=True)
class SweepRow:
    scheme: Scheme
    density: int  # FAP count inside the macro disc
    estimate: OutageEstimate
    seed: int
    variant: str = ""  # e.g. a coloring mode in the SON ablation

    @property
    def label(self) -> str:
        return f"{self.scheme.value}:{self.variant}" if self.variant else self.scheme.value


def _seed_int(seed_seq: np.random.SeedSequence) -> int:
    return int(seed_seq.generate_state(1)[0])


def density_sweep(
    densities: list[int],
    plans: list[FrequencyPlan],
    config: OutageConfig,
    params: PropagationParams,
    seed: int,
    dep_params: DeploymentParams = DeploymentParams(),
    n_workers: int = 1,
) -> list[SweepRow]:
    """Outage estimates over a grid of FAP densities and frequency plans.

    One network densifies in place: positions come from a single placement
    stream (lower densities are prefixes of higher ones), and the UE bearing
    is fixed once against the full final deployment.  At each density every
    plan is a variant of it (see ``estimate_variants``): a static plan with
    edge index 0, every dynamic plan with one column of colors, bootstrapped
    at the lowest density and grown by SON admission (existing colors never
    change), in which the network ends.  Interferers therefore only
    accumulate as density grows, and plans at one density share geometry and
    trial seeds (paired comparison).  Row order: densities outer (as given),
    plans inner.  Densities below 1, and a plan whose sector count is not
    ``dep_params.n_sectors``, raise ValueError.
    """
    if not densities:
        raise ValueError("densities must be non-empty")
    if any(b <= a for a, b in zip(densities, densities[1:])):
        raise ValueError("densities must be strictly increasing")
    dep_seq, dir_seq, *trial_seqs = np.random.SeedSequence(seed).spawn(2 + len(densities))
    dep_seed = _seed_int(dep_seq)
    # placement is sequential: the network starts as the full one's prefix
    dp0 = replace(dep_params, n_faps=densities[0])  # rejects densities below 1
    full = generate(Scenario.D, replace(dep_params, n_faps=densities[-1]), dep_seed)
    if config.ue_direction == "random":
        ue_angle = float(np.random.default_rng(dir_seq).uniform(0.0, 2.0 * math.pi))
    else:
        ue_angle = nearest_fap_angle(full, full.faps[0])

    dep = Deployment(dp0)
    dep.extend(full.positions()[:dp0.n_faps])
    dynamic = next((p for p in plans if p.scheme is Scheme.DYNAMIC_REUSE), None)
    if dynamic is not None:
        # admit_fap reads only its radius, so it serves later admissions
        bootstrap = neighbor_graph(dep, dp0.neighbor_radius_m)
        son.configure_frequencies(dep, bootstrap, dynamic)
        colors = dep.edges().copy()
        sniffs = earlier_neighbors(full.positions(), dp0.neighbor_radius_m, dp0.n_faps)
    rows = []
    for idx, density in enumerate(densities):
        grown = full.positions()[len(dep.faps):density]
        if dynamic is None:
            dep.extend(grown)
        else:
            dep.assign(dynamic, colors)
            for p, sniffed in zip(grown, sniffs):
                son.admit_fap(dep, p, dynamic, bootstrap, sniffed=sniffed)
            colors = dep.edges().copy()
        variants = [(p, colors if p.scheme is Scheme.DYNAMIC_REUSE else 0) for p in plans]
        trial_seed = _seed_int(trial_seqs[idx])
        ests = estimate_variants(dep, variants, config, params, trial_seed, n_workers, ue_angle)
        rows += [SweepRow(p.scheme, density, e, trial_seed) for p, e in zip(plans, ests)]
    if dynamic is not None:
        dep.assign(dynamic, colors)
    return rows


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    """Plot-ready CSV body (no provenance header) for sweep results."""
    lines = [SWEEP_CSV_COLUMNS]
    for row in rows:
        e = row.estimate
        lines.append(
            f"{row.label},{row.density},{e.p_out_closed!r},{e.p_out_mc!r},"
            f"{e.ci95_halfwidth!r},{e.n_trials},{row.seed}"
        )
    return lines
