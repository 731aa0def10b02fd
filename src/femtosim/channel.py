"""Received-power models for the desired and interfering downlinks.

Every link follows P_R = P_T * P0 * d^(-eta) * xi * Z with unit-mean
exponential slow (xi) and fast (Z) fading; the desired link is same-indoor so
its slow fading is dropped and its deterministic part is the mean power
``s_bar``.  Femto-to-femto interference additionally crosses a configurable
number of walls.  Each interference term carries its binary co-channel flag,
X per neighbor FAP and Y for the macro sector, both from one
``spectrum.cochannel`` call on the reference's (sector, edge index).  All
powers are linear watts internally; dB only appears at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import UeRegion, cochannel
from .topology import Deployment, Fap, check_domain

__all__ = [
    "PropagationParams",
    "link_coefficients",
    "mean_desired_power",
]


@dataclass(frozen=True)
class PropagationParams:
    """Path-loss constants per link class, each field named as its key.

    The defaults are model choices, not reported values: free-space-like
    indoor links (eta = 2, P0 from the Friis constant at the carrier) and a
    macro constant calibrated to ~128 dB path loss at 1 km.
    """

    eta_desired: float = 2.0  # serving FAP -> its UE
    eta_femto: float = 2.0  # neighbor FAP -> UE
    eta_macro: float = 3.5  # macro BS -> UE
    p0_femto: float = 0.000702646130511537  # Friis (c / 4 pi f)^2 at 900 MHz
    p0_macro: float = 0.005011872336272714  # 128 dB at 1 km, eta 3.5
    wall_loss_db: float = 10.0
    walls_between_femtos: int = 1

    def __post_init__(self):
        for name in ("eta_desired", "eta_femto", "eta_macro"):
            check_domain(name, getattr(self, name), 1.5, 6.0)
        for name in ("p0_femto", "p0_macro"):
            check_domain(name, getattr(self, name), 1e-20, 1.0)
        if not 0 <= self.wall_loss_db < math.inf:
            raise ValueError(f"wall_loss_db must be finite and >= 0, got {self.wall_loss_db!r}")
        check_domain("walls_between_femtos", self.walls_between_femtos, 0, 100)

    @property
    def wall_attenuation(self) -> float:
        return 10 ** (-self.walls_between_femtos * self.wall_loss_db / 10.0)


def mean_desired_power(fap: Fap, ue_distance: float, params: PropagationParams) -> float:
    """Mean received power s_bar = P_T * P0f * d^(-eta1): no wall loss and no
    fading factor on the same-indoor desired link."""
    if ue_distance <= 0:
        raise ValueError("UE distance must be positive")
    return fap.tx_power * params.p0_femto * ue_distance ** (-params.eta_desired)


def neighbor_ids(deployment: Deployment, reference_fap: Fap) -> list[int]:
    """Ids of FAPs within the deployment's neighbor radius of the reference
    FAP (center-to-center), in ascending id order."""
    ids = deployment.near(reference_fap.position, deployment.params.neighbor_radius_m)
    return ids[ids != reference_fap.id].tolist()


def link_coefficients(
    deployment: Deployment,
    reference_fap: Fap,
    ue_position: np.ndarray,
    ue_region: UeRegion,
    params: PropagationParams,
) -> tuple[list[int], np.ndarray, float, float]:
    """Deterministic per-link factors, i.e. everything except the fading draws.

    Returns ``(ids, femto_coeffs, macro_coeff, s_bar)`` where each femto
    coefficient is P_T * P0f * d_i^(-eta2) * wall_attenuation * X_i (exactly
    0.0 for non-co-channel neighbors), the macro coefficient carries the Y
    flag the same way, and distances are measured from the UE position.
    The flags come from the deployment's plan.  Raises ValueError when no
    plan is bound or a FAP has no allocation.
    """
    plan = deployment.bound_plan()
    ue = np.asarray(ue_position, dtype=float)
    ids = neighbor_ids(deployment, reference_fap)
    linked = [reference_fap.id, *ids]
    sectors, edges = deployment.sectors()[linked], deployment.edges()[linked]
    if np.any(edges < 0):
        raise ValueError(f"FAP {linked[np.argmin(edges)]} has no allocation; apply a plan first")
    x_row, y = cochannel(plan, ue_region, int(sectors[0]), int(edges[0]))
    # a neighbor's X flag depends only on its sector and edge index
    x = x_row[sectors[1:], edges[1:]]
    positions, tx_powers = deployment.positions(), deployment.tx_powers()
    # distances are sqrt(dx * dx + dy * dy) in float64, the neighbor test's rule;
    # a BLAS norm's last bit hangs on the kernel that numpy picks per CPU
    coeffs = np.zeros(len(ids))
    for k in np.flatnonzero(x).tolist():
        dx, dy = (positions[ids[k]] - ue).tolist()
        coeffs[k] = (
            float(tx_powers[ids[k]])
            * params.p0_femto
            * math.sqrt(dx * dx + dy * dy) ** (-params.eta_femto)
            * params.wall_attenuation
        )
    macro_coeff = 0.0
    if deployment.macro and y:
        dx, dy = ue.tolist()  # the macro BS sits at the origin
        d_m = math.sqrt(dx * dx + dy * dy)
        macro_coeff = deployment.params.macro_tx_power_w * params.p0_macro * d_m ** (
            -params.eta_macro)
    dx, dy = (reference_fap.position - ue).tolist()
    s_bar = mean_desired_power(reference_fap, math.sqrt(dx * dx + dy * dy), params)
    return ids, coeffs, macro_coeff, s_bar
