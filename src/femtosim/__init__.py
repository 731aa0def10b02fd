"""System-level simulator for integrated femtocell/macrocell networks.

Implements four frequency-allocation schemes (dedicated, same, partial, and
sectorized dynamic re-use with SON-coordinated edge bands) and computes the
femto-UE outage probability exactly, as a product of per-interferer Laplace
transforms, with a direct Monte Carlo count as an independent check.
"""

__version__ = "0.1.0"

from .channel import PropagationParams
from .outage import OutageConfig, OutageEstimate, conditional_outage, density_sweep, estimate
from .spectrum import (
    Band,
    EdgeChoice,
    FemtoAllocation,
    FrequencyPlan,
    Scheme,
    UeRegion,
    build_plan,
)
from .topology import Deployment, DeploymentParams, Fap, NeighborGraph, Scenario

__all__ = [
    "Band",
    "Deployment",
    "DeploymentParams",
    "EdgeChoice",
    "Fap",
    "FemtoAllocation",
    "FrequencyPlan",
    "NeighborGraph",
    "OutageConfig",
    "OutageEstimate",
    "PropagationParams",
    "Scenario",
    "Scheme",
    "UeRegion",
    "build_plan",
    "conditional_outage",
    "density_sweep",
    "estimate",
]
