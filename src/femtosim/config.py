"""Experiment configuration: flat key=value files with typed parsing.

Every key has a documented default mirroring the dense-deployment experiment
setup (1000 m macrocell, 10 m femtocells, 900 MHz propagation constants,
1.5 W / 10 mW transmit powers, 9 dB SIR threshold, 100 m neighbor radius,
reference FAP 200 m from the macro BS, UE at 5 m).  Unknown keys are rejected
so stale configs fail loudly, and the canonical serialized form is hashable
for provenance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import PropagationParams
from .outage import OutageConfig
from .spectrum import Band, Scheme, UeRegion, build_plan
from .topology import DeploymentParams

__all__ = ["ConfigError", "ExperimentConfig", "config_hash", "effective_text", "parse_text"]


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, type, or value)."""


_SCHEME_TOKENS = {s.value: s for s in Scheme}
# floor of ue_distance_m in ulps of reference_distance_m (see validate)
_UE_OFFSET_ULPS = 2e6


def _parse_db(raw: str) -> float:
    raw = raw.strip()
    if raw.lower().endswith("db"):
        raw = raw[:-2].strip()
    return float(raw)


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    # geometry (Table-2 style assumptions)
    macro_radius_m: float = 1000.0
    femto_radius_m: float = 10.0
    reference_distance_m: float = 200.0
    neighbor_radius_m: float = 100.0
    n_sectors: int = 3
    # radio
    macro_tx_power_w: float = 1.5
    fap_tx_power_w: float = 0.01
    gamma_db: float = 9.0
    eta_desired: float = 2.0
    eta_femto: float = 2.0
    eta_macro: float = 3.5
    p0_femto: float = 0.000702646130511537  # Friis constant at 900 MHz
    p0_macro: float = 0.005011872336272714  # 128 dB at 1 km, eta 3.5
    wall_loss_db: float = 10.0
    walls_between_femtos: int = 1
    # spectrum
    band_low_hz: int = 0
    band_high_hz: int = 60_000_000
    femto_fraction: float = 1.0 / 3.0
    edge_split: float = 0.5
    # experiment grid
    schemes: tuple[str, ...] = ("dedicated", "same", "partial", "dynamic")
    densities: tuple[int, ...] = (100, 300, 1000, 3000)
    n_faps: int = 1000
    # UE / Monte Carlo
    ue_distance_m: float = 5.0
    ue_region: str = "edge"
    ue_direction: str = "nearest"
    n_trials: int = 100_000
    n_shards: int = 16
    seed: int = 2
    # output
    out: str = ""

    def validate(self) -> None:
        """Raise ConfigError unless every experiment can run on this config.

        Builds the objects the experiments build (their constructors check
        their own values) and checks here only what no constructor does."""
        problems = [
            f"{f.name} must not be NaN"
            for f in fields(self)
            if isinstance(getattr(self, f.name), float) and math.isnan(getattr(self, f.name))
        ]
        if not self.densities:
            problems.append("densities must be non-empty")
        elif any(b <= a for a, b in zip(self.densities, self.densities[1:])):
            problems.append("densities must be strictly increasing")
        if not self.schemes:
            problems.append("schemes must be non-empty")
        for tok in self.schemes:
            if tok not in _SCHEME_TOKENS:
                problems.append(f"unknown scheme {tok!r}")
        if not self.ue_distance_m <= self.femto_radius_m:
            problems.append("ue_distance_m must not exceed femto_radius_m")

        def attempt(build, *args, **kwargs):
            try:
                return build(*args, **kwargs)
            except ValueError as exc:
                problems.append(str(exc))

        prop = attempt(self.propagation)
        attempt(self.outage_config)
        if prop is not None and 0 < self.reference_distance_m < math.inf:
            # s_bar takes the UE offset's norm d to the power -eta_desired:
            # keep d * d a normal float64 (>= 2**-1022) and d^-eta <= 2**1023.
            # The UE sits at FAP 0 (x = reference_distance_m) plus the offset,
            # and the channel takes the offset back as a difference, off by
            # the rounding of that sum: at most one ulp of x, when it rounds
            # up into the next binade.  2e6 ulps keep the distance it uses
            # within 5e-7 of d on every bearing, and so its d^-eta finite.
            d_min = max(2.0 ** -511, 2.0 ** (-1023 / prop.eta_desired),
                        _UE_OFFSET_ULPS * math.ulp(self.reference_distance_m))
            if 0 < self.ue_distance_m < d_min:
                problems.append(f"ue_distance_m must be at least {d_min:.4g} m")
        for n in (self.n_faps, *self.densities):
            attempt(self.deployment_params, n)
        attempt(np.random.SeedSequence, self.seed)
        band = attempt(self.total_band)
        if band is not None:
            # every scheme, not only the selected ones: son-ablation always
            # builds the dynamic re-use plan
            for scheme in Scheme:
                attempt(build_plan, scheme, band, self.n_sectors,
                        femto_fraction=self.femto_fraction, edge_split=self.edge_split)
        if problems:
            # one message per distinct problem: a geometry value is checked
            # once for n_faps and once per density
            raise ConfigError("; ".join(dict.fromkeys(problems)))

    # --- adapters to the module-level parameter objects ---------------------

    def total_band(self) -> Band:
        return Band(self.band_low_hz, self.band_high_hz)

    def scheme_list(self) -> list[Scheme]:
        return [_SCHEME_TOKENS[tok] for tok in self.schemes]

    def deployment_params(self, n_faps: int | None = None) -> DeploymentParams:
        return DeploymentParams(
            n_faps=self.n_faps if n_faps is None else n_faps,
            macro_radius_m=self.macro_radius_m,
            femto_radius_m=self.femto_radius_m,
            neighbor_radius_m=self.neighbor_radius_m,
            reference_distance_m=self.reference_distance_m,
            macro_tx_power_w=self.macro_tx_power_w,
            fap_tx_power_w=self.fap_tx_power_w,
            n_sectors=self.n_sectors,
        )

    def propagation(self) -> PropagationParams:
        return PropagationParams(
            eta_desired=self.eta_desired,
            eta_femto_interf=self.eta_femto,
            eta_macro=self.eta_macro,
            p0_femto=self.p0_femto,
            p0_macro=self.p0_macro,
            wall_loss_db=self.wall_loss_db,
            walls_between_femtos=self.walls_between_femtos,
        )

    def outage_config(self) -> OutageConfig:
        return OutageConfig(
            gamma_db=self.gamma_db,
            n_trials=self.n_trials,
            ue_distance=self.ue_distance_m,
            ue_region=UeRegion(self.ue_region),
            n_shards=self.n_shards,
            ue_direction=self.ue_direction,
        )


def _parser_for(name: str, typ: str):
    if name.endswith("_db"):
        return _parse_db
    if typ == "tuple[int, ...]":
        return _parse_int_list
    if typ == "tuple[str, ...]":
        return _parse_str_list
    if typ == "int":
        return int
    if typ == "float":
        return float
    return lambda raw: raw.strip()


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse key=value lines ('#' comments and blank lines allowed) on top of
    ``base`` (defaults when omitted).  Unknown keys raise ConfigError."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parser_for(key, _FIELD_TYPES[key])(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    base = base if base is not None else ExperimentConfig()
    return replace(base, **values)


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply repeatable command-line 'key=value' overrides."""
    return parse_text("\n".join(pairs), base=cfg)


def effective_text(cfg: ExperimentConfig, include_out: bool = True) -> str:
    """Canonical serialized form: sorted key=value lines.  Re-parsing it
    reproduces the config exactly.  ``include_out=False`` drops the output
    path, which is a run artifact rather than an experiment input."""
    lines = [
        f"{f.name}={_fmt(getattr(cfg, f.name))}"
        for f in fields(cfg)
        if include_out or f.name != "out"
    ]
    return "\n".join(sorted(lines)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experiment inputs (everything except the output path)."""
    return hashlib.sha256(effective_text(cfg, include_out=False).encode()).hexdigest()[:16]
