"""Experiment configuration: flat key=value files with typed parsing.

Defaults mirror the dense-deployment experiment setup (1000 m macrocell, 10 m
femtocells, 900 MHz propagation constants, 1.5 W / 10 mW transmit powers, 9 dB
SIR threshold, 100 m neighbor radius, reference FAP 200 m from the macro BS,
UE at 5 m).  A key that names a field of ``DeploymentParams``,
``PropagationParams`` or ``OutageConfig`` takes that field's default and
reaches it by name; the band, schemes, splits, densities, seed and output path
are experiment-only.  Unknown keys are rejected so stale configs fail loudly,
and the canonical serialized form is hashable for provenance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .channel import PropagationParams
from .outage import OutageConfig
from .spectrum import Band, FrequencyPlan, Scheme, UeRegion, build_plan
from .topology import MIN_DISTANCE_M, DeploymentParams, check_domain

__all__ = ["ConfigError", "ExperimentConfig", "config_hash", "effective_text", "parse_text"]


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, type, or value)."""


def _member(enum, key: str, token: str):
    """The member of ``enum`` whose value is ``token``, the value of ``key``."""
    try:
        return enum(token)
    except ValueError:
        choices = ", ".join(m.value for m in enum)
        raise ValueError(f"{key} must be one of {choices}, got {token!r}") from None


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
    macro_radius_m: float = DeploymentParams.macro_radius_m
    femto_radius_m: float = DeploymentParams.femto_radius_m
    reference_distance_m: float = DeploymentParams.reference_distance_m
    neighbor_radius_m: float = DeploymentParams.neighbor_radius_m
    n_sectors: int = DeploymentParams.n_sectors
    # radio
    macro_tx_power_w: float = DeploymentParams.macro_tx_power_w
    fap_tx_power_w: float = DeploymentParams.fap_tx_power_w
    gamma_db: float = OutageConfig.gamma_db
    eta_desired: float = PropagationParams.eta_desired
    eta_femto: float = PropagationParams.eta_femto
    eta_macro: float = PropagationParams.eta_macro
    p0_femto: float = PropagationParams.p0_femto
    p0_macro: float = PropagationParams.p0_macro
    wall_loss_db: float = PropagationParams.wall_loss_db
    walls_between_femtos: int = PropagationParams.walls_between_femtos
    # spectrum
    band_low_hz: int = 0
    band_high_hz: int = 60_000_000
    femto_fraction: float = 1.0 / 3.0
    edge_split: float = 0.5
    # experiment grid
    schemes: tuple[str, ...] = ("dedicated", "same", "partial", "dynamic")
    densities: tuple[int, ...] = (100, 300, 1000, 3000)
    n_faps: int = DeploymentParams.n_faps
    # UE / Monte Carlo
    ue_distance_m: float = OutageConfig.ue_distance_m
    ue_region: str = OutageConfig.ue_region.value
    ue_direction: str = OutageConfig.ue_direction
    n_trials: int = OutageConfig.n_trials
    n_shards: int = OutageConfig.n_shards
    seed: int = 2
    # output
    out: str = ""

    def validate(self) -> None:
        """Raise ConfigError unless every experiment can run on this config.

        Builds the objects the experiments build (their constructors check
        each key's domain, see ``topology.check_domain``) and checks here only
        the rules across keys and lists.  Every message names its key."""
        problems = []
        if not self.densities:
            problems.append("densities must be non-empty")
        elif any(b <= a for a, b in zip(self.densities, self.densities[1:])):
            problems.append("densities must be strictly increasing")
        elif self.densities[0] < 1:
            problems.append(f"densities must be at least 1, got {self.densities[0]}")
        if not self.schemes:
            problems.append("schemes must be non-empty")
        if not self.ue_distance_m <= self.femto_radius_m:
            problems.append("ue_distance_m must not exceed femto_radius_m")
        # keeps the UE at least 1 mm from the macro BS on every bearing
        if not abs(self.reference_distance_m - self.ue_distance_m) >= MIN_DISTANCE_M:
            problems.append("reference_distance_m and ue_distance_m must differ by 1 mm or more")

        def attempt(build, *args):
            try:
                build(*args)
            except ValueError as exc:
                problems.append(str(exc))

        attempt(self.scheme_list)
        attempt(self.propagation)
        attempt(self.outage_config)
        attempt(self.deployment_params)
        attempt(check_domain, "seed", self.seed, 0)
        if not self.band_low_hz < self.band_high_hz:
            problems.append(f"band_low_hz must be below band_high_hz, got "
                            f"[{self.band_low_hz}, {self.band_high_hz})")
        else:
            # every scheme, not only the selected ones: son-ablation always
            # builds the dynamic re-use plan
            for scheme in Scheme:
                attempt(self.plan, scheme)
        if problems:
            # one message per distinct problem: two schemes may fail alike
            raise ConfigError("; ".join(dict.fromkeys(problems)))

    # --- adapters to the module-level parameter objects ---------------------

    def _build(self, cls, **overrides):
        """``cls`` from the keys that name its fields, and ``overrides``."""
        by_name = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in _FIELD_TYPES}
        return cls(**{**by_name, **overrides})

    def deployment_params(self) -> DeploymentParams:
        return self._build(DeploymentParams)

    def propagation(self) -> PropagationParams:
        return self._build(PropagationParams)

    def outage_config(self) -> OutageConfig:
        return self._build(OutageConfig, ue_region=_member(UeRegion, "ue_region", self.ue_region))

    def total_band(self) -> Band:
        return Band(self.band_low_hz, self.band_high_hz)

    def scheme_list(self) -> list[Scheme]:
        return [_member(Scheme, "schemes", tok) for tok in self.schemes]

    def plan(self, scheme: Scheme) -> FrequencyPlan:
        """The ``scheme`` plan of this config's band, sectors and splits; every
        experiment builds its plans here."""
        return build_plan(scheme, self.total_band(), self.n_sectors,
                          femto_fraction=self.femto_fraction, edge_split=self.edge_split)


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
