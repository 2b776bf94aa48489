"""Pipeline configuration: one JSON file, strict schema, full resolution.

Unknown keys are rejected anywhere in the tree. Every CLI run writes the
fully resolved configuration (plus a tool version stamp) next to its
outputs; that file reloads as a valid config, so any run can be repeated
exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cleaning import RansacParams
from .errors import ConfigError, check_number
from .files import read_json, write_json
from .fusion import (
    DEFAULT_SCHEDULE,
    FusionParams,
    SimulationConfig,
    constant_schedule,
    geometric_schedule,
)
from .regressors import (
    FAMILIES,
    GRADIENT_BOOSTING_PRESETS,
    ModelSpec,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from .stacking import DEFAULT_RIDGE_ALPHA

DEFAULT_M_TOP = 11

# Section name -> the keys it allows.
_SECTIONS = {
    "cleaning": {f.name for f in fields(RansacParams)},
    "models": {"specs", "seed"},
    "stacking": {"m_top", "alpha"},
    "evaluation": {"k", "inner_k", "seed"},
    "fusion": {f.name for f in fields(FusionParams)},
    "simulation": {f.name for f in fields(SimulationConfig)} - {"params"},
}


def _check_keys(section: dict, allowed: set, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


@dataclass
class PipelineConfig:
    cleaning: RansacParams
    specs: list[ModelSpec]
    m_top: int
    alpha: float
    k: int
    inner_k: int
    seed: int
    fusion: FusionParams
    simulation: SimulationConfig

    def resolved_dict(self) -> dict:
        """Fully resolved, reloadable configuration with version stamp."""
        sim = self.simulation
        return {
            "tool_version": __version__,
            "cleaning": asdict(self.cleaning),
            "models": {"specs": [spec_to_dict(s) for s in self.specs]},
            "stacking": {"m_top": self.m_top, "alpha": self.alpha},
            "evaluation": {"k": self.k, "inner_k": self.inner_k, "seed": self.seed},
            "fusion": asdict(self.fusion),
            "simulation": {
                **{name: getattr(sim, name) for name in _SECTIONS["simulation"]},
                "schedule": {"kind": "explicit", "values": [float(s) for s in sim.schedule]},
                "view_bias": None if sim.view_bias is None else [float(b) for b in sim.view_bias],
            },
        }


def _build_specs(models_section: dict) -> list[ModelSpec]:
    seed = models_section.get("seed", 0)
    raw = models_section.get("specs", list(FAMILIES))
    specs: list[ModelSpec] = []
    for entry in raw:
        if isinstance(entry, str):
            if entry in FAMILIES:
                spec = ModelSpec(name=entry, family=entry, seed=seed)
            elif entry in GRADIENT_BOOSTING_PRESETS:
                spec = ModelSpec(name=entry, family="gradient_boosting",
                                 params=dict(GRADIENT_BOOSTING_PRESETS[entry]), seed=seed)
            else:
                raise ConfigError(f"models.specs: unknown model name {entry!r}")
        elif isinstance(entry, dict):
            _check_keys(entry, {"name", "family", "params", "seed"}, "models.specs[]")
            try:
                spec = spec_from_dict({"seed": seed, **entry})
            except KeyError as exc:
                raise ConfigError(f"models.specs[]: missing key {exc}") from None
        else:
            raise ConfigError(f"models.specs: entries must be names or objects, got {entry!r}")
        specs.append(spec)
    if not specs:
        raise ConfigError("models.specs must name at least one model")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"models.specs: duplicate names {names}")
    for spec in specs:
        try:
            validate_spec(spec)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
    return specs


def _build_schedule(section: dict, steps: int) -> np.ndarray:
    _check_keys(section, {"kind", "sigma0", "decay", "values"}, "simulation.schedule")
    kind = section.get("kind", "geometric")
    values = {**DEFAULT_SCHEDULE, **section}
    try:
        if kind == "geometric":
            return geometric_schedule(values["sigma0"], values["decay"], steps)
        if kind == "constant":
            return constant_schedule(values["sigma0"], steps)
        if kind == "explicit":
            if "values" not in section:
                raise ConfigError("simulation.schedule: explicit schedule needs 'values'")
            return np.asarray(section["values"], dtype=np.float64)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"simulation.schedule: {exc}") from exc
    raise ConfigError(f"simulation.schedule.kind must be geometric/constant/explicit, got {kind!r}")


def _build(cls, name: str, section: dict, **extra):
    """``cls(**section, **extra)``, any error a ConfigError naming the section."""
    try:
        return cls(**section, **extra)
    except Exception as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_config(raw: dict) -> PipelineConfig:
    """Validate a raw JSON object and resolve every default."""
    _check_keys(raw, {"tool_version", *_SECTIONS}, "config")
    sections = {name: raw.get(name, {}) for name in _SECTIONS}
    for name, section in sections.items():
        _check_keys(section, _SECTIONS[name], name)

    cleaning = _build(RansacParams, "cleaning", sections["cleaning"])
    specs = _build_specs(sections["models"])

    stacking = sections["stacking"]
    m_top = stacking.get("m_top")
    if m_top is None:
        m_top = min(DEFAULT_M_TOP, len(specs))
    check_number("stacking.m_top", m_top, low=1, integer=True, error=ConfigError)
    if m_top > len(specs):
        raise ConfigError(f"stacking.m_top must be at most {len(specs)}, got {m_top!r}")
    alpha = stacking.get("alpha", DEFAULT_RIDGE_ALPHA)
    check_number("stacking.alpha", alpha, low=0, error=ConfigError)

    evaluation = sections["evaluation"]
    k = evaluation.get("k", 5)
    inner_k = evaluation.get("inner_k", 5)
    seed = evaluation.get("seed", 0)
    check_number("evaluation.k", k, low=2, integer=True, error=ConfigError)
    check_number("evaluation.inner_k", inner_k, low=2, integer=True, error=ConfigError)
    check_number("evaluation.seed", seed, low=0, integer=True, error=ConfigError)

    fusion = _build(FusionParams, "fusion", sections["fusion"])
    sim = dict(sections["simulation"])
    steps = sim.get("steps", SimulationConfig.steps)
    check_number("simulation.steps", steps, low=1, integer=True, error=ConfigError)
    sim["schedule"] = _build_schedule(sim.get("schedule", {}), steps)
    simulation = _build(SimulationConfig, "simulation", sim, params=fusion)

    return PipelineConfig(cleaning=cleaning, specs=specs, m_top=m_top, alpha=float(alpha),
                          k=k, inner_k=inner_k, seed=seed, fusion=fusion, simulation=simulation)


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Read a config file (or start empty), apply overrides, validate.

    Overrides use dotted paths like "evaluation.seed"; None values are
    skipped so unset CLI flags leave the file untouched.
    """
    raw: dict = {}
    if path is not None:
        raw = read_json(path, "config", ConfigError)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
    raw.pop("tool_version", None)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        keys = dotted.split(".")
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted}: {key} is not an object")
        node[keys[-1]] = value
    return build_config(raw)


def write_resolved_config(config: PipelineConfig, out_dir: str | Path) -> Path:
    """Drop config.resolved.json (with tool version stamp) into out_dir."""
    out = Path(out_dir) / "config.resolved.json"
    write_json(out, config.resolved_dict())
    return out
