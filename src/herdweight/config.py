"""Pipeline configuration: one JSON file, strict schema, full resolution.

Unknown keys are rejected anywhere in the tree. Every CLI run writes the
fully resolved configuration (plus a tool version stamp) next to its
outputs; that file reloads as a valid config, so any run can be repeated
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cleaning import RansacParams
from .errors import ConfigError, as_numbers, check_settings, setting
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


@dataclass(frozen=True)
class StackingParams:
    """Stack size (None: the fewer of ``DEFAULT_M_TOP`` and the specs) and ridge penalty."""

    m_top: int | None = setting(None, low=1, nullable=True)
    alpha: float = setting(DEFAULT_RIDGE_ALPHA, low=0)

    __post_init__ = check_settings


@dataclass(frozen=True)
class EvaluationParams:
    """Outer and inner fold counts of nested CV, and the seed of its folds."""

    k: int = setting(5, low=2)
    inner_k: int = setting(5, low=2)
    seed: int = setting(0, low=0)

    __post_init__ = check_settings


# Section name -> the class whose fields are its keys; "models" is the spec list.
SETTINGS = {"cleaning": RansacParams, "stacking": StackingParams, "evaluation": EvaluationParams,
            "fusion": FusionParams, "simulation": SimulationConfig}
# Section name -> the keys it allows. A simulation's fusion params are the fusion section.
_SECTIONS = {"models": {"specs", "seed"},
             **{name: {f.name for f in fields(cls)} - {"params"} for name, cls in SETTINGS.items()}}


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
    stacking: StackingParams
    evaluation: EvaluationParams
    fusion: FusionParams
    simulation: SimulationConfig

    def resolved_dict(self) -> dict:
        """Fully resolved, reloadable configuration with version stamp."""
        resolved = {name: {key: getattr(getattr(self, name), key) for key in _SECTIONS[name]}
                    for name in SETTINGS}
        sim = resolved["simulation"]
        sim["schedule"] = {"kind": "explicit", "values": self.simulation.schedule.tolist()}
        if sim["view_bias"] is not None:
            sim["view_bias"] = sim["view_bias"].tolist()
        return {"tool_version": __version__,
                "models": {"specs": [spec_to_dict(s) for s in self.specs]}, **resolved}


def _build_specs(models_section: dict) -> list[ModelSpec]:
    seed = models_section.get("seed", 0)
    raw = models_section.get("specs", list(FAMILIES))
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"models.specs must be a list naming at least one model, got {raw!r}")
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
            except ValueError as exc:
                raise ConfigError(f"models.specs[]: {exc}") from None
        else:
            raise ConfigError(f"models.specs: entries must be names or objects, got {entry!r}")
        specs.append(spec)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"models.specs: duplicate names {names}")
    for spec in specs:
        try:
            validate_spec(spec)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
    return specs


# Schedule kind -> the keys besides "kind" that it reads.
_SCHEDULE_KEYS = {"geometric": {"sigma0", "decay"}, "constant": {"sigma0"}, "explicit": {"values"}}


def _build_schedule(section: dict, steps: int) -> np.ndarray:
    _check_keys(section, {"kind", "sigma0", "decay", "values"}, "simulation.schedule")
    kind = section.get("kind", "geometric")
    if not isinstance(kind, str) or kind not in _SCHEDULE_KEYS:
        raise ConfigError(f"simulation.schedule.kind must be geometric/constant/explicit, got {kind!r}")
    for key in sorted(set(section) - {"kind"} - _SCHEDULE_KEYS[kind]):
        raise ConfigError(f"simulation.schedule: a {kind} schedule does not read key {key!r}")
    values = {**DEFAULT_SCHEDULE, **section}
    try:
        if kind == "geometric":
            return geometric_schedule(values["sigma0"], values["decay"], steps)
        if kind == "constant":
            return constant_schedule(values["sigma0"], steps)
        return as_numbers("values", section["values"])
    except KeyError:   # only "values" can be missing
        raise ConfigError("simulation.schedule: explicit schedule needs 'values'") from None
    except Exception as exc:
        raise ConfigError(f"simulation.schedule: {exc}") from exc


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

    specs = _build_specs(sections["models"])
    built = {name: _build(cls, name, sections[name])
             for name, cls in SETTINGS.items() if name != "simulation"}
    stacking = built["stacking"]
    m_top = min(DEFAULT_M_TOP, len(specs)) if stacking.m_top is None else stacking.m_top
    if m_top > len(specs):
        raise ConfigError(f"stacking.m_top must be at most {len(specs)}, got {m_top!r}")
    built["stacking"] = StackingParams(m_top, float(stacking.alpha))
    # A schedule has one value per step: build it once steps is checked.
    sim = dict(sections["simulation"])
    schedule = sim.pop("schedule", {})
    steps = _build(SimulationConfig, "simulation", sim, params=built["fusion"]).steps
    sim["schedule"] = _build_schedule(schedule, steps)
    built["simulation"] = _build(SimulationConfig, "simulation", sim, params=built["fusion"])
    return PipelineConfig(specs=specs, **built)


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
