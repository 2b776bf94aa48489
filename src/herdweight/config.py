"""Pipeline configuration: one JSON file, strict schema, full resolution.

Unknown keys are rejected anywhere in the tree. Every CLI run writes the
fully resolved configuration (plus a tool version stamp) next to its
outputs; that file reloads as a valid config, so any run can be repeated
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cleaning import RansacParams
from .errors import ConfigError
from .files import open_fresh
from .fusion import (
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

DEFAULT_M_TOP = 11

_TOP_KEYS = {"tool_version", "cleaning", "models", "stacking", "evaluation", "fusion", "simulation"}
_CLEANING_KEYS = {"inlier_threshold", "threshold_is_relative", "max_iterations",
                  "min_plane_fraction", "max_planes", "seed"}
_MODELS_KEYS = {"specs", "seed"}
_STACKING_KEYS = {"m_top", "alpha"}
_EVALUATION_KEYS = {"k", "inner_k", "seed"}
_FUSION_KEYS = {"beta", "epsilon", "center"}
_SIMULATION_KEYS = {"views", "locations", "channels", "steps", "seed", "contraction",
                    "schedule", "view_bias", "target_scale"}
_SCHEDULE_KEYS = {"kind", "sigma0", "decay", "values"}


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
            "cleaning": {
                "inlier_threshold": self.cleaning.inlier_threshold,
                "threshold_is_relative": self.cleaning.threshold_is_relative,
                "max_iterations": self.cleaning.max_iterations,
                "min_plane_fraction": self.cleaning.min_plane_fraction,
                "max_planes": self.cleaning.max_planes,
                "seed": self.cleaning.seed,
            },
            "models": {"specs": [spec_to_dict(s) for s in self.specs]},
            "stacking": {"m_top": self.m_top, "alpha": self.alpha},
            "evaluation": {"k": self.k, "inner_k": self.inner_k, "seed": self.seed},
            "fusion": {"beta": self.fusion.beta, "epsilon": self.fusion.epsilon,
                       "center": self.fusion.center},
            "simulation": {
                "views": sim.views, "locations": sim.locations, "channels": sim.channels,
                "steps": sim.steps, "seed": sim.seed, "contraction": sim.contraction,
                "schedule": {"kind": "explicit", "values": [float(s) for s in sim.schedule]},
                "view_bias": None if sim.view_bias is None else [float(b) for b in sim.view_bias],
                "target_scale": sim.target_scale,
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
    _check_keys(section, _SCHEDULE_KEYS, "simulation.schedule")
    kind = section.get("kind", "geometric")
    try:
        if kind == "geometric":
            return geometric_schedule(section.get("sigma0", 1.0), section.get("decay", 0.88), steps)
        if kind == "constant":
            return constant_schedule(section.get("sigma0", 1.0), steps)
        if kind == "explicit":
            if "values" not in section:
                raise ConfigError("simulation.schedule: explicit schedule needs 'values'")
            return np.asarray(section["values"], dtype=np.float64)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"simulation.schedule: {exc}") from exc
    raise ConfigError(f"simulation.schedule.kind must be geometric/constant/explicit, got {kind!r}")


def build_config(raw: dict) -> PipelineConfig:
    """Validate a raw JSON object and resolve every default."""
    _check_keys(raw, _TOP_KEYS, "config")
    cleaning_raw = raw.get("cleaning", {})
    _check_keys(cleaning_raw, _CLEANING_KEYS, "cleaning")
    models_raw = raw.get("models", {})
    _check_keys(models_raw, _MODELS_KEYS, "models")
    stacking_raw = raw.get("stacking", {})
    _check_keys(stacking_raw, _STACKING_KEYS, "stacking")
    eval_raw = raw.get("evaluation", {})
    _check_keys(eval_raw, _EVALUATION_KEYS, "evaluation")
    fusion_raw = raw.get("fusion", {})
    _check_keys(fusion_raw, _FUSION_KEYS, "fusion")
    sim_raw = raw.get("simulation", {})
    _check_keys(sim_raw, _SIMULATION_KEYS, "simulation")

    try:
        cleaning = RansacParams(**cleaning_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cleaning: {exc}") from exc

    specs = _build_specs(models_raw)

    m_top = stacking_raw.get("m_top")
    if m_top is None:
        m_top = min(DEFAULT_M_TOP, len(specs))
    if not isinstance(m_top, int) or not 1 <= m_top <= len(specs):
        raise ConfigError(f"stacking.m_top must be an integer in [1, {len(specs)}], got {m_top!r}")
    alpha = stacking_raw.get("alpha", 1.0)
    if not isinstance(alpha, (int, float)) or alpha < 0:
        raise ConfigError(f"stacking.alpha must be >= 0, got {alpha!r}")

    k = eval_raw.get("k", 5)
    inner_k = eval_raw.get("inner_k", 5)
    seed = eval_raw.get("seed", 0)
    for name, val in (("k", k), ("inner_k", inner_k)):
        if not isinstance(val, int) or val < 2:
            raise ConfigError(f"evaluation.{name} must be an integer >= 2, got {val!r}")

    try:
        fusion = FusionParams(**fusion_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fusion: {exc}") from exc

    steps = sim_raw.get("steps", 60)
    if not isinstance(steps, int) or steps < 1:
        raise ConfigError(f"simulation.steps must be an integer >= 1, got {steps!r}")
    schedule = _build_schedule(sim_raw.get("schedule", {}), steps)
    try:
        simulation = SimulationConfig(
            views=sim_raw.get("views", 3),
            locations=sim_raw.get("locations", 64),
            channels=sim_raw.get("channels", 8),
            steps=steps,
            schedule=schedule,
            params=fusion,
            seed=sim_raw.get("seed", 0),
            contraction=sim_raw.get("contraction", 0.2),
            view_bias=sim_raw.get("view_bias"),
            target_scale=sim_raw.get("target_scale", 1.0),
        )
    except Exception as exc:
        raise ConfigError(f"simulation: {exc}") from exc

    return PipelineConfig(cleaning=cleaning, specs=specs, m_top=m_top, alpha=float(alpha),
                          k=k, inner_k=inner_k, seed=seed, fusion=fusion, simulation=simulation)


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Read a config file (or start empty), apply overrides, validate.

    Overrides use dotted paths like "evaluation.seed"; None values are
    skipped so unset CLI flags leave the file untouched.
    """
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
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
    with open_fresh(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(config.resolved_dict(), indent=2, sort_keys=True) + "\n")
    return out
