"""Model specs, input validation, and the family table behind ``fit``.

Eleven families share the contract, each declared once in the table at
the bottom of this module: linear-ish families (ols, ridge, lasso,
elastic_net, huber) and knn standardise features internally; tree
families work on raw features. Fitting is deterministic given
(spec, X, y) — tree randomness is driven by per-tree streams derived
from (seed, tree index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ..errors import (
    DimensionMismatch,
    InvalidHyperparameter,
    NonFiniteInput,
    NonPositiveTarget,
    check_number,
)

# Stand-ins for third-party boosting variants: same family, three profiles.
GRADIENT_BOOSTING_PRESETS: Mapping[str, dict] = MappingProxyType(
    {
        "gbA": {"n_rounds": 300, "max_depth": 3, "learning_rate": 0.05},
        "gbB": {"n_rounds": 500, "max_depth": 4, "learning_rate": 0.05},
        "gbC": {"n_rounds": 800, "max_depth": 6, "learning_rate": 0.05},
    }
)


@dataclass(frozen=True)
class ModelSpec:
    """A named, seeded configuration of one model family."""

    name: str
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def resolved_params(self) -> dict:
        merged = dict(DEFAULT_FAMILY_PARAMS[self.family])
        merged.update(self.params)
        return merged


def default_model_specs(seed: int = 0) -> list[ModelSpec]:
    """The eleven default base models, in declaration (tie-break) order."""
    return [ModelSpec(name=f, family=f, seed=seed) for f in FAMILIES]


_check_int = partial(check_number, integer=True, error=InvalidHyperparameter)


def validate_spec(spec: ModelSpec) -> None:
    """Raise InvalidHyperparameter for unknown families/keys or bad ranges."""
    if spec.family not in FAMILIES:
        raise InvalidHyperparameter(f"unknown model family {spec.family!r}")
    known = set(DEFAULT_FAMILY_PARAMS[spec.family])
    extra = set(spec.params) - known
    if extra:
        raise InvalidHyperparameter(f"{spec.name}: unknown hyperparameters {sorted(extra)} for family {spec.family!r}")
    _check_int(f"{spec.name}: seed", spec.seed, low=0)
    p = spec.resolved_params()
    for key in ("alpha", "l1_ratio", "tol", "delta", "learning_rate"):   # real-valued
        if key in p:
            check_number(f"{spec.name}: {key}", p[key], error=InvalidHyperparameter)
    if "alpha" in p and p["alpha"] < 0:
        raise InvalidHyperparameter(f"{spec.name}: alpha must be >= 0")
    if "l1_ratio" in p and not 0.0 <= p["l1_ratio"] <= 1.0:
        raise InvalidHyperparameter(f"{spec.name}: l1_ratio must be in [0, 1]")
    for key in ("tol", "delta"):
        if key in p and p[key] <= 0:
            raise InvalidHyperparameter(f"{spec.name}: {key} must be > 0, got {p[key]!r}")
    if "max_sweeps" in p:
        _check_int(f"{spec.name}: max_sweeps", p["max_sweeps"], low=1)
    if "max_iter" in p:
        _check_int(f"{spec.name}: max_iter", p["max_iter"], low=1)
    if "k" in p:
        _check_int(f"{spec.name}: k", p["k"], low=1)
    if "max_depth" in p and p["max_depth"] is not None:
        _check_int(f"{spec.name}: max_depth", p["max_depth"], low=1)
    if "n_trees" in p:
        _check_int(f"{spec.name}: n_trees", p["n_trees"], low=1)
    if "n_rounds" in p:
        low = 0 if spec.family == "gradient_boosting" else 1
        _check_int(f"{spec.name}: n_rounds", p["n_rounds"], low=low)
    if "learning_rate" in p and not 0.0 < p["learning_rate"] <= 1.0:
        raise InvalidHyperparameter(f"{spec.name}: learning_rate must be in (0, 1]")


class FittedModel:
    """A trained model: spec, standardisation stats, family parameters.

    Immutable after fit; predict is deterministic. Subclasses implement
    ``_predict_std`` on standardised inputs (identity stats for trees).
    """

    kind = "base"

    def __init__(self, spec: ModelSpec, feature_mean: np.ndarray, feature_scale: np.ndarray):
        self.spec = spec
        self.feature_mean = np.asarray(feature_mean, dtype=np.float64)
        self.feature_scale = np.asarray(feature_scale, dtype=np.float64)

    @property
    def n_features(self) -> int:
        return self.feature_mean.shape[0]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatch(f"expected {self.n_features} features, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise NonFiniteInput("prediction input contains NaN or Inf")
        return self._predict_std((X - self.feature_mean) / self.feature_scale)

    def _predict_std(self, Xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def _from_state(cls, spec: ModelSpec, feature_mean, feature_scale, state: dict) -> FittedModel:
        """Inverse of ``_state_dict``; by default its keys are the
        constructor's remaining arguments."""
        return cls(spec, feature_mean, feature_scale, **state)

    def to_dict(self) -> dict:
        """JSON-ready serialisation; floats keep full precision via repr."""
        return {"kind": self.kind, "spec": spec_to_dict(self.spec),
                "feature_mean": self.feature_mean.tolist(),
                "feature_scale": self.feature_scale.tolist(),
                "state": self._state_dict()}


def _standardisation(X: np.ndarray, identity: bool) -> tuple[np.ndarray, np.ndarray]:
    d = X.shape[1]
    if identity:
        return np.zeros(d), np.ones(d)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return mean, scale


def _validate_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1:
        raise DimensionMismatch(f"expected X (n, d) and y (n,), got {X.shape} / {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows of features but {y.shape[0]} targets")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training samples")
    if X.shape[1] < 1:
        raise ValueError("need at least 1 feature")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise NonFiniteInput("training data contains NaN or Inf")
    if (y <= 0).any():
        raise NonPositiveTarget("live weights must be > 0 kg")
    return X, y


def fit(spec: ModelSpec, X, y) -> FittedModel:
    """Train one base model. Deterministic given (spec, X, y).

    Rank-deficient linear systems resolve through the pseudo-inverse
    rather than erroring.
    """
    validate_spec(spec)
    X, y = _validate_training_data(X, y)
    family = _FAMILY_TABLE[spec.family]
    mean, scale = _standardisation(X, identity=not family.standardise)
    return family.fit(spec, (X - mean) / scale, y, mean, scale, **spec.resolved_params())


def spec_to_dict(spec: ModelSpec) -> dict:
    return {"name": spec.name, "family": spec.family, "params": dict(spec.params), "seed": spec.seed}


def spec_from_dict(d: dict) -> ModelSpec:
    return ModelSpec(name=d["name"], family=d["family"], params=dict(d.get("params", {})),
                     seed=int(d.get("seed", 0)))


def model_from_dict(d: dict) -> FittedModel:
    """Inverse of ``FittedModel.to_dict``."""
    try:
        cls = _MODEL_KINDS[d["kind"]]
    except KeyError:
        raise ValueError(f"unknown model kind {d.get('kind')!r}") from None
    return cls._from_state(spec_from_dict(d["spec"]), np.array(d["feature_mean"]),
                           np.array(d["feature_scale"]), d["state"])


class Family(NamedTuple):
    """One regressor family: default hyperparameters, whether features
    are standardised, and ``fit(spec, Xs, y, mean, scale, **params)``."""

    defaults: dict
    standardise: bool
    fit: Callable[..., FittedModel]


# The family modules subclass FittedModel, so they load after it.
from . import linear, neighbors, trees  # noqa: E402

_FAMILY_TABLE: Mapping[str, Family] = MappingProxyType({
    "ols": Family({}, True, linear.fit_ols),
    "ridge": Family({"alpha": 1.0}, True, linear.fit_ridge),
    "lasso": Family({"alpha": 1.0, "max_sweeps": 10_000}, True,
                    partial(linear.fit_elastic_net, l1_ratio=1.0)),
    "elastic_net": Family({"alpha": 1.0, "l1_ratio": 0.5, "max_sweeps": 10_000}, True,
                          linear.fit_elastic_net),
    "huber": Family({"delta": 1.35, "max_iter": 100, "tol": 1e-8}, True, linear.fit_huber),
    "knn": Family({"k": 5}, True, neighbors.fit_knn),
    "decision_tree": Family({"max_depth": None}, False, trees.fit_decision_tree),
    "random_forest": Family({"n_trees": 300, "max_depth": None}, False,
                            partial(trees.fit_forest, bootstrap=True, random_thresholds=False)),
    "extra_trees": Family({"n_trees": 300, "max_depth": None}, False,
                          partial(trees.fit_forest, bootstrap=False, random_thresholds=True)),
    "adaboost": Family({"n_rounds": 200, "max_depth": 4}, False, trees.fit_adaboost),
    "gradient_boosting": Family({"n_rounds": 500, "max_depth": 3, "learning_rate": 0.05}, False,
                                trees.fit_gradient_boosting),
})

# Declaration order is the ranking's tie-break order.
FAMILIES = tuple(_FAMILY_TABLE)
DEFAULT_FAMILY_PARAMS: Mapping[str, dict] = MappingProxyType(
    {name: family.defaults for name, family in _FAMILY_TABLE.items()})
_MODEL_KINDS = {cls.kind: cls for cls in FittedModel.__subclasses__()}
