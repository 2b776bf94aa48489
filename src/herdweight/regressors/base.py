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
    InsufficientData,
    InvalidHyperparameter,
    NonFiniteInput,
    NonPositiveTarget,
    as_numbers,
    check_setting,
    check_settings,
    setting,
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
    seed: int = setting(0, low=0)

    def resolved_params(self) -> dict:
        return {**DEFAULT_FAMILY_PARAMS[self.family], **self.params}


def default_model_specs(seed: int = 0) -> list[ModelSpec]:
    """The eleven default base models, in declaration (tie-break) order."""
    return [ModelSpec(name=f, family=f, seed=seed) for f in FAMILIES]


TABLE = "table"   # the state shape that stands for a kind's TreeTable


def validate_spec(spec: ModelSpec) -> None:
    """Raise InvalidHyperparameter unless ``ModelSpec`` and the family table declare ``spec``'s values."""
    if spec.family not in FAMILIES:
        raise InvalidHyperparameter(f"unknown model family {spec.family!r}")
    declared = _FAMILY_TABLE[spec.family].params
    extra = set(spec.params) - set(declared)
    if extra:
        raise InvalidHyperparameter(f"{spec.name}: unknown hyperparameters {sorted(extra)} for family {spec.family!r}")
    try:
        check_settings(spec)
        for key, value in spec.params.items():
            check_setting(key, value, declared[key])
    except ValueError as exc:
        raise InvalidHyperparameter(f"{spec.name}: {exc}") from None


class FittedModel:
    """A trained model: spec, standardisation stats, family parameters.

    Immutable after fit; predict is deterministic. Subclasses implement
    ``_predict_std`` on standardised inputs (identity stats for trees), and
    declare ``_state``: its keys in constructor and model.json order, each
    with a shape, from which alone this class builds, writes and checks the
    state. A shape is a tuple of sizes: "d" features, "t" trees or "n" rows,
    set by the first array of fewest dimensions with an "n"; ``()`` is one
    number. Such state is float64; ``int`` declares one integer instead,
    and ``TABLE`` the kind's TreeTable, kept as ``table``.
    """

    kind = "base"
    _state: Mapping[str, tuple | type | str] = {}

    def __init__(self, spec: ModelSpec, feature_mean, feature_scale, *state):
        self.spec = spec
        self.feature_mean = np.asarray(feature_mean, dtype=np.float64)
        self.feature_scale = np.asarray(feature_scale, dtype=np.float64)
        for (key, shape), value in zip(self._state.items(), state, strict=True):
            if shape is TABLE:
                self.table = value
            else:
                setattr(self, key, np.asarray(value, dtype=np.intp if shape is int else np.float64))

    @property
    def n_features(self) -> int:
        return self.feature_mean.size

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
        return {key: self.table.to_dicts() if shape is TABLE else getattr(self, key).tolist()
                for key, shape in self._state.items()}

    def _check_state(self) -> None:
        """Raise ValueError, naming the field, unless every state array has
        its declared shape, every scale is positive and every tree splits
        on one of the features."""
        sizes = {"d": self.n_features}
        if TABLE in self._state.values():
            sizes["t"] = self.table.roots.size
            if (self.table.feature >= self.n_features).any():
                raise ValueError(f"a tree splits on feature {self.table.feature.max()}, "
                                 f"but the model has {self.n_features} features")
        shapes = {"feature_mean": ("d",), "feature_scale": ("d",),
                  **{key: () if shape is int else shape
                     for key, shape in self._state.items() if shape is not TABLE}}
        for key, shape in sorted(shapes.items(), key=lambda item: len(item[1])):
            got = getattr(self, key).shape
            sizes.update((letter, size) for letter, size in zip(shape, got) if letter not in sizes)
            want = tuple(sizes.get(letter, letter) for letter in shape)
            if got != want:
                raise ValueError(f"{key} has shape {got}, expected {want}")
        if (self.feature_scale <= 0).any():
            raise ValueError("feature_scale must be > 0")

    @classmethod
    def _from_state(cls, spec: ModelSpec, feature_mean, feature_scale, state: dict) -> FittedModel:
        """Inverse of ``_state_dict``. A key that is missing or unknown, or
        state other than finite numbers, is a ValueError naming it."""
        for key in sorted(set(state) ^ set(cls._state)):
            raise ValueError(f"state key {key!r} is {'missing' if key in cls._state else 'unknown'}")
        return cls(spec, as_numbers("feature_mean", feature_mean),
                   as_numbers("feature_scale", feature_scale),
                   *(trees.TreeTable.from_dicts(state[key]) if shape is TABLE
                     else as_numbers(key, state[key], integer=shape is int)
                     for key, shape in cls._state.items()))

    def to_dict(self) -> dict:
        """JSON-ready serialisation; floats keep full precision via repr."""
        return {"kind": self.kind, "spec": spec_to_dict(self.spec),
                "feature_mean": self.feature_mean.tolist(),
                "feature_scale": self.feature_scale.tolist(),
                "state": self._state_dict()}


def _validate_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1:
        raise DimensionMismatch(f"expected X (n, d) and y (n,), got {X.shape} / {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows of features but {y.shape[0]} targets")
    if X.shape[0] < 2:
        raise InsufficientData("need at least 2 training samples")
    if X.shape[1] < 1:
        raise InsufficientData("need at least 1 feature")
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
    if not family.standardise:
        return fit_many(spec, X, y, [np.arange(len(y))])[0]
    mean, scale = X.mean(axis=0), X.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return family.fit(spec, (X - mean) / scale, y, mean, scale, **spec.resolved_params())


def fit_many(spec: ModelSpec, X, y, row_sets) -> list[FittedModel]:
    """``[fit(spec, X[r], y[r]) for r in row_sets]``, byte for byte, but
    the tree families grow the trees of every row set in the same level
    passes. X and y are checked whole."""
    validate_spec(spec)
    X, y = _validate_training_data(X, y)
    family = _FAMILY_TABLE[spec.family]
    if family.standardise or not row_sets:
        return [fit(spec, X[r], y[r]) for r in row_sets]
    row_sets = [np.arange(len(y))[r] for r in row_sets]
    if any(r.size < 2 for r in row_sets):
        raise InsufficientData("need at least 2 training samples")
    d = X.shape[1]
    return family.fit(spec, X, y, row_sets, np.zeros(d), np.ones(d), **spec.resolved_params())


def spec_to_dict(spec: ModelSpec) -> dict:
    return {"name": spec.name, "family": spec.family, "params": dict(spec.params), "seed": spec.seed}


def spec_from_dict(d: dict) -> ModelSpec:
    params = d.get("params", {})
    if not (isinstance(d["name"], str) and isinstance(params, dict)):
        raise ValueError(f"a spec needs a string name and object params, got {d['name']!r} and {params!r}")
    return ModelSpec(name=d["name"], family=d["family"], params=dict(params), seed=d.get("seed", 0))


def model_from_dict(d: dict) -> FittedModel:
    """Inverse of ``FittedModel.to_dict``. Malformed state, such as an
    array whose shape does not fit the feature count, or a missing key is
    a ValueError that names the member and the field."""
    try:
        spec = spec_from_dict(d["spec"])
    except KeyError as exc:
        raise ValueError(f"a member or its spec lacks key {exc}") from None
    try:
        if d["kind"] not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {d['kind']!r}")
        check_settings(spec)
        model = _MODEL_KINDS[d["kind"]]._from_state(spec, d["feature_mean"], d["feature_scale"], d["state"])
        model._check_state()
    except KeyError as exc:
        raise ValueError(f"member {spec.name!r}: missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"member {spec.name!r}: {exc}") from None
    return model


class Family(NamedTuple):
    """One regressor family: its hyperparameters, each a ``setting``, whether
    features are standardised, and its fit. A family that standardises fits
    one model, ``fit(spec, Xs, y, mean, scale, **params)``; a tree family
    fits one per row set of raw X, ``fit(spec, X, y, row_sets, mean, scale, **params)``."""

    params: dict
    standardise: bool
    fit: Callable[..., FittedModel]


# The family modules subclass FittedModel, so they load after it.
from . import linear, neighbors, trees  # noqa: E402

_max_depth = partial(setting, low=1, nullable=True)   # None: no depth cap

_FAMILY_TABLE: Mapping[str, Family] = MappingProxyType({
    "ols": Family({}, True, linear.fit_ols),
    "ridge": Family({"alpha": setting(1.0, low=0)}, True, linear.fit_ridge),
    "lasso": Family({"alpha": setting(1.0, low=0), "max_sweeps": setting(10_000, low=1)}, True,
                    partial(linear.fit_elastic_net, l1_ratio=1.0)),
    "elastic_net": Family({"alpha": setting(1.0, low=0), "l1_ratio": setting(0.5, low=0, high=1),
                           "max_sweeps": setting(10_000, low=1)}, True, linear.fit_elastic_net),
    "huber": Family({"delta": setting(1.35, low=0, open_low=True), "max_iter": setting(100, low=1)}, True,
                    linear.fit_huber),
    "knn": Family({"k": setting(5, low=1)}, True, neighbors.fit_knn),
    "decision_tree": Family({"max_depth": _max_depth(None)}, False, trees.fit_decision_trees),
    "random_forest": Family({"n_trees": setting(300, low=1), "max_depth": _max_depth(None)}, False,
                            partial(trees.fit_forests, bootstrap=True, random_thresholds=False)),
    "extra_trees": Family({"n_trees": setting(300, low=1), "max_depth": _max_depth(None)}, False,
                          partial(trees.fit_forests, bootstrap=False, random_thresholds=True)),
    "adaboost": Family({"n_rounds": setting(200, low=1), "max_depth": _max_depth(4)}, False,
                       trees.fit_adaboosts),
    "gradient_boosting": Family({"n_rounds": setting(500, low=0), "max_depth": _max_depth(3),
                                 "learning_rate": setting(0.05, low=0, high=1, open_low=True)},
                                False, trees.fit_gradient_boostings),
})

# Declaration order is the ranking's tie-break order.
FAMILIES = tuple(_FAMILY_TABLE)
DEFAULT_FAMILY_PARAMS: Mapping[str, dict] = MappingProxyType(
    {name: {key: declared.default for key, declared in family.params.items()}
     for name, family in _FAMILY_TABLE.items()})
_MODEL_KINDS = {cls.kind: cls for cls in FittedModel.__subclasses__() + trees.TreeModel.__subclasses__()
                if cls is not trees.TreeModel}
