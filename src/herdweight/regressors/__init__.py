"""Base regression model families behind one fit/predict contract."""

from .base import (
    DEFAULT_FAMILY_PARAMS,
    FAMILIES,
    GRADIENT_BOOSTING_PRESETS,
    FittedModel,
    ModelSpec,
    default_model_specs,
    fit,
    fit_many,
    model_from_dict,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)

__all__ = [
    "DEFAULT_FAMILY_PARAMS",
    "FAMILIES",
    "GRADIENT_BOOSTING_PRESETS",
    "FittedModel",
    "ModelSpec",
    "default_model_specs",
    "fit",
    "fit_many",
    "model_from_dict",
    "spec_from_dict",
    "spec_to_dict",
    "validate_spec",
]
