"""Exception types shared across the library, and the checks of numbers and settings."""

import json
import numbers
import sys
from dataclasses import field, fields

import numpy as np


class HerdWeightError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(HerdWeightError):
    """A file does not parse under its declared format."""


class NonFiniteCoordinate(HerdWeightError):
    """A point carries a NaN or infinite coordinate."""


class CoordinateOverflow(HerdWeightError):
    """Coordinates so large that a statistic of the cloud overflows float64."""


class EmptyCloud(HerdWeightError):
    """A point cloud with zero points where at least one is required."""


class IoError(HerdWeightError):
    """Writing an output file failed."""


class TooFewPoints(HerdWeightError):
    """Not enough points for the requested geometric operation."""


class DegenerateCloud(HerdWeightError):
    """Points are collinear/coincident, or the shape spectrum collapses."""


class CoplanarCloud(HerdWeightError):
    """All points lie in one plane, so the hull has no volume."""


class EmptyResult(HerdWeightError):
    """Plane removal deleted every point of the scan."""


class InvalidHyperparameter(HerdWeightError):
    """A model hyperparameter is unknown or outside its valid range."""


class InsufficientData(HerdWeightError, ValueError):
    """A fit has under two training rows, or no feature column."""


class NonFiniteInput(HerdWeightError):
    """A feature matrix or target vector contains NaN or infinite values."""


class DimensionMismatch(HerdWeightError):
    """Array shapes are inconsistent with what was seen at fit time."""


class InvalidK(HerdWeightError):
    """Fold count outside 2 <= k <= n."""


class LengthMismatch(HerdWeightError):
    """Targets and predictions differ in length."""


class NonPositiveTarget(HerdWeightError):
    """A weight target <= 0 kg; percentage error would be undefined."""


class ZeroVarianceTarget(HerdWeightError):
    """R-squared is undefined: constant targets, non-constant predictions."""


class InvalidSchedule(HerdWeightError):
    """Noise schedule is empty, negative, or increasing."""


class MissingWeight(HerdWeightError):
    """A scan id has no matching row in the weights table."""


class ConfigError(HerdWeightError):
    """Configuration file or CLI override is invalid."""


def check_number(name: str, value, low=None, high=None, integer: bool = False, open_low: bool = False,
                 open_high: bool = False, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is a real number that a float can
    hold, an integer if ``integer`` (a bool is neither), from ``low`` to
    ``high``, each end excluded if ``open_low`` or ``open_high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not (integer or abs(value) <= sys.float_info.max)):
        raise error(f"{name} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    if low is not None and (value < low or open_low and value == low):
        raise error(f"{name} must be {'>' if open_low else '>='} {low}, got {value!r}")
    if high is not None and (value > high or open_high and value == high):
        raise error(f"{name} must be {'<' if open_high else '<='} {high}, got {value!r}")


def as_numbers(name: str, value, integer: bool = False) -> np.ndarray:
    """``value`` as an array; a ValueError naming ``name`` unless it holds
    only finite numbers, or only integers if ``integer``."""
    try:
        array = np.asarray(value)
    except ValueError:   # ragged lists
        array = np.asarray(None)
    if array.dtype.kind not in ("iu" if integer else "iuf") or not np.isfinite(array).all():
        raise ValueError(f"{name} must hold only finite {'integers' if integer else 'numbers'}")
    return array


def setting(default, choices: tuple = (), nullable: bool = False, **bounds):
    """A dataclass field holding ``default`` that accepts one of ``choices``, or else
    a number (an integer unless ``default`` is a float) within ``bounds``, which
    are ``check_number``'s, or None if ``nullable``."""
    number = dict(integer=not isinstance(default, float), **bounds)
    return field(default=default, metadata=dict(choices=choices, nullable=nullable, number=number))


def check_setting(name: str, value, declared) -> None:
    """Raise ValueError, naming ``name``, unless the ``setting`` ``declared`` accepts ``value``."""
    rule = declared.metadata
    if rule["choices"]:
        if not any(isinstance(value, type(c)) and value == c for c in rule["choices"]):
            raise ValueError(f"{name} must be {' or '.join(map(json.dumps, rule['choices']))}, got {value!r}")
    elif value is not None or not rule["nullable"]:
        check_number(name, value, **rule["number"])


def check_settings(obj) -> None:
    """``check_setting`` on each field of the dataclass ``obj`` that ``setting`` declares."""
    for f in fields(obj):
        if f.metadata:
            check_setting(f.name, getattr(obj, f.name), f)
