"""Exception types shared across the library, and one check of settings."""

import math
import numbers


class HerdWeightError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(HerdWeightError):
    """A file does not parse under its declared format."""


class NonFiniteCoordinate(HerdWeightError):
    """A point carries a NaN or infinite coordinate."""


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


def check_number(name: str, value, low=None, integer: bool = False, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is a finite real number, an integer
    if ``integer`` (a bool is neither), and at least ``low``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not (integer or math.isfinite(value))):
        raise error(f"{name} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")
