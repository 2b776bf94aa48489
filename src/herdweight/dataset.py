"""Herd dataset table: (animal id, feature vector, live weight in kg).

The dataset CSV is the only cross-stage handoff format; its header is
pinned to "animal_id", the 32 feature names in schema order, and
"weight_kg". Floats are written as the shortest decimal that reparses to
the same value, so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoError, NonFiniteInput, NonPositiveTarget, ParseError
from .features import FEATURE_NAMES
from .files import open_fresh, read_csv

DATASET_HEADER = ("animal_id", *FEATURE_NAMES, "weight_kg")
WEIGHTS_HEADER = ("animal_id", "weight_kg")


@dataclass
class HerdDataset:
    """Rows of (unique id, 32 features, positive weight)."""

    ids: list[str]
    features: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = len(self.ids)
        if self.features.shape != (n, len(FEATURE_NAMES)):
            raise ValueError(f"features must be ({n}, {len(FEATURE_NAMES)}), got {self.features.shape}")
        if self.weights.shape != (n,):
            raise ValueError(f"weights must be ({n},), got {self.weights.shape}")
        if len(set(self.ids)) != n:
            raise ValueError("animal ids must be unique")
        if not np.isfinite(self.features).all():
            raise NonFiniteInput("features contain NaN or Inf")
        if not np.isfinite(self.weights).all() or (self.weights <= 0).any():
            raise NonPositiveTarget("weights must be finite and > 0 kg")

    def __len__(self) -> int:
        return len(self.ids)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features, self.weights


def save_dataset_csv(dataset: HerdDataset, path: str | Path) -> None:
    try:
        with open_fresh(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(DATASET_HEADER)
            for i, animal_id in enumerate(dataset.ids):
                writer.writerow([animal_id,
                                 *(repr(v) for v in dataset.features[i].tolist()),
                                 repr(float(dataset.weights[i]))])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_dataset_csv(path: str | Path) -> HerdDataset:
    ids, feats, weights = _read_feature_rows(path, require_weight=True)
    return HerdDataset(ids=ids, features=feats, weights=np.asarray(weights))


def load_features_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Feature rows for prediction; a trailing weight column is ignored.

    Lenient on the header (any animal_id-led numeric table), so width
    mismatches surface as DimensionMismatch at predict time rather than
    here.
    """
    ids, feats, _ = _read_feature_rows(path, require_weight=False, strict=False)
    return ids, feats


def _read_feature_rows(path, require_weight: bool, strict: bool = True):
    path = Path(path)
    records = read_csv(path)
    if not records:
        raise ParseError(f"{path}: empty file")
    header = records[0]
    if strict:
        has_weight = tuple(header) == DATASET_HEADER
        if not has_weight and tuple(header) != DATASET_HEADER[:-1]:
            raise ParseError(f"{path}: header does not match the feature schema")
    else:
        if not header or header[0] != "animal_id":
            raise ParseError(f"{path}: first column must be animal_id")
        has_weight = header[-1] == "weight_kg"
    if require_weight and not has_weight:
        raise ParseError(f"{path}: missing weight_kg column")
    width = len(header)
    ids: list[str] = []
    rows: list[list[float]] = []
    weights: list[float] = []
    for lineno, rec in enumerate(records[1:], start=2):
        if not rec:
            continue
        if len(rec) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(rec)}")
        ids.append(rec[0])
        try:
            nums = [float(v) for v in rec[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if has_weight:
            rows.append(nums[:-1])
            weights.append(nums[-1])
        else:
            rows.append(nums)
    return ids, np.asarray(rows, dtype=np.float64), weights


def load_weights_csv(path: str | Path) -> dict[str, float]:
    """id -> kg table with header animal_id,weight_kg; ids must be unique."""
    path = Path(path)
    records = read_csv(path)
    if not records:
        raise ParseError(f"{path}: empty file")
    if tuple(h.strip() for h in records[0]) != WEIGHTS_HEADER:
        raise ParseError(f"{path}: expected header animal_id,weight_kg")
    out: dict[str, float] = {}
    seen_at: dict[str, int] = {}
    for lineno, rec in enumerate(records[1:], start=2):
        if not rec:
            continue
        if len(rec) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 columns, got {len(rec)}")
        if rec[0] in seen_at:
            raise ParseError(f"{path}:{lineno}: animal_id {rec[0]!r} repeats line {seen_at[rec[0]]}")
        seen_at[rec[0]] = lineno
        try:
            out[rec[0]] = float(rec[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: cannot parse weight {rec[1]!r}") from None
    return out
