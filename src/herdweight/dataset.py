"""Herd dataset table: (animal id, feature vector, live weight in kg).

The dataset CSV is the only cross-stage handoff format; its header is
pinned to "animal_id", the 32 feature names in schema order, and
"weight_kg". Floats are written as the shortest decimal that reparses to
the same value, so save/load round-trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteInput, NonPositiveTarget, ParseError
from .features import FEATURE_NAMES
from .files import text_blocks, write_csv
from .pointcloud import block_floats

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
    """Write ``dataset`` to ``path``; IoError if that fails."""
    write_csv(path, DATASET_HEADER,
              ([animal_id, *map(repr, row), repr(w)] for animal_id, row, w
               in zip(dataset.ids, dataset.features.tolist(), dataset.weights.tolist())))


def load_dataset_csv(path: str | Path) -> HerdDataset:
    def check(header):
        if tuple(header) == DATASET_HEADER[:-1]:
            raise ParseError(f"{path}: missing weight_kg column")
        if tuple(header) != DATASET_HEADER:
            raise ParseError(f"{path}: header does not match the feature schema")

    _, rows_at, values = _read_table(path, check)
    return HerdDataset(ids=_unique_ids(path, rows_at), features=values[:, :-1].copy(),
                       weights=values[:, -1].copy())


def load_features_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Feature rows for prediction; a trailing weight column is ignored.

    Lenient on the header (any animal_id-led numeric table), so width
    mismatches surface as DimensionMismatch at predict time rather than
    here.
    """
    def check(header):
        if len(header) < 2 or header[0] != "animal_id":
            raise ParseError(f"{path}: first column must be animal_id, then features")

    header, rows_at, values = _read_table(path, check)
    ids = [animal_id for _, animal_id in rows_at]
    return ids, values[:, :-1].copy() if header[-1] == "weight_kg" else values


def load_weights_csv(path: str | Path) -> dict[str, float]:
    """id -> kg table with header animal_id,weight_kg; ids must be unique."""
    def check(header):
        if tuple(h.strip() for h in header) != WEIGHTS_HEADER:
            raise ParseError(f"{path}: expected header animal_id,weight_kg")

    _, rows_at, values = _read_table(path, check)
    return dict(zip(_unique_ids(path, rows_at), values[:, 0].tolist()))


def _unique_ids(path, rows_at) -> list[str]:
    """The ids of ``rows_at`` ((line number, id) pairs) in order; a
    repeated id is a ParseError naming its line and its first line."""
    seen_at: dict[str, int] = {}
    for lineno, animal_id in rows_at:
        if animal_id in seen_at:
            raise ParseError(f"{path}:{lineno}: animal_id {animal_id!r} repeats line {seen_at[animal_id]}")
        seen_at[animal_id] = lineno
    return list(seen_at)


def _read_table(path, check_header):
    """Header, (line number, id) of each row, and the float cells of a CSV
    table of ids and numbers. ``check_header`` raises on a bad header; empty
    records are skipped, and every other has the header's width."""
    header, rows_at, parts = None, [], []
    with text_blocks(path, csv_records=True) as blocks:
        for first, rows in blocks:
            if header is None:
                header = rows[0]
                check_header(header)
                rows[0] = []
            rows_at += [(i, rec[0]) for i, rec in enumerate(rows, start=first) if rec]
            parts.append(block_floats(rows, first, lambda i: f"{path}:{i}",
                                      tuple(range(1, len(header))), len(header)))
    if header is None:
        raise ParseError(f"{path}: empty file")
    return header, rows_at, np.concatenate(parts)
