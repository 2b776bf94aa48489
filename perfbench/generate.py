"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed. The program under test
only ever sees the files these functions write; the labels and true
weights stay in the benchmark for the output checks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from herdweight.pointcloud import CSV_FORMAT, PLY_ASCII, PLY_BINARY_LE, XYZ_ASCII, save_point_cloud
from herdweight.synthetic import make_herd, stall_scene

FORMAT_SUFFIX = {XYZ_ASCII: ".xyz", CSV_FORMAT: ".csv", PLY_ASCII: ".ply", PLY_BINARY_LE: ".ply"}
MIXED_FORMATS = (XYZ_ASCII, CSV_FORMAT, PLY_ASCII, PLY_BINARY_LE)

# Eleven families, sized so that one nested-CV pass takes seconds, not
# minutes: forests and boosting at 1/25 of their default ensemble sizes
# (300 trees; 200 and 500 rounds), and coordinate descent capped at 100
# sweeps, where the default 10 000 costs about 1.5 s per lasso fit on
# these herds without converging.
BENCH_SPECS = [
    "ols", "ridge",
    {"name": "lasso", "family": "lasso", "params": {"max_sweeps": 100}},
    {"name": "elastic_net", "family": "elastic_net", "params": {"max_sweeps": 100}},
    "huber", "knn", "decision_tree",
    {"name": "random_forest", "family": "random_forest", "params": {"n_trees": 12}},
    {"name": "extra_trees", "family": "extra_trees", "params": {"n_trees": 12}},
    {"name": "adaboost", "family": "adaboost", "params": {"n_rounds": 8}},
    {"name": "gradient_boosting", "family": "gradient_boosting", "params": {"n_rounds": 20}},
]

# Relative RANSAC tolerance: tight enough that no slab through an animal
# holds min_plane_fraction of its points, so exactly three planes go.
INLIER_THRESHOLD = 0.004


@dataclass
class Scene:
    """One written scan with the generator's truth about it."""

    animal_id: str
    path: Path
    fmt: str
    points: np.ndarray   # as the loader will see them (float32-rounded for binary PLY)
    labels: np.ndarray   # 0 = animal, 1 = floor, 2/3 = walls
    weight_kg: float


def write_config(path: Path, seed: int) -> Path:
    """The benchmark config for herd_model and chute."""
    raw = {
        "cleaning": {"inlier_threshold": INLIER_THRESHOLD},
        "models": {"specs": BENCH_SPECS, "seed": seed},
        "evaluation": {"k": 3, "inner_k": 3, "seed": seed},
    }
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def place_in_stall(animal: np.ndarray, rng: np.random.Generator, n_floor: int,
                   n_wall: int, margin: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Stand an animal `margin` metres clear of a floor (z=0) and two walls
    (x=0, y=0) and return the shuffled scene with its point labels."""
    animal = animal - animal.min(axis=0) + margin
    ex, ey, ez = animal.max(axis=0) + margin
    floor = np.column_stack([rng.uniform(0, ex, n_floor), rng.uniform(0, ey, n_floor),
                             np.zeros(n_floor)])
    wall_x = np.column_stack([np.zeros(n_wall), rng.uniform(0, ey, n_wall),
                              rng.uniform(0, ez, n_wall)])
    wall_y = np.column_stack([rng.uniform(0, ex, n_wall), np.zeros(n_wall),
                              rng.uniform(0, ez, n_wall)])
    pts = np.vstack([animal, floor, wall_x, wall_y])
    labels = np.repeat([0, 1, 2, 3], [len(animal), n_floor, n_wall, n_wall])
    perm = rng.permutation(len(pts))
    return pts[perm], labels[perm]


def write_scene(out_dir: Path, animal_id: str, pts: np.ndarray, labels: np.ndarray,
                fmt: str, weight_kg: float) -> Scene:
    path = out_dir / (animal_id + FORMAT_SUFFIX[fmt])
    if fmt == PLY_BINARY_LE:    # the loader will see float32-rounded coordinates
        pts = pts.astype("<f4").astype(np.float64)
    save_point_cloud(pts, path, fmt)
    return Scene(animal_id, path, fmt, pts, labels, float(weight_kg))


def herd_scans(out_dir: Path, seed: int, n_animals: int, animal_points: int,
               n_floor: int, n_wall: int, formats=MIXED_FORMATS,
               prefix: str = "animal") -> list[Scene]:
    """`make_herd` animals, each in its own floor+walls scene, written in
    rotating formats. Weights are the generator's volume-law labels."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _, clouds, weights = make_herd(n_animals, animal_points, seed=seed)
    rng = np.random.default_rng([seed, 1])
    scenes = []
    for i, (cloud, kg) in enumerate(zip(clouds, weights)):
        pts, labels = place_in_stall(cloud.points, rng, n_floor, n_wall)
        scenes.append(write_scene(out_dir, f"{prefix}_{i:03d}", pts, labels,
                                  formats[i % len(formats)], kg))
    return scenes


def stall_scans(out_dir: Path, seed: int, sizes: list[int]) -> list[Scene]:
    """`stall_scene` scenes of the given total point counts, split evenly
    over the four formats. Weights are nominal; only ingest runs on them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scenes = []
    for i, n in enumerate(sizes):
        n_blob, n_floor = n // 3, n // 3
        n_wall = (n - n_blob - n_floor) // 2
        cloud, labels = stall_scene(seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
                                    n_floor=n_floor, n_wall=n_wall, n_blob=n_blob)
        scenes.append(write_scene(out_dir, f"stall_{i:02d}", cloud.points, labels,
                                  MIXED_FORMATS[i % len(MIXED_FORMATS)], 500.0))
    return scenes


def write_weights(path: Path, scenes: list[Scene]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["animal_id", "weight_kg"])
        for s in scenes:
            writer.writerow([s.animal_id, repr(s.weight_kg)])
    return path
