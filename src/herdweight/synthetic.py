"""Seeded synthetic fixtures: ellipsoid herds and stall scenes.

These back the verification suite and give the CLI something to chew on
without real scans. Herd weights follow a known volumetric law — weight =
1000 * hull_volume * (1 + eta) with eta uniform in +-noise — so pipeline
accuracy can be judged against the generator.
"""

from __future__ import annotations

import numpy as np

from .pointcloud import PointCloud

# Semi-axis ranges (m) for cow-sized ellipsoids: half-length, half-width,
# half-height.
_AXIS_RANGES = ((0.80, 1.30), (0.30, 0.55), (0.40, 0.65))

WEIGHT_PER_CUBIC_METRE = 1000.0


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def ellipsoid_cloud(semi_axes, n_points: int, rng: np.random.Generator,
                    rotation: np.ndarray | None = None,
                    center=(0.0, 0.0, 0.0)) -> PointCloud:
    """Points on an ellipsoid surface (sphere directions, axis-scaled)."""
    directions = rng.normal(size=(n_points, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    pts = directions * np.asarray(semi_axes, dtype=np.float64)
    if rotation is not None:
        pts = pts @ rotation.T
    return PointCloud(pts + np.asarray(center, dtype=np.float64))


def make_herd(n_animals: int = 100, points_per_animal: int = 2000, seed: int = 0,
              noise: float = 0.02) -> tuple[list[str], list[PointCloud], np.ndarray]:
    """Ellipsoid 'animals' with volume-law weights.

    Weight labels use the hull volume straight from qhull, independent of
    the feature pipeline's own volume computation.
    """
    from scipy.spatial import ConvexHull   # here, as in features.convex_hull

    rng = np.random.default_rng(seed)
    ids, clouds, weights = [], [], []
    for i in range(n_animals):
        axes = [rng.uniform(lo, hi) for lo, hi in _AXIS_RANGES]
        cloud = ellipsoid_cloud(axes, points_per_animal, rng,
                                rotation=random_rotation(rng),
                                center=rng.uniform(-2.0, 2.0, size=3))
        volume = ConvexHull(cloud.points).volume
        eta = rng.uniform(-noise, noise)
        ids.append(f"animal_{i:03d}")
        clouds.append(cloud)
        weights.append(WEIGHT_PER_CUBIC_METRE * volume * (1.0 + eta))
    return ids, clouds, np.asarray(weights)


def stall_scene(seed: int = 0, n_floor: int = 3000, n_wall: int = 1500,
                n_blob: int = 2000, extent: float = 3.0,
                wall_height: float = 1.2) -> tuple[PointCloud, np.ndarray]:
    """Floor + two orthogonal walls + an animal blob, with point labels.

    Labels: 0 = blob, 1 = floor (z=0), 2 = wall (x=0), 3 = wall (y=0).
    Points are shuffled so structures interleave like a real scan.
    """
    rng = np.random.default_rng(seed)
    floor = np.column_stack([rng.uniform(0, extent, n_floor),
                             rng.uniform(0, extent, n_floor),
                             np.zeros(n_floor)])
    wall_x = np.column_stack([np.zeros(n_wall),
                              rng.uniform(0, extent, n_wall),
                              rng.uniform(0, wall_height, n_wall)])
    wall_y = np.column_stack([rng.uniform(0, extent, n_wall),
                              np.zeros(n_wall),
                              rng.uniform(0, wall_height, n_wall)])
    blob = ellipsoid_cloud((0.8, 0.35, 0.45), n_blob, rng,
                           center=(extent / 2, extent / 2, 0.8)).points
    pts = np.vstack([blob, floor, wall_x, wall_y])
    labels = np.concatenate([np.zeros(n_blob, dtype=np.intp),
                             np.full(n_floor, 1, dtype=np.intp),
                             np.full(n_wall, 2, dtype=np.intp),
                             np.full(n_wall, 3, dtype=np.intp)])
    perm = rng.permutation(pts.shape[0])
    return PointCloud(pts[perm]), labels[perm]
