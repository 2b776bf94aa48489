"""Planar background removal with seeded RANSAC.

Stall scans carry large flat structures (floor, walls) around the animal.
Each pass fits the dominant plane from random 3-point hypotheses, refines
it by total least squares on its inliers, and strips the inliers while
they still account for at least ``min_plane_fraction`` of the remaining
cloud. A pass stops scoring hypotheses once, with probability
``_CONFIDENCE``, it would have drawn a clean sample of the best plane so
far and of any plane holding ``min_plane_fraction`` of the points
(Fischler & Bolles 1981); ``max_iterations`` caps it. All randomness
flows through a seeded PCG64 stream, so results are reproducible across
runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, EmptyResult, TooFewPoints, check_number
from .pointcloud import PointCloud, as_points

# Hypotheses are scored in chunks of _HYPOTHESIS_CHUNK against blocks of
# _POINT_BLOCK points. The (chunk, block) buffers take about 0.6 MB
# whatever the cloud size, small enough to stay in a 2 MB L2 cache between
# passes. The stopping rule is checked after each chunk, so a smaller
# chunk stops nearer its bound; 64 scored fewer hypotheses than 128 but was
# no faster on 3.8k-point scans, where each call's fixed cost takes over.
_HYPOTHESIS_CHUNK = 128
_POINT_BLOCK = 512
# Probability that a pass has drawn at least one all-inlier sample of the
# plane it must not miss before it stops.
_CONFIDENCE = 0.99


@dataclass(frozen=True)
class PlaneModel:
    """Plane {p : normal . p + offset = 0} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        n = np.asarray(self.normal, dtype=np.float64)
        if n.shape != (3,):
            raise ValueError("normal must be a 3-vector")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("normal must be unit length")
        object.__setattr__(self, "normal", n)

    def distances(self, points) -> np.ndarray:
        """Unsigned point-to-plane distances."""
        pts = as_points(points)
        return np.abs(pts @ self.normal + self.offset)


@dataclass(frozen=True)
class RansacParams:
    """Knobs for plane fitting and removal.

    ``inlier_threshold`` is metres, or a fraction of the cloud's
    bounding-box diagonal when ``threshold_is_relative`` is set.
    ``max_iterations`` caps the 3-point samples a pass draws and scores; a
    pass stops sooner once it has seen enough (`fit_plane_ransac`). The
    defaults are sized for a stall scene: floor plus up to three walls.
    """

    inlier_threshold: float = 0.01
    threshold_is_relative: bool = True
    max_iterations: int = 1000
    min_plane_fraction: float = 0.2
    max_planes: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        check_number("inlier_threshold", self.inlier_threshold)
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be > 0")
        check_number("min_plane_fraction", self.min_plane_fraction)
        if not 0 < self.min_plane_fraction < 1:
            raise ValueError("min_plane_fraction must be in (0, 1)")
        if not isinstance(self.threshold_is_relative, bool):
            raise ValueError("threshold_is_relative must be true or false, "
                             f"got {self.threshold_is_relative!r}")
        check_number("max_iterations", self.max_iterations, low=1, integer=True)
        check_number("max_planes", self.max_planes, low=1, integer=True)
        check_number("seed", self.seed, low=0, integer=True)


def resolve_threshold(points, params: RansacParams) -> float:
    """Absolute inlier threshold in metres for this cloud."""
    if not params.threshold_is_relative:
        return params.inlier_threshold
    pts = as_points(points)
    diagonal = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if diagonal == 0.0:
        raise DegenerateCloud("all points coincide; bounding box has no diagonal")
    return params.inlier_threshold * diagonal


def _check_not_collinear(pts: np.ndarray) -> None:
    centred = pts - pts.mean(axis=0)
    cov = (centred.T @ centred) / pts.shape[0]
    eigvals = np.linalg.eigvalsh(cov)  # ascending
    if eigvals[1] <= 1e-12 * max(eigvals[2], 1e-300):
        raise DegenerateCloud("points are collinear (or coincident); no plane is defined")


def _tls_plane(pts: np.ndarray) -> PlaneModel:
    """Total-least-squares plane: smallest eigenvector of the covariance."""
    centroid = pts.mean(axis=0)
    centred = pts - centroid
    cov = (centred.T @ centred) / pts.shape[0]
    _, vecs = np.linalg.eigh(cov)
    normal = vecs[:, 0]
    flip = np.argmax(np.abs(normal))
    if normal[flip] < 0:
        normal = -normal
    return PlaneModel(normal=normal, offset=float(-normal @ centroid))


def fit_plane_ransac(
    cloud,
    params: RansacParams,
    *,
    rng: np.random.Generator | None = None,
    threshold: float | None = None,
) -> tuple[PlaneModel, np.ndarray]:
    """Fit the dominant plane; return it with the sorted inlier index array.

    All ``max_iterations`` random 3-point samples are drawn up front, so
    every pass takes the same stretch of the random stream. They are scored
    in order, ``_HYPOTHESIS_CHUNK`` at a time. After each chunk the pass
    stops once the samples drawn so far, invalid ones included, reach
    ``log(1 - p) / log(1 - w**3)`` with ``p = _CONFIDENCE`` and ``w`` the
    larger of the best inlier fraction so far and ``min_plane_fraction``;
    ``max_iterations`` is the cap. The winning hypothesis has the most
    inliers among those scored (ties go to the earliest), and is refined by
    total least squares on its inliers; the returned inlier set is
    re-evaluated against the refined plane.
    """
    pts = as_points(cloud)
    n = pts.shape[0]
    if n < 3:
        raise TooFewPoints(f"plane fitting needs >= 3 points, got {n}")
    _check_not_collinear(pts)
    if threshold is None:
        threshold = resolve_threshold(pts, params)
    if rng is None:
        rng = np.random.default_rng(params.seed)

    samples = rng.integers(0, n, size=(params.max_iterations, 3))
    distinct = (
        (samples[:, 0] != samples[:, 1])
        & (samples[:, 0] != samples[:, 2])
        & (samples[:, 1] != samples[:, 2])
    )
    a = pts[samples[:, 0]]
    normals = np.cross(pts[samples[:, 1]] - a, pts[samples[:, 2]] - a)
    lengths = np.linalg.norm(normals, axis=1)
    valid = distinct & (lengths > 1e-300)

    best_idx, best_count, drawn = -1, -1, 0
    while drawn < params.max_iterations:
        stop = min(drawn + _HYPOTHESIS_CHUNK, params.max_iterations)
        rows = drawn + np.flatnonzero(valid[drawn:stop])
        drawn = stop
        if rows.size:
            counts = _score_hypotheses(pts, normals, lengths, a, rows, threshold)
            top = int(np.argmax(counts))  # argmax: the earliest among equals
            if counts[top] > best_count:  # strict: an earlier chunk keeps a tie
                best_idx, best_count = int(rows[top]), int(counts[top])
        inlier_fraction = max(best_count / n, params.min_plane_fraction)
        if best_idx >= 0 and drawn >= _samples_needed(inlier_fraction):
            break
    if best_idx < 0:
        raise DegenerateCloud("no valid 3-point hypothesis found")

    unit = normals[best_idx] / lengths[best_idx]
    off = float(-unit @ a[best_idx])
    inliers = np.flatnonzero(np.abs(pts @ unit + off) <= threshold)
    plane = _tls_plane(pts[inliers])
    inliers = np.flatnonzero(plane.distances(pts) <= threshold)
    return plane, inliers


def _samples_needed(inlier_fraction: float) -> float:
    """Samples after which one of them is all inliers of a plane holding
    `inlier_fraction` of the points, with probability ``_CONFIDENCE``."""
    clean = inlier_fraction**3  # chance that one sample is all inliers
    if clean >= 1.0:
        return 0.0
    if clean == 0.0:  # underflow of a tiny min_plane_fraction: no bound below the cap
        return math.inf
    return math.log1p(-_CONFIDENCE) / math.log1p(-clean)


def _score_hypotheses(pts, normals, lengths, a, rows, threshold) -> np.ndarray:
    """Inlier count ``#{p : |p . n + d| <= threshold}`` of each hypothesis in `rows`.

    Points are taken ``_POINT_BLOCK`` at a time, so the buffers hold
    ``rows.size * _POINT_BLOCK`` values whatever the cloud size.
    """
    n = pts.shape[0]
    pts_t = np.ascontiguousarray(pts.T)  # (3, n): each block is a strided BLAS operand
    block = min(_POINT_BLOCK, n)
    dist_buf = np.empty((rows.size, block))
    mask_buf = np.empty((rows.size, block), dtype=bool)
    unit = normals[rows] / lengths[rows, None]
    offs = -np.einsum("ij,ij->i", unit, a[rows])[:, None]
    counts = np.zeros(rows.size, dtype=np.int64)
    for b in range(0, n, block):
        width = min(block, n - b)
        dist = dist_buf[:, :width]
        mask = mask_buf[:, :width]
        np.matmul(unit, pts_t[:, b : b + width], out=dist)
        np.add(dist, offs, out=dist)
        np.abs(dist, out=dist)
        np.less_equal(dist, threshold, out=mask)
        counts += np.count_nonzero(mask, axis=1)
    return counts


def segment_planes(cloud, params: RansacParams) -> tuple[PointCloud, list[PlaneModel]]:
    """Iteratively strip dominant planes; return the residue and the planes.

    The relative threshold is resolved once against the input cloud, so
    every pass uses the same absolute tolerance.
    """
    pts = as_points(cloud)
    keep = np.ones(pts.shape[0], dtype=bool)
    threshold = resolve_threshold(pts, params)
    rng = np.random.default_rng(params.seed)
    planes: list[PlaneModel] = []

    while len(planes) < params.max_planes:
        current_rows = np.flatnonzero(keep)
        if current_rows.size < 3:
            break
        try:
            plane, inl = fit_plane_ransac(pts[current_rows], params, rng=rng, threshold=threshold)
        except (DegenerateCloud, TooFewPoints):
            if planes:
                break
            raise
        if inl.size / current_rows.size < params.min_plane_fraction:
            break
        keep[current_rows[inl]] = False
        planes.append(plane)

    if not keep.any():
        raise EmptyResult("plane removal deleted every point")
    return PointCloud(pts[keep]), planes


def remove_planes(cloud, params: RansacParams) -> PointCloud:
    """Planar-background-free copy of `cloud`, original point order kept."""
    cleaned, _ = segment_planes(cloud, params)
    return cleaned
