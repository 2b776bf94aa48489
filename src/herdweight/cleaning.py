"""Planar background removal with seeded, pre-tested RANSAC.

Stall scans carry large flat structures (floor, walls) around the animal.
Each pass fits the dominant plane from random 3-point samples and strips
its inliers while they still account for at least ``min_plane_fraction``
of the remaining cloud. Every sample comes with one random probe point,
and only samples whose probe lies within the inlier threshold of their
plane are scored against the whole cloud (the T(1,1) pre-test of Matas &
Chum 2002). A sample finds a plane holding a fraction w of the points
when its three points and its probe are inliers, which happens with
chance w**4, not w**3. So the adaptive stop uses w**4: a pass stops once,
with probability ``_CONFIDENCE``, it would have drawn such a sample of
the best plane so far and of any plane holding ``min_plane_fraction`` of
the points (Fischler & Bolles 1981). ``max_iterations`` sets the draw
budget that caps a pass. The winning plane is refitted by total least
squares on its inliers, and re-scored, until its inlier set repeats
(LO-RANSAC; Chum, Matas & Kittler 2003), so a winning sample with one
point off the plane does not tilt the result. All randomness flows
through a seeded PCG64 stream. A pass takes a data-dependent stretch of
it, so results are reproducible per seed across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoordinateOverflow, DegenerateCloud, EmptyResult, TooFewPoints, check_settings, setting
from .pointcloud import PointCloud, as_points, axis_spans, covariance

# Hypotheses are scored in chunks of at most _HYPOTHESIS_CHUNK against
# blocks of at least _POINT_BLOCK points, the wider the smaller the chunk,
# so the (chunk, block) buffers take at most 0.6 MB whatever the cloud size,
# small enough to stay in a 2 MB L2 cache between passes. The stopping rule
# is checked after each chunk, so a smaller chunk stops nearer its bound; 64
# scored fewer hypotheses than 128 but was no faster on 3.8k-point scans,
# where each call's fixed cost takes over.
_HYPOTHESIS_CHUNK = 128
_POINT_BLOCK = 512
# Samples are drawn and pre-tested this many at a time, and the survivors
# of each block scored at once. Drawing a pass's whole budget up front
# wasted draws, and scoring every 128 samples left only a few survivors
# per call; 256 to 1024 timed alike on the bench scans.
_DRAW_BLOCK = 512
# Probability that a pass has drawn at least one all-inlier sample of the
# plane it must not miss, with an inlier probe, before it stops.
_CONFIDENCE = 0.99
# Below this min_plane_fraction the draw budget stops growing (_draw_budget).
_LEAST_BUDGET_FRACTION = 0.01
# Most TLS refits of a pass's winning plane.
_REFITS = 8


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
    ``max_iterations`` sets the draw budget of a pass: as many pre-tested
    samples as find a plane holding ``min_plane_fraction`` of the points
    at least as surely as ``max_iterations`` samples scored without the
    pre-test (5 017 at the defaults; `_draw_budget`); at most 10**9, so the
    budget (up to 100 times that) is finite. A pass stops sooner once it
    has seen enough (`fit_plane_ransac`). The defaults are sized
    for a stall scene: floor plus up to three walls.
    """

    inlier_threshold: float = setting(0.01, low=0, open_low=True)
    threshold_is_relative: bool = setting(True, choices=(True, False))
    max_iterations: int = setting(1000, low=1, high=10**9)
    min_plane_fraction: float = setting(0.2, low=0, high=1, open_low=True, open_high=True)
    max_planes: int = setting(4, low=1)
    seed: int = setting(0, low=0)

    __post_init__ = check_settings


def resolve_threshold(points, params: RansacParams) -> float:
    """Absolute inlier threshold in metres for this cloud."""
    if not params.threshold_is_relative:
        return params.inlier_threshold
    with np.errstate(over="ignore"):  # an overflow is raised below, not warned
        diagonal = float(np.linalg.norm(axis_spans(as_points(points))))
    if diagonal == 0.0:
        raise DegenerateCloud("all points coincide; bounding box has no diagonal")
    if diagonal == math.inf:
        raise CoordinateOverflow("coordinates too large: their bounding-box diagonal overflows float64")
    return params.inlier_threshold * diagonal


def _check_not_collinear(pts: np.ndarray) -> None:
    eigvals = np.linalg.eigvalsh(covariance(pts)[1])  # ascending
    if eigvals[1] <= 1e-12 * max(eigvals[2], 1e-300):
        raise DegenerateCloud("points are collinear (or coincident); no plane is defined")


def _tls_plane(pts: np.ndarray, rows) -> PlaneModel:
    """Total-least-squares plane of ``pts[rows]``: smallest eigenvector of
    their covariance. ``rows`` is an index or a mask."""
    centroid, cov = covariance(pts, rows)
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
) -> tuple[PlaneModel, np.ndarray] | None:
    """Fit the dominant plane; return it with the sorted inlier index array,
    or None when no sample passes the pre-test (the pass found no plane).

    Samples are drawn ``_DRAW_BLOCK`` at a time, each as four point
    indices: three for the plane and one probe. A sample is dropped unless
    its three points span a plane and its probe lies within ``threshold``
    of it. Each block's survivors are then scored in full, in draw order,
    at most ``_HYPOTHESIS_CHUNK`` to a `_score_hypotheses` call. After
    each call the pass stops once the samples examined, dropped ones
    included, reach ``log(1 - p) / log(1 - w**4)``, with ``p =
    _CONFIDENCE`` and ``w`` the larger of the best inlier fraction so far
    and ``min_plane_fraction``. It never draws more than `_draw_budget`
    samples. No samples are drawn beyond the stopping bound of the moment,
    so the stretch of the random stream a pass takes depends on the data.

    The winner has the most inliers among those scored (ties go to the
    earliest). It is refitted by total least squares on its inliers and
    the refitted plane re-scored, until the inlier set repeats, or holds
    less than ``min_plane_fraction`` of the points, or after ``_REFITS``
    refits; the inliers returned are those of the plane returned.
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
    best, valid = _search(pts, params, rng, threshold)
    if best is None:
        if valid:
            return None
        raise DegenerateCloud("no valid 3-point hypothesis found")
    normal, length, a = best
    unit = normal / length
    return _refine(pts, unit, float(-unit @ a), threshold, params.min_plane_fraction * n)


def _search(pts, params, rng, threshold) -> tuple[tuple | None, int]:
    """The sampling loop of `fit_plane_ransac`. Returns the best scored
    sample as (normal, its length, its first point), or None if no sample
    passed the pre-test, and the number of samples drawn that span a plane."""
    n = pts.shape[0]
    pts_t = np.ascontiguousarray(pts.T)  # (3, n): sampling and scoring read it by coordinate
    need = min(_draw_budget(params), _samples_needed(params.min_plane_fraction))
    drawn = valid = 0
    best, best_count = None, -1
    while drawn < need:
        size = min(_DRAW_BLOCK, need - drawn)
        normals, lengths, a, survivors, block_valid = _pretest(
            pts_t, rng.integers(0, n, size=(size, 4)), threshold)
        valid += block_valid
        for lo in range(0, survivors.size, _HYPOTHESIS_CHUNK):
            rows = survivors[lo : lo + _HYPOTHESIS_CHUNK]
            counts = _score_hypotheses(pts_t.T, normals, lengths, a, rows, threshold)
            top = int(np.argmax(counts))  # argmax: the earliest among equals
            if counts[top] > best_count:  # strict: an earlier chunk keeps a tie
                best, best_count = (normals[rows[top]], lengths[rows[top]], a[rows[top]]), int(counts[top])
            need = min(need, _samples_needed(max(best_count / n, params.min_plane_fraction)))
            after = lo + _HYPOTHESIS_CHUNK  # samples before survivor `after` are examined
            if after < survivors.size and drawn + survivors[after] >= need:
                break
        drawn += size
    return best, valid


def _draw_budget(params: RansacParams) -> int:
    """Samples a pass may draw: D = ceil(M * log(1 - w**3) / log(1 - w**4))
    for M = ``max_iterations`` and w = ``min_plane_fraction``, so that
    (1 - w**4)**D <= (1 - w**3)**M. A pass that draws all D samples thus
    misses a plane holding a fraction w of the points no more often than
    M samples without the pre-test did. Below w = 0.01 the ratio is taken
    at 0.01 (about 100): there M samples found such a plane with a
    probability under M * 1e-6 anyway."""
    w = max(params.min_plane_fraction, _LEAST_BUDGET_FRACTION)
    return math.ceil(params.max_iterations * math.log1p(-(w**3)) / math.log1p(-(w**4)))


def _samples_needed(inlier_fraction: float) -> float:
    """Samples after which, with probability ``_CONFIDENCE``, one of them
    has three inliers and an inlier probe, for a plane holding
    `inlier_fraction` of the points."""
    found = inlier_fraction**4  # chance that one sample finds the plane
    if found >= 1.0:
        return 0
    if found == 0.0:  # underflow of a tiny fraction: no bound below the budget
        return math.inf
    return math.ceil(math.log1p(-_CONFIDENCE) / math.log1p(-found))


def _pretest(pts_t: np.ndarray, draws: np.ndarray, threshold: float) -> tuple:
    """Pre-test the samples of `draws`, rows of three point indices and a
    probe, on the (3, n) cloud ``pts_t``. Returns the samples' plane
    normals (not unit), the normals' lengths, their first points, the rows
    that span a plane and whose probe lies within `threshold` of it, and the
    number that span a plane. Repeated indices give an exactly zero normal,
    so such a sample spans none."""
    corners = pts_t.take(draws.T, axis=1)  # (3 coordinates, 4 points, samples)
    rel = corners[:, 1:] - corners[:, :1]  # b - a, c - a and probe - a
    (ux, uy, uz), (vx, vy, vz) = rel[:, 0], rel[:, 1]
    normals = np.empty((3, draws.shape[0]))  # (b - a) x (c - a)
    np.subtract(uy * vz, uz * vy, out=normals[0])
    np.subtract(uz * vx, ux * vz, out=normals[1])
    np.subtract(ux * vy, uy * vx, out=normals[2])
    lengths = np.sqrt(np.einsum("ij,ij->j", normals, normals))
    valid = lengths > 1e-300
    near = np.abs(np.einsum("ij,ij->j", normals, rel[:, 2])) <= threshold * lengths
    return (normals.T, lengths, corners[:, 0].T, np.flatnonzero(valid & near),
            int(np.count_nonzero(valid)))


def _refine(pts, unit, offset, threshold, least) -> tuple[PlaneModel, np.ndarray]:
    """TLS refits of the plane ``unit . p + offset = 0`` on its inliers until
    the inlier set repeats, at most ``_REFITS`` of them. They also stop once
    a refitted plane holds fewer than `least` points: such a plane is not
    removed, and on a curved surface the refits can wander without end.
    Every round shares one distance buffer and two inlier masks."""
    dist = np.empty(pts.shape[0])
    mask, last = np.empty(pts.shape[0], dtype=bool), np.empty(pts.shape[0], dtype=bool)

    def inliers_of(normal, off, out):
        np.matmul(pts, normal, out=dist)
        np.add(dist, off, out=dist)
        np.abs(dist, out=dist)
        np.less_equal(dist, threshold, out=out)

    inliers_of(unit, offset, mask)
    for _ in range(_REFITS):
        mask, last = last, mask
        plane = _tls_plane(pts, last)
        inliers_of(plane.normal, plane.offset, mask)
        if np.array_equal(mask, last) or np.count_nonzero(mask) < least:
            break
    return plane, np.flatnonzero(mask)


def _score_hypotheses(pts, normals, lengths, a, rows, threshold) -> np.ndarray:
    """Inlier count ``#{p : |p . n + d| <= threshold}`` of each hypothesis in `rows`.

    Blocks of ``_HYPOTHESIS_CHUNK * _POINT_BLOCK // rows.size`` points, at least ``_POINT_BLOCK``,
    keep the buffers within ``_HYPOTHESIS_CHUNK * _POINT_BLOCK`` cells whatever the cloud size.
    """
    n = pts.shape[0]
    pts_t = np.ascontiguousarray(pts.T)  # (3, n): each block is a strided BLAS operand
    block = min(max(_POINT_BLOCK, _HYPOTHESIS_CHUNK * _POINT_BLOCK // rows.size), n)
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
        counts += np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)  # a block may pass 32 767
    return counts


def segment_planes(cloud, params: RansacParams) -> tuple[PointCloud, list[PlaneModel]]:
    """Iteratively strip dominant planes; return the residue and the planes.

    The relative threshold is resolved once against the input cloud, so
    every pass uses the same absolute tolerance.
    """
    cloud = PointCloud.of_checked(as_points(cloud))  # checked here once, not again by each pass
    pts = cloud.points
    keep = np.ones(pts.shape[0], dtype=bool)
    threshold = resolve_threshold(cloud, params)
    rng = np.random.default_rng(params.seed)
    planes: list[PlaneModel] = []

    while len(planes) < params.max_planes:
        current_rows = np.flatnonzero(keep)
        if current_rows.size < 3:
            break
        # a pass over the whole cloud needs no copy of it, which lowers the peak
        current = cloud if current_rows.size == pts.shape[0] else PointCloud.of_checked(pts[current_rows])
        try:
            found = fit_plane_ransac(current, params, rng=rng, threshold=threshold)
        except (DegenerateCloud, TooFewPoints):
            if planes:
                break
            raise
        if found is None or found[1].size / current_rows.size < params.min_plane_fraction:
            break
        plane, inl = found
        keep[current_rows[inl]] = False
        planes.append(plane)

    if not keep.any():
        raise EmptyResult("plane removal deleted every point")
    return PointCloud.of_checked(pts[keep]), planes


def remove_planes(cloud, params: RansacParams) -> PointCloud:
    """Planar-background-free copy of `cloud`, original point order kept."""
    cleaned, _ = segment_planes(cloud, params)
    return cleaned
