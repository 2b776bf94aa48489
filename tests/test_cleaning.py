"""RANSAC plane fitting and removal against generator-labelled scenes."""

import math
import tracemalloc

import numpy as np
import pytest

from herdweight import cleaning
from herdweight.cleaning import RansacParams, fit_plane_ransac, remove_planes, segment_planes
from herdweight.errors import DegenerateCloud, EmptyResult, TooFewPoints
from herdweight.pointcloud import PointCloud
from herdweight.synthetic import ellipsoid_cloud, stall_scene


def _floor_scene(seed=0):
    rng = np.random.default_rng(seed)
    floor = np.column_stack([rng.uniform(0, 2, 1000), rng.uniform(0, 1, 1000), np.zeros(1000)])
    above = np.column_stack([rng.uniform(0, 2, 50), rng.uniform(0, 1, 50), rng.uniform(0.5, 1.0, 50)])
    return np.vstack([floor, above])


def test_dominant_plane_exact():
    pts = _floor_scene()
    params = RansacParams(inlier_threshold=0.01, threshold_is_relative=False, seed=3)
    plane, inliers = fit_plane_ransac(PointCloud(pts), params)
    assert abs(abs(plane.normal[2]) - 1.0) < 1e-9
    assert abs(plane.offset) <= 1e-9
    assert inliers.size == 1000
    assert (inliers < 1000).all()


def test_three_points_exact_fit():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    plane, inliers = fit_plane_ransac(PointCloud(pts), RansacParams(seed=0))
    assert inliers.size == 3
    assert np.abs(plane.distances(pts)).max() < 1e-12


def test_collinear_cloud_degenerate():
    t = np.linspace(0, 1, 10)
    pts = np.column_stack([t, 2 * t, -t])
    with pytest.raises(DegenerateCloud):
        fit_plane_ransac(PointCloud(pts), RansacParams(seed=0))


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        fit_plane_ransac(PointCloud(np.array([[0.0, 0, 0], [1, 0, 0]])), RansacParams())


def test_floor_plus_blob_recall_and_retention():
    rng = np.random.default_rng(7)
    n_floor, n_blob = 1200, 800  # floor is 60% of the scene
    floor = np.column_stack([rng.uniform(0, 3, n_floor), rng.uniform(0, 3, n_floor), np.zeros(n_floor)])
    blob = ellipsoid_cloud((0.8, 0.35, 0.45), n_blob, rng, center=(1.5, 1.5, 0.9)).points
    pts = np.vstack([floor, blob])
    labels = np.concatenate([np.ones(n_floor, dtype=int), np.zeros(n_blob, dtype=int)])
    perm = rng.permutation(len(pts))
    pts, labels = pts[perm], labels[perm]

    cleaned = remove_planes(PointCloud(pts), RansacParams(seed=11))
    kept = {tuple(p) for p in cleaned.points}
    removed = np.array([tuple(p) not in kept for p in pts])
    plane_recall = removed[labels == 1].mean()
    blob_retention = 1.0 - removed[labels == 0].mean()
    assert plane_recall >= 0.99
    assert blob_retention >= 0.99


def test_two_walls_and_blob():
    cloud, labels = stall_scene(seed=9)
    cleaned, planes = segment_planes(cloud, RansacParams(seed=4))
    assert len(planes) == 3
    kept = {tuple(p) for p in cleaned.points}
    removed = np.array([tuple(p) not in kept for p in cloud.points])
    assert removed[labels > 0].mean() >= 0.99
    assert 1.0 - removed[labels == 0].mean() >= 0.99


def test_output_is_subset_in_original_order():
    cloud, _ = stall_scene(seed=1, n_floor=800, n_wall=400, n_blob=600)
    cleaned = remove_planes(cloud, RansacParams(seed=0))
    pos = {tuple(p): i for i, p in enumerate(cloud.points)}
    indices = [pos[tuple(p)] for p in cleaned.points]
    assert indices == sorted(indices)


def test_idempotence_and_determinism():
    cloud, _ = stall_scene(seed=2, n_floor=800, n_wall=400, n_blob=600)
    params = RansacParams(seed=6)
    once = remove_planes(cloud, params)
    again = remove_planes(cloud, params)
    np.testing.assert_array_equal(once.points, again.points)
    twice = remove_planes(once, params)
    np.testing.assert_array_equal(twice.points, once.points)


def test_remove_everything_is_an_error():
    rng = np.random.default_rng(0)
    floor = np.column_stack([rng.uniform(0, 1, 500), rng.uniform(0, 1, 500), np.zeros(500)])
    with pytest.raises(EmptyResult):
        remove_planes(PointCloud(floor), RansacParams(seed=0))


def test_params_validation():
    with pytest.raises(ValueError):
        RansacParams(inlier_threshold=0.0)
    with pytest.raises(ValueError):
        RansacParams(min_plane_fraction=1.0)


def _full_matrix_counts(pts, normals, lengths, a, rows, threshold):
    """Reference scoring: one (n, 256) distance matrix per hypothesis chunk."""
    counts = []
    for start in range(0, rows.size, 256):
        hyp = rows[start : start + 256]
        unit = normals[hyp] / lengths[hyp, None]
        offs = -np.einsum("ij,ij->i", unit, a[hyp])
        counts.append((np.abs(pts @ unit.T + offs) <= threshold).sum(axis=0))
    return np.concatenate(counts)


@pytest.mark.parametrize("n_floor, n_blob", [(150, 100), (1000, 777), (9000, 777)])
def test_blocked_scoring_matches_full_matrix(monkeypatch, n_floor, n_blob):
    """Every hypothesis gets the full-matrix inlier count, so the planes and
    inliers are the same; cloud sizes are not multiples of the point block,
    and the smallest cloud fits in one block."""
    cloud, _ = stall_scene(seed=n_floor, n_floor=n_floor, n_wall=n_floor // 3, n_blob=n_blob)
    noisy = cloud.points + np.random.default_rng(1).normal(scale=0.01, size=cloud.points.shape)
    assert noisy.shape[0] % cleaning._POINT_BLOCK != 0
    params = RansacParams(seed=3)
    blocked = fit_plane_ransac(noisy, params)
    blocked_residue, blocked_planes = segment_planes(noisy, params)

    scored = []

    def both(*args):
        counts = _full_matrix_counts(*args)
        np.testing.assert_array_equal(blocked_score(*args), counts)
        scored.append(counts.size)
        return counts

    blocked_score = cleaning._score_hypotheses
    monkeypatch.setattr(cleaning, "_score_hypotheses", both)
    plane, inliers = fit_plane_ransac(noisy, params)
    residue, planes = segment_planes(noisy, params)
    assert (len(scored) >= 1 + len(planes) + (len(planes) < params.max_planes)
            and max(scored) <= cleaning._HYPOTHESIS_CHUNK)
    assert np.array_equal(plane.normal, blocked[0].normal) and plane.offset == blocked[0].offset
    np.testing.assert_array_equal(inliers, blocked[1])
    np.testing.assert_array_equal(residue.points, blocked_residue.points)
    assert [(q.normal.tolist(), q.offset) for q in planes] == [
        (q.normal.tolist(), q.offset) for q in blocked_planes]


def _score_all(pts, params, threshold):
    """Inline reference without the stopping rule: the draws of
    fit_plane_ransac, every valid hypothesis scored. Returns the plane, its
    inliers and the valid hypothesis rows."""
    samples = np.random.default_rng(params.seed).integers(0, len(pts), size=(params.max_iterations, 3))
    a = pts[samples[:, 0]]
    normals = np.cross(pts[samples[:, 1]] - a, pts[samples[:, 2]] - a)
    lengths = np.linalg.norm(normals, axis=1)
    distinct = ((samples[:, 0] != samples[:, 1]) & (samples[:, 0] != samples[:, 2])
                & (samples[:, 1] != samples[:, 2]))
    rows = np.flatnonzero(distinct & (lengths > 1e-300))
    best = rows[np.argmax(_full_matrix_counts(pts, normals, lengths, a, rows, threshold))]
    unit = normals[best] / lengths[best]
    inliers = np.flatnonzero(np.abs(pts @ unit - unit @ a[best]) <= threshold)
    plane = cleaning._tls_plane(pts[inliers])
    return plane, np.flatnonzero(plane.distances(pts) <= threshold), rows


def _spy_on_scoring(monkeypatch):
    """List that collects the hypothesis rows of every scoring call."""
    calls = []
    real = cleaning._score_hypotheses

    def spy(pts, normals, lengths, a, rows, threshold):
        calls.append(rows.copy())
        return real(pts, normals, lengths, a, rows, threshold)

    monkeypatch.setattr(cleaning, "_score_hypotheses", spy)
    return calls


def _blob():
    return ellipsoid_cloud((0.8, 0.4, 0.5), 1500, np.random.default_rng(5)).points


def test_dominant_plane_stops_early_with_the_full_scan_result(monkeypatch):
    """A noise-free plane holding 95 % of the points needs only a few
    samples; stopping after the first chunk keeps the plane and inliers
    that scoring all max_iterations hypotheses gives."""
    pts = _floor_scene()
    params = RansacParams(inlier_threshold=0.01, threshold_is_relative=False, seed=3)
    ref_plane, ref_inliers, valid = _score_all(pts, params, 0.01)
    calls = _spy_on_scoring(monkeypatch)
    plane, inliers = fit_plane_ransac(pts, params)
    scored = np.concatenate(calls)
    assert scored.size <= cleaning._HYPOTHESIS_CHUNK < params.max_iterations
    np.testing.assert_array_equal(scored, valid[: scored.size])
    assert np.array_equal(plane.normal, ref_plane.normal) and plane.offset == ref_plane.offset
    np.testing.assert_array_equal(inliers, ref_inliers)


def test_no_dominant_plane_is_noop(monkeypatch):
    """With no plane in the cloud, nothing is removed, and the pass stops
    after the log(0.01)/log(1 - 0.2**3) = 573.4 samples that would catch a
    plane of min_plane_fraction, rounded up to whole chunks."""
    blob = _blob()
    params = RansacParams(seed=2)
    bound = math.log(1 - 0.99) / math.log(1 - params.min_plane_fraction**3)
    drawn = math.ceil(bound / cleaning._HYPOTHESIS_CHUNK) * cleaning._HYPOTHESIS_CHUNK
    assert 573 < bound < 574 and drawn == 640 < params.max_iterations
    _, _, valid = _score_all(blob, params, cleaning.resolve_threshold(blob, params))
    calls = _spy_on_scoring(monkeypatch)
    cleaned = remove_planes(PointCloud(blob), params)
    np.testing.assert_array_equal(cleaned.points, blob)
    np.testing.assert_array_equal(np.concatenate(calls), valid[valid < drawn])
    assert [c.max() // cleaning._HYPOTHESIS_CHUNK for c in calls] == list(range(len(calls)))


def test_max_iterations_caps_the_stopping_rule(monkeypatch):
    """Below the bound, exactly the first max_iterations samples are
    scored, a chunk at a time, and the result is the full scan's."""
    blob = _blob()
    params = RansacParams(seed=2, max_iterations=300)
    threshold = cleaning.resolve_threshold(blob, params)
    ref_plane, ref_inliers, valid = _score_all(blob, params, threshold)
    calls = _spy_on_scoring(monkeypatch)
    plane, inliers = fit_plane_ransac(blob, params)
    np.testing.assert_array_equal(np.concatenate(calls), valid)
    assert [(c.min() // cleaning._HYPOTHESIS_CHUNK, c.max() // cleaning._HYPOTHESIS_CHUNK)
            for c in calls] == [(0, 0), (1, 1), (2, 2)]
    assert np.array_equal(plane.normal, ref_plane.normal) and plane.offset == ref_plane.offset
    np.testing.assert_array_equal(inliers, ref_inliers)


def test_scoring_memory_does_not_grow_with_points():
    """Scoring works in fixed-size buffers: the tracemalloc peak of a pass
    per point falls as the cloud grows, where a per-point distance matrix
    keeps it flat at several kB."""
    params = RansacParams(seed=0, max_iterations=cleaning._HYPOTHESIS_CHUNK, max_planes=1)
    per_point = []
    for n in (20_000, 80_000):
        cloud, _ = stall_scene(seed=1, n_floor=n // 2, n_wall=n // 8, n_blob=n // 4)
        tracemalloc.start()
        try:
            segment_planes(cloud, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_point.append(peak / cloud.n_points)
    assert per_point[1] < 0.8 * per_point[0], per_point
