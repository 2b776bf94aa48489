"""RANSAC plane fitting and removal against generator-labelled scenes."""

import math
import tracemalloc

import numpy as np
import pytest

from herdweight import cleaning
from herdweight.cleaning import RansacParams, fit_plane_ransac, remove_planes, segment_planes
from herdweight.errors import CoordinateOverflow, DegenerateCloud, EmptyResult, TooFewPoints
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


@pytest.mark.parametrize("scale", [1e160, 1e308])
def test_overflowing_bounding_box_diagonal_is_an_error(scale):
    """A relative threshold needs the bounding-box diagonal; where it
    overflows float64 (in the norm, or already in a span), resolving it
    raises CoordinateOverflow, not a numpy warning."""
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) * scale
    with pytest.raises(CoordinateOverflow, match="diagonal overflows"):
        cleaning.resolve_threshold(pts, RansacParams())


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


def _score_all(pts, params, threshold, extra=0):
    """Inline reference without the stopping rule: fit_plane_ransac's draws
    over its whole draw budget (and `extra` rows more), every sample whose
    probe passes the pre-test scored, then the same TLS refits. Returns the
    plane, its inliers, the draws, the survivors' sample numbers and their
    plane normals."""
    w, m = params.min_plane_fraction, params.max_iterations
    budget = math.ceil(m * math.log1p(-w**3) / math.log1p(-w**4))
    draws = np.random.default_rng(params.seed).integers(0, len(pts), size=(budget + extra, 4))
    a, b, c, probe = (pts[draws[:budget, k]] for k in range(4))
    normals = np.cross(b - a, c - a)
    lengths = np.linalg.norm(normals, axis=1)
    near = np.abs(np.einsum("ij,ij->i", normals, probe - a)) <= threshold * lengths
    rows = np.flatnonzero((lengths > 1e-300) & near)
    best = rows[np.argmax(_full_matrix_counts(pts, normals, lengths, a, rows, threshold))]
    unit = normals[best] / lengths[best]
    inliers = np.flatnonzero(np.abs(pts @ unit - unit @ a[best]) <= threshold)
    for _ in range(cleaning._REFITS):
        plane = cleaning._tls_plane(pts, inliers)
        refit = np.flatnonzero(plane.distances(pts) <= threshold)
        if np.array_equal(refit, inliers) or refit.size < params.min_plane_fraction * len(pts):
            break
        inliers = refit
    return plane, refit, draws, rows, normals[rows]


def _spy_on_scoring(monkeypatch):
    """List that collects the plane normals of every scoring call."""
    calls = []
    real = cleaning._score_hypotheses

    def spy(pts, normals, lengths, a, rows, threshold):
        calls.append(normals[rows].copy())
        return real(pts, normals, lengths, a, rows, threshold)

    monkeypatch.setattr(cleaning, "_score_hypotheses", spy)
    return calls


def _blob():
    return ellipsoid_cloud((0.8, 0.4, 0.5), 1500, np.random.default_rng(5)).points


def _next_draw_is(rng, pts, draws, row):
    """Whether `rng` goes on with draws[row]: the pass took rows 0..row-1."""
    return np.array_equal(rng.integers(0, len(pts), size=(1, 4))[0], draws[row])


def test_dominant_plane_stops_early_with_the_full_scan_result(monkeypatch):
    """A noise-free plane holding 95 % of the points needs only a few
    samples; stopping inside the first block keeps the plane and inliers
    that scoring every survivor of the draw budget gives."""
    pts = _floor_scene()
    params = RansacParams(inlier_threshold=0.01, threshold_is_relative=False, seed=3)
    ref_plane, ref_inliers, _, _, survivors = _score_all(pts, params, 0.01)
    calls = _spy_on_scoring(monkeypatch)
    plane, inliers = fit_plane_ransac(pts, params)
    scored = np.concatenate(calls)
    assert len(calls) == 1 and len(scored) == cleaning._HYPOTHESIS_CHUNK < len(survivors)
    np.testing.assert_array_equal(scored, survivors[: len(scored)])
    assert np.array_equal(plane.normal, ref_plane.normal) and plane.offset == ref_plane.offset
    np.testing.assert_array_equal(inliers, ref_inliers)


def test_no_dominant_plane_is_noop(monkeypatch):
    """With no plane in the cloud, nothing is removed, and the pass stops
    after the log(0.01)/log(1 - 0.2**4) = 2875.9 samples that would find a
    plane of min_plane_fraction, scoring each block's survivors at once."""
    blob = _blob()
    params = RansacParams(seed=2)
    bound = math.log(1 - 0.99) / math.log(1 - params.min_plane_fraction**4)
    assert 2875 < bound < 2876 < cleaning._draw_budget(params)
    threshold = cleaning.resolve_threshold(blob, params)
    _, _, draws, rows, survivors = _score_all(blob, params, threshold)
    calls = _spy_on_scoring(monkeypatch)
    rng = np.random.default_rng(params.seed)
    fit_plane_ransac(blob, params, rng=rng, threshold=threshold)
    assert _next_draw_is(rng, blob, draws, 2876)
    np.testing.assert_array_equal(np.concatenate(calls), survivors[rows < 2876])
    blocks, first = [], 0
    for c in calls:
        blocks.append(set(rows[first : first + len(c)] // cleaning._DRAW_BLOCK))
        first += len(c)
    assert blocks == [{b} for b in range(math.ceil(2876 / cleaning._DRAW_BLOCK))]
    calls.clear()
    cleaned = remove_planes(PointCloud(blob), params)
    np.testing.assert_array_equal(cleaned.points, blob)
    assert len(calls) == len(blocks)


def test_max_iterations_caps_the_stopping_rule(monkeypatch):
    """Below the bound, exactly the draw budget of max_iterations = 300
    is drawn and every survivor scored, and the result is the full scan's."""
    blob = _blob()
    params = RansacParams(seed=2, max_iterations=300)
    budget = cleaning._draw_budget(params)
    assert budget == 1505 < math.log(0.01) / math.log(1 - params.min_plane_fraction**4)
    threshold = cleaning.resolve_threshold(blob, params)
    ref_plane, ref_inliers, draws, _, survivors = _score_all(blob, params, threshold, extra=1)
    calls = _spy_on_scoring(monkeypatch)
    rng = np.random.default_rng(params.seed)
    plane, inliers = fit_plane_ransac(blob, params, rng=rng)
    assert _next_draw_is(rng, blob, draws, budget)
    np.testing.assert_array_equal(np.concatenate(calls), survivors)
    assert np.array_equal(plane.normal, ref_plane.normal) and plane.offset == ref_plane.offset
    np.testing.assert_array_equal(inliers, ref_inliers)


@pytest.mark.parametrize("max_iterations, min_plane_fraction",
                         [(1000, 0.2), (300, 0.2), (1, 0.2), (1000, 0.05), (50, 0.6), (1000, 0.999)])
def test_draw_budget_keeps_the_capped_detection_probability(max_iterations, min_plane_fraction):
    """A pass that draws the whole budget D misses a plane holding a
    fraction w >= min_plane_fraction of the points with probability
    (1 - w**4)**D, never above the (1 - w**3)**M of M = max_iterations
    samples scored without the pre-test; D - 1 samples would not do."""
    params = RansacParams(max_iterations=max_iterations, min_plane_fraction=min_plane_fraction)
    d, m = cleaning._draw_budget(params), max_iterations
    w = np.linspace(min_plane_fraction, 1, 400, endpoint=False)
    assert (d * np.log1p(-w**4) <= m * np.log1p(-w**3) * (1 - 1e-12)).all()
    w = min_plane_fraction
    assert (d - 1) * math.log1p(-w**4) > m * math.log1p(-w**3)
    if params == RansacParams():
        assert d == 5017


@pytest.mark.parametrize("seed", range(5))
def test_no_surviving_sample_finds_no_plane(seed):
    """With a threshold no probe meets, no sample survives the pre-test:
    the pass finds no plane, and removal returns the cloud unchanged."""
    pts = ellipsoid_cloud((0.8, 0.4, 0.5), 20_000, np.random.default_rng(seed)).points
    params = RansacParams(inlier_threshold=1e-9, threshold_is_relative=False)
    assert fit_plane_ransac(pts, params) is None
    cleaned, planes = segment_planes(pts, params)
    assert planes == []
    np.testing.assert_array_equal(cleaned.points, pts)


def test_reported_planes_keep_their_axes():
    """The refitted planes of seeded stall scenes lie within a small angle
    of their true axis-aligned planes: at most 0.0885 degrees measured,
    against 0.161 with a single TLS refit of the winning sample. Points of
    the neighbouring planes within the threshold are what tilt them."""
    worst = 0.0
    for seed in range(20):
        cloud, _ = stall_scene(seed=seed)
        _, planes = segment_planes(cloud, RansacParams())
        assert len(planes) == 3
        for plane in planes:
            worst = max(worst, math.degrees(math.acos(min(1.0, np.abs(plane.normal).max()))))
    assert worst <= 0.09, worst


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


def test_scoring_counts_past_int16():
    """One hypothesis is scored against blocks wider than 32 767 points, so
    its count must not wrap: all 40 001 coplanar points are inliers."""
    rng = np.random.default_rng(2)
    n = 40_001
    pts = np.column_stack([rng.uniform(0, 3, n), rng.uniform(0, 2, n), np.zeros(n)])
    counts = cleaning._score_hypotheses(pts, np.array([[0.0, 0.0, 2.0]]), np.array([2.0]),
                                        np.zeros((1, 3)), np.array([0]), 1e-9)
    assert counts.tolist() == [n]


@pytest.mark.parametrize("r, n", [(1, 3_781), (1, 70_001), (13, 3_781), (13, 9_001),
                                  (128, 3_781), (128, 9_001)])
def test_score_hypotheses_matches_full_matrix(r, n):
    """Counts equal the full matrix's whatever the chunk size, on clouds
    that end in a part block."""
    cloud, _ = stall_scene(seed=r, n_floor=n // 2, n_wall=n // 8, n_blob=n - n // 2 - 2 * (n // 8))
    pts = cloud.points + np.random.default_rng(r).normal(scale=0.01, size=cloud.points.shape)
    assert pts.shape[0] == n
    block = max(cleaning._POINT_BLOCK, cleaning._HYPOTHESIS_CHUNK * cleaning._POINT_BLOCK // r)
    assert n % block != 0
    draws = np.random.default_rng(n).integers(0, n, size=(r, 3))
    a, b, c = (pts[draws[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    lengths = np.linalg.norm(normals, axis=1)
    rows = np.arange(r)
    threshold = 0.02
    counts = cleaning._score_hypotheses(pts, normals, lengths, a, rows, threshold)
    np.testing.assert_array_equal(counts, _full_matrix_counts(pts, normals, lengths, a, rows, threshold))


def test_small_chunk_on_a_chute_scan_is_one_block(monkeypatch):
    """A chunk of 13 hypotheses on a 3 780-point scan takes one distance
    block (one matmul): the point block widens as the chunk shrinks."""
    pts = _blob()[:1500]
    pts = np.vstack([pts, pts + 2.0, pts[:780] - 2.0])
    assert pts.shape[0] == 3_780
    calls = []
    real = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(cleaning.np, "matmul", counting)
    rows = np.arange(13)
    normals = np.tile([0.0, 0.0, 1.0], (13, 1))
    counts = cleaning._score_hypotheses(pts, normals, np.ones(13), pts[:13], rows, 0.01)
    assert len(calls) == 1 and calls[0] == (3, 3_780) and counts.shape == (13,)
