"""Acceptance suite: one test (or pair) per criterion, with stated
tolerances and runtime bounds. Each prints a PASS line on success; run

    pytest tests/test_acceptance.py -v -s

to see them. A4/A5 share one module-scoped synthetic herd and one nested-CV
pass over it: A4 reads its stack report from that pass and A5 its sweep.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import herdweight as hw
from herdweight.cleaning import RansacParams, remove_planes, segment_planes
from herdweight.cli import main
from herdweight.features import FEATURE_NAMES, extract_feature_vector
from herdweight.fusion import (
    FusionParams,
    SimulationConfig,
    ViewUpdateSet,
    agreement_fuse,
    average_fuse,
    simulate_trajectory,
)
from herdweight.pointcloud import PointCloud, XYZ_ASCII, save_point_cloud
from herdweight.synthetic import ellipsoid_cloud, make_herd, random_rotation, stall_scene

HERD_SEED = 2024


class _Clock:
    def __init__(self, budget_s: float, spent_s: float = 0.0):
        """``spent_s``: seconds already spent in fixtures on this test's work."""
        self.budget = budget_s
        self.start = time.perf_counter() - spent_s

    def done(self, label: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{label}: {elapsed:.1f}s exceeds {self.budget}s budget"
        print(f"\n[{label}] PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def herd():
    ids, clouds, weights = make_herd(n_animals=100, points_per_animal=2000, seed=HERD_SEED)
    X = np.vstack([extract_feature_vector(c).values for c in clouds])
    return X, weights


def test_a1_fusion_algebra_suite():
    clock = _Clock(5.0)
    rng = np.random.default_rng(101)
    u = ViewUpdateSet(rng.normal(size=(5, 12, 6)))
    params = FusionParams(beta=2.0, epsilon=1e-8)
    res = agreement_fuse(u, params)

    # weight normalisation at 1e-12
    np.testing.assert_allclose(res.weights.sum(axis=0), 1.0, atol=1e-12)

    # beta = 0 equals average fusion bit-exactly on the fused tensor
    flat = agreement_fuse(u, FusionParams(beta=0.0, epsilon=1e-8))
    avg = average_fuse(u, FusionParams(beta=0.0, epsilon=1e-8))
    assert np.array_equal(flat.fused, avg.fused)

    # identical views pass through untouched with uniform weights
    one = rng.normal(size=(12, 6))
    same = agreement_fuse(ViewUpdateSet(np.stack([one] * 4)), params)
    assert (same.weights == 0.25).all()
    np.testing.assert_allclose(same.fused, one, atol=1e-14)

    # permutation equivariance
    perm = rng.permutation(5)
    permuted = agreement_fuse(ViewUpdateSet(u.updates[perm]), params)
    np.testing.assert_allclose(permuted.weights, res.weights[perm], atol=1e-12)
    np.testing.assert_allclose(permuted.fused, res.fused, atol=1e-12)

    # shift stability
    shifted = agreement_fuse(ViewUpdateSet(u.updates + 2.5), params)
    np.testing.assert_allclose(shifted.weights, res.weights, atol=1e-12)
    np.testing.assert_allclose(shifted.fused, res.fused + 2.5, atol=1e-12)

    # convexity per location/channel
    assert (res.fused >= u.updates.min(axis=0) - 1e-12).all()
    assert (res.fused <= u.updates.max(axis=0) + 1e-12).all()

    # beta -> inf concentrates on the argmin deviation view (1e-6 at 1e6)
    sharp = agreement_fuse(u, FusionParams(beta=1e6, epsilon=1e-8))
    winners = sharp.deviations.argmin(axis=0)
    onehot = np.zeros_like(sharp.weights)
    onehot[winners, np.arange(u.n_locations)] = 1.0
    np.testing.assert_allclose(sharp.weights, onehot, atol=1e-6)

    # hand-derived three-view example
    tri = ViewUpdateSet(np.array([[[0.0]], [[0.0]], [[3.0]]]))
    hand = agreement_fuse(tri, FusionParams(beta=1.0, epsilon=1e-30))
    assert hand.fused[0, 0] == pytest.approx(0.46608, abs=1e-4)
    clock.done("A1 fusion algebra")


def test_a2_trajectory_convergence():
    clock = _Clock(10.0)
    reached = 0
    curves = []
    for seed in range(20):
        trace = simulate_trajectory(SimulationConfig(steps=60, seed=seed))
        curves.append(trace.mean_agreement.mean(axis=1))
        if trace.mean_agreement[-1].mean() >= 0.99:
            reached += 1
    assert reached >= 19, f"only {reached}/20 seeds reached 0.99 final agreement"
    # non-decreasing in expectation: the 20-seed average curve may only dip
    # within Monte-Carlo noise
    avg = np.mean(curves, axis=0)
    assert (np.diff(avg) > -0.01).all()
    assert avg[-1] > avg[0]
    clock.done("A2 trajectory convergence")


def test_a3_feature_oracle_suite():
    clock = _Clock(30.0)
    cube = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
    tetra = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])

    hull_cube = hw.convex_hull(PointCloud(cube))
    assert hull_cube.volume == pytest.approx(1.0, abs=1e-9)
    assert hull_cube.surface_area == pytest.approx(6.0, abs=1e-9)
    hull_tet = hw.convex_hull(PointCloud(tetra))
    assert hull_tet.volume == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert hull_tet.surface_area == pytest.approx(1.5 + math.sqrt(3) / 2, abs=1e-9)

    # random-sphere hull volume vs a 10^6-sample containment oracle
    rng = np.random.default_rng(303)
    dirs = rng.normal(size=(5000, 3))
    pts = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    pts *= rng.uniform(0, 1, (5000, 1)) ** (1 / 3)
    ours = hw.convex_hull(PointCloud(pts)).volume
    qhull = ConvexHull(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    n_mc = 1_000_000
    hits = 0
    for _ in range(20):  # chunked: the full facet matrix would be GBs
        samples = rng.uniform(lo, hi, size=(n_mc // 20, 3))
        inside = (samples @ qhull.equations[:, :3].T + qhull.equations[:, 3] <= 1e-12).all(axis=1)
        hits += int(inside.sum())
    box = float(np.prod(hi - lo))
    p = hits / n_mc
    se = box * math.sqrt(p * (1 - p) / n_mc)
    assert abs(ours - box * p) <= 3 * se

    # rigid-motion invariance of the size and shape blocks (1e-6 relative)
    body = ellipsoid_cloud((1.2, 0.45, 0.6), 800, rng).points
    base = extract_feature_vector(PointCloud(body)).values[:8]
    for _ in range(3):
        moved = body @ random_rotation(rng).T + rng.uniform(-4, 4, 3)
        np.testing.assert_allclose(extract_feature_vector(PointCloud(moved)).values[:8],
                                   base, rtol=1e-6)

    # scaling laws at 1e-9 relative
    s = 3.0
    a = extract_feature_vector(PointCloud(body)).as_dict()
    b = extract_feature_vector(PointCloud(body * s)).as_dict()
    for name, power in (("length", 1), ("width", 1), ("height", 1),
                        ("surface_area", 2), ("bbox_volume", 3), ("hull_volume", 3)):
        assert b[name] == pytest.approx(s**power * a[name], rel=1e-9), name
    for name in ("elongation_ratio", "flatness_ratio"):
        assert b[name] == pytest.approx(a[name], rel=1e-9), name
    clock.done("A3 feature oracles")


@pytest.fixture(scope="module")
def herd_cv(herd):
    """The nested-CV pass A4 and A5 read, and the seconds it took."""
    X, y = herd
    specs = hw.default_model_specs(seed=HERD_SEED)
    start = time.perf_counter()
    cv = hw.evaluation.nested_cv(X, y, specs, k=5, inner_k=5, seed=HERD_SEED)
    return cv, time.perf_counter() - start


def test_a4_synthetic_herd_benchmark(herd, herd_cv):
    clock = _Clock(300.0, spent_s=herd_cv[1])
    X, y = herd

    # generator sanity gate: an independent least-squares fit on the hull
    # volume alone must reach MAPE <= 1.5 %
    hull = X[:, FEATURE_NAMES.index("hull_volume")][:, None]
    folds = hw.kfold_split(len(y), 5, seed=HERD_SEED)
    ref_mapes = []
    for f in range(5):
        tr, te = folds.train_indices(f), folds.test_indices(f)
        design = np.hstack([hull[tr], np.ones((len(tr), 1))])
        sol, *_ = np.linalg.lstsq(design, y[tr], rcond=None)
        pred = hull[te][:, 0] * sol[0] + sol[1]
        ref_mapes.append(100 * np.mean(np.abs(pred - y[te]) / y[te]))
    assert np.mean(ref_mapes) <= 1.5

    report = herd_cv[0].metrics(11, 1.0)
    assert report.r2.mean >= 0.90
    assert report.mape.mean <= 3.0

    # the outer-fold ranking is plain 5-fold CV of each single model on the
    # same folds, so its best MAPE is the best single model's CV MAPE
    best_single = herd_cv[0].ranking().entries[0].mape
    assert report.mape.mean <= 1.1 * best_single, (
        f"stack {report.mape.mean:.4f}% vs 1.1 x best single {best_single:.4f}%")
    clock.done(f"A4 herd benchmark (R2 {report.r2.mean:.3f}, MAPE {report.mape.mean:.2f}%)")


@pytest.fixture(scope="module")
def sweep_rows(herd_cv):
    cv, nested_s = herd_cv
    start = time.perf_counter()
    rows = cv.sweep(range(2, 12), 1.0)
    return rows, nested_s + time.perf_counter() - start


def test_a5_sweep_shape_and_runtime(sweep_rows):
    rows, elapsed = sweep_rows
    assert elapsed < 900.0, f"sweep took {elapsed:.0f}s, budget 900s"
    assert [r.m for r in rows] == list(range(2, 12))
    for r in rows:
        for v in (r.r2_mean, r.r2_std, r.mae_mean, r.mae_std, r.mape_mean, r.mape_std):
            assert math.isfinite(v)
    print(f"\n[A5 sweep shape] PASS ({elapsed:.1f}s, 10 rows)")


def test_a5_sweep_endpoint_inequality(sweep_rows):
    """MAPE at m=11 <= MAPE at m=2.

    Offering the stack more members must not make it worse. On a herd
    that passes the A4 reference gate the top-ranked model already sits
    at the label-noise floor, so extra members can only add combiner
    variance; the stack guards against that by choosing how many of its
    top-m members the combiner uses (inner CV, one-standard-error rule).
    """
    rows, _ = sweep_rows
    mape2, mape11 = rows[0].mape_mean, rows[-1].mape_mean
    assert mape11 <= mape2, (
        f"MAPE(m=11) = {mape11:.4f}% > MAPE(m=2) = {mape2:.4f}%: extra members "
        "made the stack worse (see stacking.choose_stack_size)")
    print("\n[A5 sweep endpoints] PASS")


def test_a6_ransac_cleaning():
    clock = _Clock(5.0)
    cloud, labels = stall_scene(seed=42)
    params = RansacParams(seed=7)
    cleaned, planes = segment_planes(cloud, params)

    kept = {tuple(p) for p in cleaned.points}
    removed = np.array([tuple(p) not in kept for p in cloud.points])
    plane_recall = removed[labels > 0].mean()
    blob_retention = 1.0 - removed[labels == 0].mean()
    assert plane_recall >= 0.99
    assert blob_retention >= 0.99
    assert len(planes) == 3

    again = remove_planes(cloud, params)
    np.testing.assert_array_equal(again.points, cleaned.points)  # determinism
    twice = remove_planes(cleaned, params)
    np.testing.assert_array_equal(twice.points, cleaned.points)  # idempotence
    clock.done(f"A6 cleaning (recall {plane_recall:.4f}, retention {blob_retention:.4f})")


def test_a7_metrics_and_cv_plumbing():
    clock = _Clock(10.0)
    triple = hw.compute_metrics([100.0, 200.0, 300.0], [110.0, 190.0, 330.0])
    # oracle arithmetic on the stated formulas: |errors| = (10, 10, 30)
    assert triple.mae == pytest.approx(50.0 / 3.0, abs=1e-12)
    assert triple.mape == pytest.approx(25.0 / 3.0, abs=1e-12)
    assert triple.r2 == pytest.approx(0.945, abs=1e-12)

    folds = hw.kfold_split(103, 5, seed=0)
    assert sorted(np.bincount(folds.fold_of).tolist(), reverse=True) == [21, 21, 21, 20, 20]

    rng = np.random.default_rng(404)
    X = rng.normal(size=(20, 4))
    y = np.abs(400 + 60 * X[:, 0] + 3 * rng.normal(size=20))
    specs = [hw.ModelSpec(name="ols", family="ols"),
             hw.ModelSpec(name="knn", family="knn", params={"k": 3}),
             hw.ModelSpec(name="tree", family="decision_tree", params={"max_depth": 3})]
    result = hw.cross_validate(X, y, specs, k=4, inner_k=3, seed=5, audit=True)
    assert result.audit is not None and result.audit.n_fits > 0
    assert result.audit.violations == ()
    clock.done("A7 metrics and plumbing")


def test_a8_replication_harness(tmp_path):
    """End-to-end run on a synthetic stand-in for the public scans; the
    assertion is completion plus report-schema validity, no numeric
    tolerance."""
    clock = _Clock(240.0)
    scans = tmp_path / "scans"
    scans.mkdir()
    rng = np.random.default_rng(11)
    weight_lines = ["animal_id,weight_kg"]
    for i in range(16):
        axes = (rng.uniform(0.9, 1.3), rng.uniform(0.35, 0.5), rng.uniform(0.45, 0.6))
        animal = ellipsoid_cloud(axes, 400, rng, rotation=random_rotation(rng),
                                 center=(1.5, 1.5, 0.8))
        floor_n = 700
        floor = np.column_stack([rng.uniform(0, 3, floor_n), rng.uniform(0, 3, floor_n),
                                 np.zeros(floor_n)])
        scene = PointCloud(np.vstack([animal.points, floor]))
        save_point_cloud(scene, scans / f"cow_{i:02d}.xyz", XYZ_ASCII)
        volume = ConvexHull(animal.points).volume
        weight_lines.append(f"cow_{i:02d},{1000 * volume * (1 + rng.uniform(-0.02, 0.02))}")
    weights_csv = tmp_path / "weights.csv"
    weights_csv.write_text("\n".join(weight_lines) + "\n")

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "models": {"specs": ["ols", "ridge", "lasso", "huber", "knn", "decision_tree",
                              {"name": "random_forest", "family": "random_forest",
                               "params": {"n_trees": 50}},
                              {"name": "gradient_boosting", "family": "gradient_boosting",
                               "params": {"n_rounds": 100}}]},
        "evaluation": {"k": 4, "inner_k": 3, "seed": 0},
        "stacking": {"m_top": 8},
    }))

    clean_out = tmp_path / "cleaned"
    assert main(["clean", str(scans), "--out", str(clean_out), "--config", str(config)]) == 0
    feat_out = tmp_path / "features"
    assert main(["features", str(clean_out / "cleaned"), str(weights_csv),
                 "--out", str(feat_out), "--config", str(config)]) == 0
    cv_out = tmp_path / "cv"
    assert main(["cv", str(feat_out / "dataset.csv"), "--out", str(cv_out),
                 "--config", str(config)]) == 0

    report = json.loads((cv_out / "report.json").read_text())
    for metric in ("r2", "mae_kg", "mape_pct"):
        stats = report["metrics"][metric]
        assert set(stats) == {"per_fold", "mean", "std"}
        assert len(stats["per_fold"]) == report["k"] == 4
        assert all(math.isfinite(v) for v in stats["per_fold"])
    assert (cv_out / "ranking.csv").exists()
    assert (cv_out / "config.resolved.json").exists()
    clock.done("A8 replication harness")
