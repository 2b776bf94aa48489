"""Folds, metrics, nested CV, the leakage audit, and the size sweep."""

import math

import numpy as np
import pytest

from herdweight.errors import (
    InvalidK,
    LengthMismatch,
    NonPositiveTarget,
)
from herdweight.evaluation import (
    compute_metrics,
    cross_validate,
    ensemble_size_sweep,
    kfold_split,
    nested_cv,
    report_from_triples,
)
from herdweight.regressors import ModelSpec
from herdweight.stacking import inner_pass


def test_kfold_sizes_103_by_5():
    folds = kfold_split(103, 5, seed=0)
    sizes = sorted(np.bincount(folds.fold_of).tolist(), reverse=True)
    assert sizes == [21, 21, 21, 20, 20]


def test_kfold_singletons_and_coverage():
    folds = kfold_split(6, 6, seed=1)
    assert sorted(np.bincount(folds.fold_of).tolist()) == [1] * 6
    assert sorted(np.unique(folds.fold_of).tolist()) == list(range(6))


def test_kfold_deterministic():
    a = kfold_split(50, 5, seed=7)
    b = kfold_split(50, 5, seed=7)
    np.testing.assert_array_equal(a.fold_of, b.fold_of)
    c = kfold_split(50, 5, seed=8)
    assert not np.array_equal(a.fold_of, c.fold_of)


def test_kfold_invalid_k():
    with pytest.raises(InvalidK):
        kfold_split(10, 1, seed=0)
    with pytest.raises(InvalidK):
        kfold_split(4, 5, seed=0)


def test_metrics_single_sample():
    triple = compute_metrics([100.0], [110.0])
    assert triple.mae == 10.0
    assert triple.mape == pytest.approx(10.0, abs=1e-12)
    assert math.isnan(triple.r2)


def test_metrics_mean_predictor_r2_zero():
    y = np.array([80.0, 120.0, 100.0, 140.0])
    triple = compute_metrics(y, np.full(4, y.mean()))
    assert triple.r2 == pytest.approx(0.0, abs=1e-15)


def test_metrics_hand_triple_at_1e_minus_12():
    """Oracle arithmetic on the stated formulas: errors (10, 10, 30) give
    MAE 50/3, MAPE 25/3 %, R^2 0.945."""
    triple = compute_metrics([100.0, 200.0, 300.0], [110.0, 190.0, 330.0])
    assert triple.mae == pytest.approx(50.0 / 3.0, abs=1e-12)
    assert triple.mape == pytest.approx(25.0 / 3.0, abs=1e-12)
    assert triple.r2 == pytest.approx(0.945, abs=1e-12)


def test_metrics_errors():
    with pytest.raises(LengthMismatch):
        compute_metrics([1.0, 2.0], [1.0])
    with pytest.raises(NonPositiveTarget):
        compute_metrics([0.0, 1.0], [1.0, 1.0])
    assert math.isnan(compute_metrics([5.0, 5.0], [5.0, 6.0]).r2)
    constant = compute_metrics([5.0, 5.0], [5.0, 5.0])
    assert constant.r2 == 0.0


def test_metrics_vs_fsum_oracle():
    rng = np.random.default_rng(3)
    y = np.abs(rng.normal(200, 40, size=111)) + 1
    y_hat = y + rng.normal(0, 7, size=111)
    triple = compute_metrics(y, y_hat)
    mae = math.fsum(abs(a - b) for a, b in zip(y, y_hat)) / len(y)
    mape = 100.0 * math.fsum(abs(a - b) / a for a, b in zip(y, y_hat)) / len(y)
    mean = math.fsum(y) / len(y)
    r2 = 1.0 - math.fsum((a - b) ** 2 for a, b in zip(y, y_hat)) / math.fsum((a - mean) ** 2 for a in y)
    assert triple.mae == pytest.approx(mae, rel=1e-12)
    assert triple.mape == pytest.approx(mape, rel=1e-12)
    assert triple.r2 == pytest.approx(r2, rel=1e-12)


def _herd(n=30, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(n, 3))
    y = 250.0 * X[:, 0] + 90.0 * X[:, 1] + 40.0 + noise * rng.normal(size=n)
    return X, y


def test_cross_validate_perfect_linear_ols_only():
    X, y = _herd(n=30)
    result = cross_validate(X, y, [ModelSpec(name="ols", family="ols")],
                            k=5, inner_k=3, seed=0)
    assert result.report.mape.mean < 0.01


def test_cross_validate_constant_pipeline_r2_nonpositive():
    X, y = _herd(n=25, noise=5.0)
    mean_spec = ModelSpec(name="mean", family="knn", params={"k": 25})
    result = cross_validate(X, y, [mean_spec], k=5, inner_k=3, seed=1)
    assert result.report.r2.mean <= 0.0


def test_report_std_is_population():
    X, y = _herd(n=24, noise=4.0)
    folds = kfold_split(len(y), 4, seed=2)
    inner = inner_pass(X, y, [ModelSpec(name="ols", family="ols")], folds)
    report = report_from_triples([compute_metrics(y[te], inner.oof[te, 0])
                                  for te in map(folds.test_indices, range(folds.k))])
    assert inner.ranking.entries[0].mape == pytest.approx(report.mape.mean, rel=1e-12)
    vals = np.array(report.mape.per_fold)
    assert report.mape.std == pytest.approx(float(vals.std(ddof=0)), rel=1e-12)
    assert report.mape.mean == pytest.approx(float(vals.mean()), rel=1e-12)


def test_audit_reports_zero_violations_on_20_samples():
    X, y = _herd(n=20, noise=2.0)
    specs = [ModelSpec(name="ols", family="ols"),
             ModelSpec(name="knn", family="knn", params={"k": 3}),
             ModelSpec(name="tree", family="decision_tree", params={"max_depth": 3})]
    result = cross_validate(X, y, specs, k=4, inner_k=3, seed=3, audit=True)
    assert result.audit is not None
    assert result.audit.ok
    # every outer fold records: 3 folds x 3 specs oof fits + combiner + 3 refits
    assert result.audit.n_fits == 4 * (3 * 3 + 1 + 3)
    # the audit covers every fit the pass makes: all 3 refits, whatever m_top
    top2 = cross_validate(X, y, specs, m_top=2, k=4, inner_k=3, seed=3, audit=True)
    assert top2.audit.ok
    assert top2.audit.n_fits == 4 * (3 * 3 + 1 + 3)


def test_cross_validate_jobs_parallel_matches_serial():
    X, y = _herd(n=22, noise=3.0)
    specs = [ModelSpec(name="ols", family="ols"), ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree", params={"max_depth": 3}),
             ModelSpec(name="rf", family="random_forest", params={"n_trees": 5}, seed=1),
             ModelSpec(name="et", family="extra_trees", params={"n_trees": 5}, seed=2),
             ModelSpec(name="ada", family="adaboost", params={"n_rounds": 5}, seed=3),
             ModelSpec(name="gb", family="gradient_boosting", params={"n_rounds": 10})]
    serial = cross_validate(X, y, specs, k=3, inner_k=3, seed=4, audit=True, jobs=1)
    parallel = cross_validate(X, y, specs, k=3, inner_k=3, seed=4, audit=True, jobs=2)
    assert serial.report.to_json_dict() == parallel.report.to_json_dict()
    # each worker's fit log travels back in its fold's record
    assert parallel.audit.n_fits == serial.audit.n_fits == 3 * (3 * 7 + 1 + 7)
    assert parallel.audit.violations == serial.audit.violations == ()


def test_nested_cv_starts_at_most_one_worker_per_outer_fold(pool_sizes):
    X, y = _herd(n=12, noise=3.0)
    specs = [ModelSpec(name="ols", family="ols")]
    serial = cross_validate(X, y, specs, k=3, inner_k=3, seed=4)
    assert pool_sizes == []
    for jobs in (2, 3, 100_000):
        pooled = cross_validate(X, y, specs, k=3, inner_k=3, seed=4, jobs=jobs)
        assert pooled.report.to_json_dict() == serial.report.to_json_dict()
    assert pool_sizes == [2, 3, 3]


def test_metrics_at_a_second_alpha_match_a_fresh_pass():
    """Each inner pass keeps its stack-size errors per alpha, so scoring
    at alpha 1.0 first leaves the scores at 0.5 as a fresh pass gives them."""
    X, y = _herd(n=24, seed=3, noise=3.0)
    specs = [ModelSpec(name="ols", family="ols"), ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree", params={"max_depth": 3})]
    cv = nested_cv(X, y, specs, k=3, inner_k=3, seed=2)
    first = cv.metrics(3, 1.0).to_json_dict()
    assert cv.metrics(3, 0.5).to_json_dict() != first
    fresh = nested_cv(X, y, specs, k=3, inner_k=3, seed=2).metrics(3, 0.5)
    assert cv.metrics(3, 0.5).to_json_dict() == fresh.to_json_dict()


def test_sweep_duplicate_models_constant_metrics():
    # kg-scale targets: the fixed combiner penalty's m-dependent shrinkage
    # (~alpha/Sxx relative) is then far below the 1e-6 tolerance
    X, y = _herd(n=50, noise=3.0)
    y = y * 10.0
    dupes = [ModelSpec(name=f"ols_{i}", family="ols") for i in range(4)]
    rows = ensemble_size_sweep(X, y, dupes, [1, 2, 3, 4], k=3, inner_k=3, seed=5)
    mapes = [r.mape_mean for r in rows]
    assert max(mapes) - min(mapes) < 1e-6
    assert [r.m for r in rows] == [1, 2, 3, 4]


def test_sweep_emits_finite_rows():
    X, y = _herd(n=30, noise=5.0)
    specs = [ModelSpec(name="ols", family="ols"),
             ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree")]
    rows = ensemble_size_sweep(X, y, specs, [2, 3], k=3, inner_k=3, seed=6)
    assert len(rows) == 2
    for r in rows:
        for v in (r.r2_mean, r.r2_std, r.mae_mean, r.mae_std, r.mape_mean, r.mape_std):
            assert math.isfinite(v)


def test_sweep_row_equals_cross_validate_at_same_size():
    """Both paths choose the stack size with the same rule, so sweep row m
    and cross_validate(m_top=m) agree bit for bit. On this herd the rule
    drops the noisy members in some outer folds, so a path that skipped it
    would differ."""
    X, y = _herd(n=30, seed=12, noise=3.0)
    specs = [ModelSpec(name="ols", family="ols"),
             ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree")]
    rows = ensemble_size_sweep(X, y, specs, [1, 2, 3], k=3, inner_k=3, seed=13)
    for row in rows:
        cv = cross_validate(X, y, specs, m_top=row.m, k=3, inner_k=3, seed=13)
        assert cv.report.mape.mean == row.mape_mean
        assert cv.report.r2.mean == row.r2_mean


def test_sweep_m1_tracks_best_single_model():
    """Size-1 stack = affinely recalibrated top model; with a near-perfect
    base the two CV MAPEs agree within the shrinkage allowance."""
    X, y = _herd(n=40, seed=7, noise=0.1)
    specs = [ModelSpec(name="ols", family="ols"), ModelSpec(name="knn", family="knn")]
    rows = ensemble_size_sweep(X, y, specs, [1], k=4, inner_k=3, seed=7)
    best_single = inner_pass(X, y, specs, kfold_split(len(y), 4, seed=7)).ranking.entries[0]
    assert rows[0].mape_mean <= best_single.mape + 0.01


def test_sweep_rejects_out_of_range_sizes():
    X, y = _herd(n=20)
    with pytest.raises(ValueError):
        ensemble_size_sweep(X, y, [ModelSpec(name="ols", family="ols")], [1, 2], k=3, seed=0)
