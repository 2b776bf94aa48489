"""Base model families: recovery, determinism, monotonicity, serialisation."""

import inspect
import json
from functools import partial

import numpy as np
import pytest

from herdweight.errors import (
    DimensionMismatch,
    InvalidHyperparameter,
    NonFiniteInput,
    NonPositiveTarget,
)
from herdweight.regressors import (
    DEFAULT_FAMILY_PARAMS,
    FAMILIES,
    ModelSpec,
    default_model_specs,
    fit,
    model_from_dict,
    validate_spec,
)
from herdweight.regressors.base import _FAMILY_TABLE


def _linear_data(n=10, slope=2.0, intercept=1.0, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 9.0, size=(n, 1))
    y = slope * x[:, 0] + intercept + noise * rng.normal(size=n)
    return x, y


def _herd_like(n=40, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = 500.0 + 80.0 * X[:, 0] - 30.0 * X[:, 1] + 5.0 * rng.normal(size=n)
    return X, np.abs(y) + 1.0


def test_ols_recovers_exact_line():
    X, y = _linear_data()
    model = fit(ModelSpec(name="ols", family="ols"), X, y)
    slope, intercept = model.original_coefficients()
    assert slope[0] == pytest.approx(2.0, abs=1e-9)
    assert intercept == pytest.approx(1.0, abs=1e-9)


def _ridge_oracle_predictions(X, y, alpha, X_new):
    """Closed-form (X'X + aI)^-1 X'y on the same standardise-centre pipeline."""
    mean, scale = X.mean(axis=0), X.std(axis=0)
    scale = np.where(scale == 0, 1.0, scale)
    Xs = (X - mean) / scale
    col_mean = Xs.mean(axis=0)
    Xc = Xs - col_mean
    w = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(X.shape[1]), Xc.T @ (y - y.mean()))
    b = y.mean() - col_mean @ w
    return ((X_new - mean) / scale) @ w + b


def test_ridge_matches_closed_form_and_shrinks_monotonically():
    X, y = _linear_data(n=20, noise=0.3)
    grid = np.linspace(0.5, 9.5, 7)[:, None]
    slopes = []
    for alpha in (0.0, 1.0, 10.0, 1000.0):
        model = fit(ModelSpec(name="ridge", family="ridge", params={"alpha": alpha}), X, y)
        np.testing.assert_allclose(model.predict(grid),
                                   _ridge_oracle_predictions(X, y, alpha, grid),
                                   rtol=0, atol=1e-9)
        slopes.append(abs(model.original_coefficients()[0][0]))
    assert slopes[0] >= slopes[1] >= slopes[2] >= slopes[3]
    assert slopes[3] < 0.1 * slopes[0]


def test_decision_tree_constant_target():
    X = np.arange(12.0)[:, None]
    y = np.full(12, 7.5)
    model = fit(ModelSpec(name="decision_tree", family="decision_tree"), X, y)
    assert (model.predict(np.linspace(-5, 20, 9)[:, None]) == 7.5).all()


def test_knn_k1_returns_training_target():
    X, y = _herd_like(n=25)
    model = fit(ModelSpec(name="knn", family="knn", params={"k": 1}), X, y)
    np.testing.assert_array_equal(model.predict(X), y)


def test_knn_distance_tie_goes_to_lower_index():
    X = np.array([[0.0], [0.0], [4.0]])
    y = np.array([1.0, 2.0, 9.0])
    model = fit(ModelSpec(name="knn", family="knn", params={"k": 1}), X, y)
    assert model.predict(np.array([[0.0]]))[0] == 1.0


def _traverse(tree_dict, x):
    i = 0
    while tree_dict["feature"][i] >= 0:
        f = tree_dict["feature"][i]
        i = tree_dict["left"][i] if x[f] <= tree_dict["threshold"][i] else tree_dict["right"][i]
    return tree_dict["value"][i]


def test_random_forest_single_tree_vs_traversal_oracle():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    # a seed whose bootstrap covers all five samples: per-leaf single samples
    covering_seed = next(
        s for s in range(5000)
        if set(np.random.default_rng([s, 0]).integers(0, 5, size=5).tolist()) == {0, 1, 2, 3, 4}
    )
    spec = ModelSpec(name="random_forest", family="random_forest",
                     params={"n_trees": 1}, seed=covering_seed)
    model = fit(spec, X, y)
    np.testing.assert_array_equal(model.predict(X), y)
    tree_dict = model.to_dict()["state"]["trees"][0]
    oracle = np.array([_traverse(tree_dict, row) for row in X])
    np.testing.assert_array_equal(model.predict(X), oracle)


def test_gradient_boosting_zero_rounds_predicts_mean():
    X, y = _herd_like(n=20)
    spec = ModelSpec(name="gradient_boosting", family="gradient_boosting", params={"n_rounds": 0})
    model = fit(spec, X, y)
    assert (model.predict(X) == y.mean()).all()


def test_determinism_bit_identical_predictions():
    X, y = _herd_like(n=35, d=5)
    grid = np.random.default_rng(1).normal(size=(10, 5))
    for spec in default_model_specs(seed=123):
        a = fit(spec, X, y).predict(grid)
        b = fit(spec, X, y).predict(grid)
        np.testing.assert_array_equal(a, b)


def test_row_permutation_invariance_non_tree_families():
    X, y = _herd_like(n=30, d=4)
    rng = np.random.default_rng(2)
    perm = rng.permutation(len(y))
    grid = rng.normal(size=(8, 4))
    for family in ("ols", "ridge", "lasso", "elastic_net", "huber", "knn"):
        spec = ModelSpec(name=family, family=family)
        base = fit(spec, X, y).predict(grid)
        permuted = fit(spec, X[perm], y[perm]).predict(grid)
        np.testing.assert_allclose(permuted, base, rtol=1e-9, atol=1e-9)


def test_lasso_large_alpha_zeroes_all_coefficients():
    X, y = _herd_like(n=30, d=4)
    big = float(np.abs(y - y.mean()).max() * 100)
    model = fit(ModelSpec(name="lasso", family="lasso", params={"alpha": big}), X, y)
    assert (model.coef == 0.0).all()
    assert (model.predict(X) == y.mean()).all()


def test_tree_training_mse_non_increasing_in_depth():
    X, y = _herd_like(n=60, d=5, seed=4)
    errs = []
    for depth in (1, 2, 3, 5, 8, None):
        model = fit(ModelSpec(name="decision_tree", family="decision_tree",
                              params={"max_depth": depth}), X, y)
        errs.append(float(((model.predict(X) - y) ** 2).mean()))
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    assert errs[-1] == pytest.approx(0.0, abs=1e-18)


def test_forest_training_mse_non_increasing_in_depth():
    # a capped forest is the uncapped one cut, but a split fitted to a
    # bootstrap sample need not lower the error on every training row, so
    # the ladder is pinned on this seeded dataset
    X, y = _herd_like(n=60, d=5, seed=4)
    for family in ("random_forest", "extra_trees"):
        errs = []
        for depth in (1, 2, 3, 5, 8, None):
            model = fit(ModelSpec(name=family, family=family,
                                  params={"n_trees": 60, "max_depth": depth}, seed=3), X, y)
            errs.append(float(((model.predict(X) - y) ** 2).mean()))
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1)), (family, errs)


def test_gradient_boosting_training_mse_non_increasing_in_rounds():
    X, y = _herd_like(n=50, d=5, seed=5)
    errs = []
    for rounds in (0, 5, 25, 100):
        model = fit(ModelSpec(name="gradient_boosting", family="gradient_boosting",
                              params={"n_rounds": rounds}), X, y)
        errs.append(float(((model.predict(X) - y) ** 2).mean()))
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


def test_huber_shrugs_off_gross_outlier():
    rng = np.random.default_rng(6)
    x = np.linspace(1, 10, 30)[:, None]
    y = 3.0 * x[:, 0] + 10.0 + 0.05 * rng.normal(size=30)
    y_dirty = y.copy()
    y_dirty[7] += 200.0
    huber_slope = fit(ModelSpec(name="huber", family="huber"), x, y_dirty).original_coefficients()[0][0]
    ols_slope = fit(ModelSpec(name="ols", family="ols"), x, y_dirty).original_coefficients()[0][0]
    assert abs(huber_slope - 3.0) < abs(ols_slope - 3.0)
    assert abs(huber_slope - 3.0) < 0.2


def test_adaboost_fits_training_data():
    X, y = _herd_like(n=40, d=4, seed=7)
    model = fit(ModelSpec(name="adaboost", family="adaboost", params={"n_rounds": 50}), X, y)
    mse = float(((model.predict(X) - y) ** 2).mean())
    assert mse < 0.25 * float(((y - y.mean()) ** 2).mean())


def test_forest_beats_mean_predictor_on_training():
    X, y = _herd_like(n=50, d=5, seed=8)
    for family in ("random_forest", "extra_trees"):
        model = fit(ModelSpec(name=family, family=family, params={"n_trees": 50}), X, y)
        mse = float(((model.predict(X) - y) ** 2).mean())
        assert mse < 0.5 * float(((y - y.mean()) ** 2).mean())


def test_hyperparameter_validation():
    bad = [
        ModelSpec(name="m", family="knn", params={"k": 0}),
        ModelSpec(name="m", family="gradient_boosting", params={"learning_rate": 0.0}),
        ModelSpec(name="m", family="gradient_boosting", params={"learning_rate": 1.5}),
        ModelSpec(name="m", family="decision_tree", params={"max_depth": 0}),
        ModelSpec(name="m", family="ridge", params={"alpha": -1.0}),
        ModelSpec(name="m", family="ols", params={"mystery": 3}),
        ModelSpec(name="m", family="banana"),
        ModelSpec(name="m", family="random_forest", params={"n_trees": 0}),
        ModelSpec(name="m", family="lasso", params={"tol": 1e-7}),
        ModelSpec(name="m", family="elastic_net", params={"tol": 1e-7}),
        *(ModelSpec(name="m", family=family, params={key: value})
          for family, key in (("ridge", "alpha"), ("elastic_net", "l1_ratio"), ("huber", "tol"),
                              ("huber", "delta"), ("gradient_boosting", "learning_rate"))
          for value in (True, "0.5", None)),
    ]
    for spec in bad:
        with pytest.raises(InvalidHyperparameter):
            validate_spec(spec)


def test_family_defaults_are_the_keywords_fit_takes():
    """A hyperparameter is a default key exactly when the family's fit
    function still takes it from the spec, so no key outlives its use."""
    for name in FAMILIES:
        fn, bound = _FAMILY_TABLE[name].fit, {}
        if isinstance(fn, partial):
            fn, bound = fn.func, fn.keywords
        keywords = {p.name for p in inspect.signature(fn).parameters.values()
                    if p.kind is p.KEYWORD_ONLY}
        assert keywords - set(bound) == set(DEFAULT_FAMILY_PARAMS[name]), name


def test_fit_input_validation():
    X, y = _herd_like(n=10)
    spec = ModelSpec(name="ols", family="ols")
    with pytest.raises(NonFiniteInput):
        bad = X.copy()
        bad[0, 0] = np.nan
        fit(spec, bad, y)
    with pytest.raises(NonPositiveTarget):
        fit(spec, X, y - y.max())
    with pytest.raises(DimensionMismatch):
        fit(spec, X, y[:-1])


def test_predict_validation():
    X, y = _herd_like(n=10, d=3)
    model = fit(ModelSpec(name="ols", family="ols"), X, y)
    with pytest.raises(DimensionMismatch):
        model.predict(np.zeros((2, 4)))
    with pytest.raises(NonFiniteInput):
        model.predict(np.array([[np.inf, 0, 0]]))


def test_predictions_always_finite():
    X, y = _herd_like(n=30, d=4, seed=9)
    grid = np.random.default_rng(3).normal(scale=5.0, size=(20, 4))
    for spec in default_model_specs(seed=11):
        assert np.isfinite(fit(spec, X, y).predict(grid)).all()


def test_serialisation_roundtrip_bit_exact_all_families():
    X, y = _herd_like(n=25, d=4, seed=10)
    grid = np.random.default_rng(4).normal(size=(7, 4))
    for spec in default_model_specs(seed=21):
        if spec.family in ("random_forest", "extra_trees"):
            spec = ModelSpec(name=spec.name, family=spec.family,
                             params={"n_trees": 20}, seed=spec.seed)
        if spec.family in ("adaboost", "gradient_boosting"):
            spec = ModelSpec(name=spec.name, family=spec.family,
                             params={"n_rounds": 20}, seed=spec.seed)
        model = fit(spec, X, y)
        payload = json.dumps(model.to_dict())
        clone = model_from_dict(json.loads(payload))
        np.testing.assert_array_equal(clone.predict(grid), model.predict(grid))
        assert json.dumps(clone.to_dict()) == payload
    with pytest.raises(ValueError, match="unknown model kind 'svm'"):
        model_from_dict({**json.loads(payload), "kind": "svm"})
    no_scale = json.loads(payload)
    del no_scale["feature_scale"]
    with pytest.raises(KeyError):
        model_from_dict(no_scale)


def test_default_specs_cover_all_families():
    specs = default_model_specs()
    assert [s.name for s in specs] == list(FAMILIES)
    assert len(specs) == 11
