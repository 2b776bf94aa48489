"""Ranking, out-of-fold meta-features, and the ridge combiner."""

import json

import numpy as np
import pytest

from herdweight.errors import InvalidHyperparameter, NonPositiveTarget
from herdweight.evaluation import kfold_split
from herdweight.regressors import ModelSpec, fit
from herdweight.stacking import (
    InnerPass,
    ModelRanking,
    RankedModel,
    StackedEnsemble,
    choose_stack_size,
    ensemble_from_dict,
    ensemble_to_dict,
    fit_stack,
    inner_pass,
    oof_predictions,
    predict_stack,
    ridge_combiner,
    stack_size_errors,
)


def _linear_herd(n=30, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(n, 2))
    y = 300.0 * X[:, 0] + 100.0 * X[:, 1] + 50.0 + noise * rng.normal(size=n)
    return X, y


OLS = ModelSpec(name="ols", family="ols")


def test_rank_perfect_model_first():
    X, y = _linear_herd()
    mean_spec = ModelSpec(name="mean", family="knn", params={"k": len(y)})
    ranking = inner_pass(X, y, [mean_spec, OLS], kfold_split(len(y), 5, 0)).ranking
    assert ranking.entries[0].name == "ols"
    assert ranking.entries[0].mape < 1e-6
    assert ranking.entries[1].mape > 1.0


def test_rank_single_spec():
    X, y = _linear_herd(n=12)
    ranking = inner_pass(X, y, [OLS], kfold_split(len(y), 3, 1)).ranking
    assert [e.name for e in ranking.entries] == ["ols"]


def test_rank_tie_broken_by_declaration_order():
    X, y = _linear_herd(n=15)
    a = ModelSpec(name="first", family="ols")
    b = ModelSpec(name="second", family="ols")
    ranking = inner_pass(X, y, [a, b], kfold_split(len(y), 3, 2)).ranking
    assert ranking.entries[0].mape == ranking.entries[1].mape
    assert [e.name for e in ranking.entries] == ["first", "second"]


def test_rank_invariant_under_relabeling():
    X, y = _linear_herd(n=20, noise=2.0)
    specs = [OLS, ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree")]
    renamed = [ModelSpec(name=f"model_{i}", family=s.family, params=s.params, seed=s.seed)
               for i, s in enumerate(specs)]
    base = inner_pass(X, y, specs, kfold_split(len(y), 4, 3)).ranking
    relabeled = inner_pass(X, y, renamed, kfold_split(len(y), 4, 3)).ranking
    name_of = {s.name: f"model_{i}" for i, s in enumerate(specs)}
    assert [name_of[e.name] for e in base.entries] == [e.name for e in relabeled.entries]
    assert [e.mape for e in base.entries] == [e.mape for e in relabeled.entries]


def test_rank_is_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 5))
    y = np.abs(200 + 40 * X[:, 0] + 10 * rng.normal(size=40))
    specs = [OLS,
             ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree"),
             ModelSpec(name="rf", family="random_forest", params={"n_trees": 25})]
    r1 = inner_pass(X, y, specs, kfold_split(len(y), 4, 3)).ranking
    r2 = inner_pass(X, y, specs, kfold_split(len(y), 4, 3)).ranking
    assert r1.entries == r2.entries


def test_rank_tags_fit_errors_with_model_name():
    X, y = _linear_herd(n=12)
    broken = ModelSpec(name="broken_knn", family="knn", params={"k": 0})
    with pytest.raises(InvalidHyperparameter, match="broken_knn"):
        inner_pass(X, y, [broken], kfold_split(len(y), 3, 0))


def test_meta_features_leave_one_out_knn_hand_case():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([5.0, 6.0, 20.0, 21.0])
    knn1 = ModelSpec(name="knn1", family="knn", params={"k": 1})
    meta = oof_predictions(X, y, [knn1], kfold_split(4, 4, 0))
    by_sample = {float(X[i, 0]): meta[i, 0] for i in range(4)}
    assert by_sample == {0.0: 6.0, 1.0: 5.0, 10.0: 21.0, 11.0: 20.0}


def test_meta_features_mean_model_gives_fold_training_means():
    X, y = _linear_herd(n=9)
    folds = kfold_split(9, 3, seed=5)
    mean_spec = ModelSpec(name="mean", family="knn", params={"k": 9})
    meta = oof_predictions(X, y, [mean_spec], folds)
    for f in range(3):
        expected = y[folds.train_indices(f)].mean()
        np.testing.assert_allclose(meta[folds.test_indices(f), 0], expected, rtol=1e-12)


def test_meta_features_permutation_consistency():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3))
    y = np.abs(100 + 20 * X[:, 0] + rng.normal(size=20))
    folds = kfold_split(20, 4, seed=6)
    specs = [OLS, ModelSpec(name="knn", family="knn"),
             ModelSpec(name="tree", family="decision_tree")]
    base = oof_predictions(X, y, specs, folds)
    perm = rng.permutation(20)
    permuted_folds = kfold_split(20, 4, seed=6)
    object.__setattr__(permuted_folds, "fold_of", folds.fold_of[perm])
    permuted = oof_predictions(X[perm], y[perm], specs, permuted_folds)
    np.testing.assert_allclose(permuted, base[perm], rtol=1e-9, atol=1e-9)


def test_no_leakage_brute_force():
    """Meta-feature (i, m) comes from a model that never saw sample i."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(12, 2))
    y = np.abs(50 + 10 * X[:, 0] + rng.normal(size=12))
    folds = kfold_split(12, 4, seed=7)
    specs = [OLS, ModelSpec(name="knn", family="knn", params={"k": 2})]
    meta = oof_predictions(X, y, specs, folds)
    for i in range(12):
        train = np.flatnonzero(folds.fold_of != folds.fold_of[i])
        for m, spec in enumerate(specs):
            model = fit(spec, X[train], y[train])
            assert model.predict(X[i : i + 1])[0] == meta[i, m]


def test_ridge_combiner_hand_case():
    y = np.array([100.0, 200.0, 300.0])
    w, b = ridge_combiner(y[:, None], y, alpha=1.0)
    assert w[0] == pytest.approx(20000.0 / 20001.0, rel=1e-12)
    assert b == pytest.approx(200.0 * (1.0 - 20000.0 / 20001.0), rel=1e-9)
    preds = y * w[0] + b
    assert np.abs((preds - y) / y).max() < 1e-4  # within 0.01 %


def test_ridge_combiner_constant_column():
    y = np.array([10.0, 20.0, 30.0, 40.0])
    w, b = ridge_combiner(np.full((4, 2), 7.0), y, alpha=1.0)
    assert (w == 0.0).all()
    assert b == y.mean()


def _near_perfect_and_noise(n=40, n_noise=4, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.uniform(200.0, 400.0, n)
    good = y * (1.0 + 0.002 * rng.normal(size=n))
    noise = rng.normal(300.0, 50.0, size=(n, n_noise))
    return np.column_stack([good, noise]), y


def _pass_over(meta, y, folds, rank_mapes):
    """An inner pass whose rank-ordered out-of-fold matrix is ``meta``."""
    ranking = ModelRanking(tuple(RankedModel(f"m{r}", mape, 0.0, 0.0) for r, mape in enumerate(rank_mapes)))
    return InnerPass(folds=folds, y=y, oof=np.ascontiguousarray(meta), ranking=ranking,
                     order=tuple(range(len(rank_mapes))))


def test_size_rule_drops_pure_noise_columns():
    meta, y = _near_perfect_and_noise()
    folds = kfold_split(len(y), 5, seed=1)
    rank_mapes = [0.1, 10.0, 11.0, 12.0, 13.0]
    assert choose_stack_size(stack_size_errors(meta, y, folds, 1.0), rank_mapes) == 1
    w, b = _pass_over(meta, y, folds, rank_mapes).combiner(5, 1.0)
    assert w.shape == (1,)
    w1, b1 = ridge_combiner(meta[:, :1], y, 1.0)
    assert w[0] == w1[0] and b == b1


def test_size_rule_never_cuts_a_ranking_tie():
    meta, y = _near_perfect_and_noise(n_noise=1)
    tied = np.column_stack([meta[:, 0], meta[:, 0], meta[:, 1]])
    folds = kfold_split(len(y), 5, seed=1)
    errors = stack_size_errors(tied, y, folds, 1.0)
    # size 1 would win on its own, but it splits the tied pair
    assert choose_stack_size(stack_size_errors(meta[:, :2], y, folds, 1.0), [0.1, 10.0]) == 1
    assert choose_stack_size(errors, [0.1, 0.1, 10.0]) == 2
    w, _ = _pass_over(tied, y, folds, [0.1, 0.1, 10.0]).combiner(3, 1.0)
    assert w.shape == (2,)
    assert w[0] == pytest.approx(w[1], abs=1e-9) and w[0] != 0.0
    # a tie at every cut leaves only the full size
    assert choose_stack_size(errors, [0.1, 0.1, 0.1]) == 3


def test_size_rule_needs_positive_targets():
    meta, y = _near_perfect_and_noise(n_noise=1)
    folds = kfold_split(len(y), 5, seed=1)
    with pytest.raises(NonPositiveTarget):
        stack_size_errors(meta, y - 300.0, folds, 1.0)


def test_identical_base_models_share_weight():
    X, y = _linear_herd(n=20, noise=1.0)
    a = ModelSpec(name="a", family="ols")
    b = ModelSpec(name="b", family="ols")
    inner = inner_pass(X, y, [a, b], kfold_split(len(y), 4, 8))
    ens = fit_stack(X, y, [a, b], inner, m_top=2)
    assert ens.weights[0] == pytest.approx(ens.weights[1], abs=1e-9)


def test_inner_pass_test_columns_are_refits_in_rank_order():
    X, y = _linear_herd(n=30, noise=1.0)
    X_test, _ = _linear_herd(n=7, seed=1)
    specs = [ModelSpec(name="mean", family="knn", params={"k": 30}),
             ModelSpec(name="tree", family="decision_tree", params={"max_depth": 3}), OLS]
    folds = kfold_split(len(y), 5, 3)
    inner = inner_pass(X, y, specs, folds, X_test=X_test)
    assert inner.order == (2, 1, 0)
    assert inner.test.shape == (7, 3) and inner.test.flags.c_contiguous
    assert inner.oof.shape == (30, 3) and inner.oof.flags.c_contiguous
    oof = oof_predictions(X, y, specs, folds)
    for r, i in enumerate(inner.order):
        np.testing.assert_array_equal(inner.test[:, r], fit(specs[i], X, y).predict(X_test))
        np.testing.assert_array_equal(inner.oof[:, r], oof[:, i])
    assert inner_pass(X, y, specs, kfold_split(len(y), 5, 3)).test is None


def test_predict_stack_identity_and_average():
    X, y = _linear_herd(n=10)
    model = fit(OLS, X, y)
    ranking = inner_pass(X, y, [OLS], kfold_split(len(y), 5, 0)).ranking
    ens = StackedEnsemble(specs=[OLS], models=[model], weights=np.array([1.0]),
                          intercept=0.0, alpha=1.0, ranking=ranking)
    np.testing.assert_array_equal(predict_stack(ens, X), model.predict(X))

    const100 = fit(ModelSpec(name="c100", family="decision_tree"), X, np.full(10, 100.0))
    const200 = fit(ModelSpec(name="c200", family="decision_tree"), X, np.full(10, 200.0))
    ens2 = StackedEnsemble(specs=[], models=[const100, const200],
                           weights=np.array([0.5, 0.5]), intercept=0.0,
                           alpha=1.0, ranking=ranking)
    assert (predict_stack(ens2, X) == 150.0).all()


def test_fit_stack_keeps_only_the_members_the_combiner_uses():
    X, y = _linear_herd(n=30, noise=1.0)
    specs = [OLS, ModelSpec(name="mean", family="knn", params={"k": 30}),
             ModelSpec(name="knn", family="knn")]
    inner = inner_pass(X, y, specs, kfold_split(len(y), 5, 3))
    assert inner.ranking.entries[0].name == "ols"
    ens = fit_stack(X, y, specs, inner, m_top=3)
    assert len(ens.weights) == 1
    assert [s.name for s in ens.specs] == ["ols"] and len(ens.models) == 1


def test_stack_output_is_affine_in_base_outputs():
    X, y = _linear_herd(n=24, noise=2.0)
    specs = [OLS, ModelSpec(name="knn", family="knn"), ModelSpec(name="tree", family="decision_tree")]
    inner = inner_pass(X, y, specs, kfold_split(len(y), 4, 9))
    ens = fit_stack(X, y, specs, inner, m_top=3)
    base = np.column_stack([m.predict(X) for m in ens.models])
    np.testing.assert_array_equal(predict_stack(ens, X), base @ ens.weights + ens.intercept)


def test_stack_close_to_perfect_base():
    """m_top = 1 with a near-perfect base: shrinkage costs < 0.01 pp MAPE."""
    X, y = _linear_herd(n=40, seed=3)
    X_test, y_test = _linear_herd(n=20, seed=4)
    inner = inner_pass(X, y, [OLS], kfold_split(len(y), 5, 10))
    ens = fit_stack(X, y, [OLS], inner, m_top=1)
    base = fit(OLS, X, y)
    stack_mape = 100 * np.mean(np.abs(predict_stack(ens, X_test) - y_test) / y_test)
    base_mape = 100 * np.mean(np.abs(base.predict(X_test) - y_test) / y_test)
    assert stack_mape <= base_mape + 0.01


def test_ensemble_serialisation_roundtrip():
    X, y = _linear_herd(n=25, noise=1.5)
    # the tied pair keeps the size rule from stopping at one member
    specs = [OLS, ModelSpec(name="ols2", family="ols"), ModelSpec(name="knn", family="knn"),
             ModelSpec(name="gb", family="gradient_boosting", params={"n_rounds": 15})]
    inner = inner_pass(X, y, specs, kfold_split(len(y), 5, 12))
    ens = fit_stack(X, y, specs, inner, m_top=4)
    assert len(ens.models) == 2
    clone = ensemble_from_dict(ensemble_to_dict(ens))
    grid = np.random.default_rng(5).uniform(0.5, 2.0, size=(9, 2))
    np.testing.assert_array_equal(predict_stack(clone, grid), predict_stack(ens, grid))
    long = ensemble_to_dict(ens)
    long["weights"] = long["weights"] + [0.0]
    with pytest.raises(ValueError, match="2 models"):
        ensemble_from_dict(long)


def test_model_file_with_zero_weight_members_predicts_over_all_columns():
    """A model.json whose members past the used ones carry weight 0 (the
    layout before stacks held only their used members) still loads; every
    member is evaluated and the prediction is the full affine combination."""
    X, y = _linear_herd(n=25, noise=1.5)
    specs = [OLS, ModelSpec(name="knn", family="knn"),
             ModelSpec(name="gb", family="gradient_boosting", params={"n_rounds": 15})]
    ranking = inner_pass(X, y, specs, kfold_split(len(y), 5, 12)).ranking
    models = [fit(spec, X, y) for spec in specs]
    padded = StackedEnsemble(specs=specs, models=models, weights=np.array([0.9987, 0.0, 0.0]),
                             intercept=0.41, alpha=1.0, ranking=ranking)
    loaded = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(padded))))
    assert len(loaded.models) == 3
    grid = np.random.default_rng(5).uniform(0.5, 2.0, size=(9, 2))
    base = np.column_stack([m.predict(grid) for m in models])
    np.testing.assert_array_equal(predict_stack(loaded, grid), base @ padded.weights + 0.41)


def test_fit_stack_m_top_bounds():
    X, y = _linear_herd(n=12)
    inner = inner_pass(X, y, [OLS], kfold_split(len(y), 3, 0))
    with pytest.raises(ValueError):
        fit_stack(X, y, [OLS], inner, m_top=2)
