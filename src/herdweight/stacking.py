"""Model ranking, out-of-fold meta-features, and the ridge combiner.

Base models are ranked by cross-validated MAPE on a shared fold
assignment. ``inner_pass`` fits every spec once on every fold and ranks
them; ``train`` and each outer fold of nested CV fit their stack from
that one record, which in nested CV also holds the outer fold's
held-out predictions and its fit log. The meta-features handed to the combiner are strictly
out-of-fold: sample i's column entries come from models fit with i's
fold held out, so no target leaks into its own meta-feature. The
combiner is a closed-form ridge on centred meta-features with an
unpenalised intercept (penalty ``alpha``, 1.0 by default).

Of the top-m ranked models the combiner uses only the leading s, with s
chosen by CV on the folds that produced the meta-features and the
one-standard-error rule (Breiman et al., CART, 1984; Hastie et al.,
ESL, 7.10): the smallest size whose mean per-animal absolute percentage
error is within one standard error of the best size's. Only those s are
refit and kept. On kg-scale meta-features the penalty barely shrinks, so
without this choice the combiner spreads large opposite-sign weights over
nearly collinear columns and extra members only add variance (Breiman,
Stacked Regressions, 1996).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HerdWeightError, NonPositiveTarget, as_numbers, check_number
from .evaluation import FoldAssignment, ProvenanceLog, compute_metrics
from .regressors import (
    FittedModel,
    ModelSpec,
    fit_many,
    model_from_dict,
    spec_from_dict,
    spec_to_dict,
)

DEFAULT_RIDGE_ALPHA = 1.0


@dataclass(frozen=True)
class RankedModel:
    """One ranking row: model name plus its CV-mean metrics."""

    name: str
    mape: float
    r2: float
    mae: float


@dataclass(frozen=True)
class ModelRanking:
    """Base models ordered by CV MAPE ascending (ties: declaration order)."""

    entries: tuple[RankedModel, ...]


@dataclass
class StackedEnsemble:
    """The combiner's members refit on the full training split, one weight each."""

    specs: list[ModelSpec]
    models: list[FittedModel]
    weights: np.ndarray
    intercept: float
    alpha: float
    ranking: ModelRanking


def fit_base(spec: ModelSpec, X, y, row_sets) -> list[FittedModel]:
    """``fit_many``; a fit error names the model it came from."""
    try:
        return fit_many(spec, X, y, row_sets)
    except HerdWeightError as exc:
        raise type(exc)(f"model {spec.name!r}: {exc}") from exc


def oof_predictions(X, y, specs, folds: FoldAssignment, *, log=None, sample_ids=None,
                    X_test=None) -> np.ndarray:
    """(n, len(specs)) matrix of strictly out-of-fold predictions.

    Entry (i, m) is spec m's prediction for sample i from a model fit on
    every fold except sample i's. Each spec fits all folds in one
    ``fit_many`` batch. With ``X_test`` the batch also refits each spec on
    all n rows, and that model's predictions for X_test's rows follow.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if sample_ids is None:
        sample_ids = np.arange(n)
    fits = [(f"oof fold={f} model=", folds.train_indices(f), folds.test_indices(f))
            for f in range(folds.k)]
    if X_test is not None:
        fits.append(("refit model=", np.arange(n), np.arange(n, n + len(X_test))))
        X = np.vstack([X, X_test])
    if log is not None:
        for stage, tr, _ in fits:
            for spec in specs:
                log.record(stage + spec.name, sample_ids[tr])
    out = np.empty((len(X), len(specs)))
    for m, spec in enumerate(specs):
        models = fit_base(spec, X[:n], y, [tr for _, tr, _ in fits])
        for model, (_, _, te) in zip(models, fits):
            out[te, m] = model.predict(X[te])
    return out


def rank_base_models(y, oof: np.ndarray, folds: FoldAssignment,
                     specs) -> tuple[ModelRanking, tuple[int, ...]]:
    """Rank specs by the mean over ``folds`` of their out-of-fold MAPE.

    ``oof`` holds one out-of-fold column per spec, in spec order. Returns
    the ranking and the spec index of each rank.
    """
    y = np.asarray(y, dtype=np.float64)
    tests = [folds.test_indices(f) for f in range(folds.k)]
    means = []
    for m in range(len(specs)):
        triples = [compute_metrics(y[te], oof[te, m]) for te in tests]
        means.append([float(np.mean([getattr(t, key) for t in triples])) for key in ("mape", "r2", "mae")])
    order = tuple(sorted(range(len(specs)), key=lambda m: (means[m][0], m)))
    return ModelRanking(entries=tuple(RankedModel(specs[m].name, *means[m]) for m in order)), order


@dataclass(frozen=True)
class InnerPass:
    """Every spec fit once on every fold of ``folds``, and ranked.

    ``y`` holds the targets of the rows the pass was fit on, and ``oof``
    its out-of-fold matrix: C-ordered, with columns in rank order.
    ``order`` is the spec index of each rank. The combiner of a stack of
    any size is fit from this record with no further base fit.

    In nested CV this is the one record of an outer fold, made on its
    training rows. ``test`` then holds each spec refit on all of them, in
    the same batches, and predicted on the held-out rows, laid out as
    ``oof``, so a stack of any size is scored from it with no further fit.
    ``log``, kept for the leakage audit, holds every fit the fold makes:
    inner out-of-fold fits, refits and combiner.
    """

    folds: FoldAssignment
    y: np.ndarray
    oof: np.ndarray
    ranking: ModelRanking
    order: tuple[int, ...]
    test: np.ndarray | None = None
    log: ProvenanceLog | None = None
    size_errors: dict = field(default_factory=dict, init=False, compare=False)   # alpha -> all ranks

    def combiner(self, m_top: int, alpha: float) -> tuple[np.ndarray, float]:
        """Ridge combiner on the leading ``choose_stack_size`` of the top
        ``m_top`` ranks; returns one weight per rank it uses."""
        if not 1 <= m_top <= len(self.order):
            raise ValueError(f"m_top must be in [1, {len(self.order)}], got {m_top}")
        if alpha not in self.size_errors:
            self.size_errors[alpha] = stack_size_errors(self.oof, self.y, self.folds, alpha)
        size = choose_stack_size(self.size_errors[alpha], [e.mape for e in self.ranking.entries[:m_top]])
        return ridge_combiner(self.oof[:, :size], self.y, alpha)


def inner_pass(X, y, specs, folds: FoldAssignment, *, log=None, sample_ids=None,
               X_test=None) -> InnerPass:
    """Fit every spec on every fold of ``folds`` once and rank the specs;
    with held-out rows ``X_test``, also refit every spec on all rows in
    the same batches and predict them."""
    y = np.asarray(y, dtype=np.float64)
    oof = oof_predictions(X, y, specs, folds, log=log, sample_ids=sample_ids, X_test=X_test)
    ranking, order = rank_base_models(y, oof[:len(y)], folds, specs)
    # column_stack, not fancy indexing: a C-ordered matrix keeps the
    # combiner's and the prediction's BLAS summation order, and so their
    # last bits, fixed
    ranked = np.column_stack([oof[:, i] for i in order])
    return InnerPass(folds=folds, y=y, oof=ranked[:len(y)], ranking=ranking, order=order,
                     test=None if X_test is None else ranked[len(y):], log=log)


def ridge_combiner(meta: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form ridge on centred columns; intercept unpenalised."""
    meta = np.asarray(meta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    col_mean = meta.mean(axis=0)
    centred = meta - col_mean
    y_mean = y.mean()
    gram = centred.T @ centred + alpha * np.eye(meta.shape[1])
    rhs = centred.T @ (y - y_mean)
    if alpha > 0:
        w = np.linalg.solve(gram, rhs)
    else:
        w, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return w, float(y_mean - col_mean @ w)


def stack_size_errors(meta: np.ndarray, y: np.ndarray, folds: FoldAssignment, alpha: float) -> np.ndarray:
    """Row s - 1: each animal's absolute percentage error under the ridge
    combiner on the first s columns of ``meta``, fit on the other folds."""
    if (y <= 0).any():
        raise NonPositiveTarget("targets must be > 0 for percentage error")
    ape = np.empty((meta.shape[1], len(y)))
    for f in range(folds.k):
        tr, te = folds.train_indices(f), folds.test_indices(f)
        for s in range(1, meta.shape[1] + 1):
            w, b = ridge_combiner(meta[tr, :s], y[tr], alpha)
            ape[s - 1, te] = np.abs(meta[te, :s] @ w + b - y[te]) / y[te]
    return ape


def choose_stack_size(size_errors: np.ndarray, rank_mapes) -> int:
    """How many of the top m = len(``rank_mapes``) ranks the combiner uses.

    Row s - 1 of ``size_errors`` (``stack_size_errors``) scores size s;
    rows past m are not read. The smallest size within one standard error
    of the best mean wins. A size that cuts between two ranks whose
    ranking MAPEs tie exactly is no candidate, except s = m: the
    tie-break is declaration order, so such a cut would be arbitrary.
    """
    m = len(rank_mapes)
    sizes = [s for s in range(1, m) if rank_mapes[s - 1] != rank_mapes[s]] + [m]
    ape = size_errors[[s - 1 for s in sizes]]
    mean = ape.mean(axis=1)
    best = int(np.argmin(mean))
    bound = mean[best] + ape[best].std(ddof=1) / np.sqrt(ape.shape[1])
    return next(s for s, mu in zip(sizes, mean) if mu <= bound)


def fit_stack(X, y, specs, inner: InnerPass, *, m_top: int,
              alpha: float = DEFAULT_RIDGE_ALPHA) -> StackedEnsemble:
    """Fit the combiner on the top ``m_top`` ranks of ``inner``, the inner
    pass over ``specs``; refit the members it uses on all data."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    weights, intercept = inner.combiner(m_top, alpha)
    used = [specs[i] for i in inner.order[:len(weights)]]
    models = [fit_base(spec, X, y, [np.arange(len(y))])[0] for spec in used]
    return StackedEnsemble(specs=used, models=models, weights=weights,
                           intercept=intercept, alpha=alpha, ranking=inner.ranking)


def predict_stack(ensemble: StackedEnsemble, X) -> np.ndarray:
    """Affine combination of the refit base predictions."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D feature matrix, got shape {X.shape}")
    base = np.column_stack([m.predict(X) for m in ensemble.models])
    return base @ ensemble.weights + ensemble.intercept


def ensemble_to_dict(ensemble: StackedEnsemble) -> dict:
    return {
        "format_version": 1,
        "alpha": ensemble.alpha,
        "weights": ensemble.weights.tolist(),
        "intercept": ensemble.intercept,
        "specs": [spec_to_dict(s) for s in ensemble.specs],
        "models": [m.to_dict() for m in ensemble.models],
        "ranking": [{"name": e.name, "mape": e.mape, "r2": e.r2, "mae": e.mae}
                    for e in ensemble.ranking.entries],
    }


def ensemble_from_dict(d: dict) -> StackedEnsemble:
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported ensemble format_version {d.get('format_version')!r}")
    ranking = ModelRanking(entries=tuple(
        RankedModel(name=e["name"], mape=e["mape"], r2=e["r2"], mae=e["mae"]) for e in d["ranking"]))
    check_number("intercept", d["intercept"])
    check_number("alpha", d["alpha"])
    ensemble = StackedEnsemble(
        specs=[spec_from_dict(s) for s in d["specs"]],
        models=[model_from_dict(m) for m in d["models"]],
        weights=as_numbers("weights", d["weights"]).astype(np.float64),
        intercept=float(d["intercept"]),
        alpha=float(d["alpha"]),
        ranking=ranking,
    )
    if not ensemble.models:
        raise ValueError("the ensemble has no members")
    if len(ensemble.specs) != len(ensemble.models):
        raise ValueError(f"{len(ensemble.specs)} specs but {len(ensemble.models)} models")
    if ensemble.weights.shape != (len(ensemble.models),):
        raise ValueError(f"{len(ensemble.models)} models but weights of shape {ensemble.weights.shape}")
    if "n_features" in d:  # train writes it; ensemble_to_dict alone does not
        check_number("n_features", d["n_features"], integer=True)
        if {m.n_features for m in ensemble.models} != {d["n_features"]}:
            raise ValueError(f"n_features is {d['n_features']}, but a member takes another number")
    return ensemble
