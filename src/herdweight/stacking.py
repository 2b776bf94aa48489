"""Model ranking, out-of-fold meta-features, and the ridge combiner.

Base models are ranked by cross-validated MAPE on a shared fold
assignment. The meta-features handed to the combiner are strictly
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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HerdWeightError, NonPositiveTarget
from .evaluation import FoldAssignment, compute_metrics, kfold_split
from .regressors import (
    FittedModel,
    ModelSpec,
    fit,
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

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, m: int) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries[:m])


@dataclass
class StackedEnsemble:
    """The combiner's members refit on the full training split, one weight each."""

    specs: list[ModelSpec]
    models: list[FittedModel]
    weights: np.ndarray
    intercept: float
    alpha: float
    ranking: ModelRanking


def fit_base(spec: ModelSpec, X, y) -> FittedModel:
    """Fit one base model; a fit error names the model it came from."""
    try:
        return fit(spec, X, y)
    except HerdWeightError as exc:
        raise type(exc)(f"model {spec.name!r}: {exc}") from exc


def oof_predictions(X, y, specs, folds: FoldAssignment, *, log=None, sample_ids=None) -> np.ndarray:
    """(n, len(specs)) matrix of strictly out-of-fold predictions.

    Entry (i, m) is spec m's prediction for sample i from a model fit on
    every fold except sample i's.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if sample_ids is None:
        sample_ids = np.arange(len(y))
    out = np.empty((len(y), len(specs)))
    for f in range(folds.k):
        tr, te = folds.train_indices(f), folds.test_indices(f)
        for m, spec in enumerate(specs):
            model = fit_base(spec, X[tr], y[tr])
            if log is not None:
                log.record(f"oof fold={f} model={spec.name}", sample_ids[tr])
            out[te, m] = model.predict(X[te])
    return out


def rank_base_models(X, y, specs, *, k: int = 5, seed: int = 0,
                     folds: FoldAssignment | None = None,
                     oof: np.ndarray | None = None) -> ModelRanking:
    """Rank specs by mean CV MAPE over a shared fold assignment."""
    y = np.asarray(y, dtype=np.float64)
    if folds is None:
        folds = kfold_split(len(y), k, seed)
    if oof is None:
        oof = oof_predictions(X, y, specs, folds)

    means = []
    for m, spec in enumerate(specs):
        triples = [compute_metrics(y[folds.test_indices(f)], oof[folds.test_indices(f), m])
                   for f in range(folds.k)]
        means.append((float(np.mean([t.mape for t in triples])),
                      float(np.mean([t.r2 for t in triples])),
                      float(np.mean([t.mae for t in triples]))))
    order = sorted(range(len(specs)), key=lambda m: (means[m][0], m))
    entries = tuple(RankedModel(name=specs[m].name, mape=means[m][0], r2=means[m][1], mae=means[m][2])
                    for m in order)
    return ModelRanking(entries=entries)


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


def choose_stack_size(meta: np.ndarray, y: np.ndarray, folds: FoldAssignment,
                      rank_mapes, alpha: float) -> int:
    """How many leading columns of ``meta`` the combiner uses.

    ``meta`` holds the top-m out-of-fold columns in rank order, ``folds``
    is the assignment that produced them and ``rank_mapes`` their ranking
    MAPEs. Each candidate size s is scored by fitting the ridge combiner on
    the first s columns of all folds but one and taking the per-animal
    absolute percentage error on that fold. The smallest size within one
    standard error of the best mean wins. A size that cuts between two
    models whose ranking MAPEs tie exactly is no candidate, except s = m:
    the tie-break is declaration order, so such a cut would be arbitrary.
    """
    if (y <= 0).any():
        raise NonPositiveTarget("targets must be > 0 for percentage error")
    m = meta.shape[1]
    sizes = [s for s in range(1, m) if rank_mapes[s - 1] != rank_mapes[s]] + [m]
    if len(sizes) == 1:
        return m
    ape = np.empty((len(sizes), len(y)))
    for f in range(folds.k):
        tr, te = folds.train_indices(f), folds.test_indices(f)
        for i, s in enumerate(sizes):
            w, b = ridge_combiner(meta[tr, :s], y[tr], alpha)
            ape[i, te] = np.abs(meta[te, :s] @ w + b - y[te]) / y[te]
    mean = ape.mean(axis=1)
    best = int(np.argmin(mean))
    bound = mean[best] + ape[best].std(ddof=1) / np.sqrt(len(y))
    return next(s for s, mu in zip(sizes, mean) if mu <= bound)


def fit_combiner(meta: np.ndarray, y: np.ndarray, folds: FoldAssignment,
                 rank_mapes, alpha: float) -> tuple[np.ndarray, float]:
    """Ridge combiner on the leading ``choose_stack_size`` columns of
    ``meta``; returns one weight per column it uses."""
    meta = np.asarray(meta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    size = choose_stack_size(meta, y, folds, rank_mapes, alpha)
    return ridge_combiner(meta[:, :size], y, alpha)


def fit_stack(X, y, specs, ranking: ModelRanking, *, m_top: int | None = None,
              k: int = 5, seed: int = 0, alpha: float = DEFAULT_RIDGE_ALPHA,
              folds: FoldAssignment | None = None,
              oof: np.ndarray | None = None) -> StackedEnsemble:
    """Fit the combiner on out-of-fold meta-features; refit its members on all data.

    ``oof``, when given, must be the (n, len(specs)) matrix aligned with
    ``specs`` and computed on ``folds`` (default ``kfold_split(n, k,
    seed)``) — the top columns are sliced out of it instead of refitting.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if m_top is None:
        m_top = len(ranking)
    if not 1 <= m_top <= len(ranking):
        raise ValueError(f"m_top must be in [1, {len(ranking)}], got {m_top}")
    by_name = {s.name: s for s in specs}
    top_names = ranking.top(m_top)
    top_specs = [by_name[name] for name in top_names]

    if folds is None:
        folds = kfold_split(len(y), k, seed)
    if oof is not None:
        col_of = {s.name: i for i, s in enumerate(specs)}
        # C order, as oof_predictions returns it: the combiner's BLAS sums
        # depend on the operand layout, and model.json must not.
        meta = np.ascontiguousarray(oof[:, [col_of[name] for name in top_names]])
    else:
        meta = oof_predictions(X, y, top_specs, folds)

    rank_mapes = [e.mape for e in ranking.entries[:m_top]]
    weights, intercept = fit_combiner(meta, y, folds, rank_mapes, alpha)
    used = top_specs[:len(weights)]
    models = [fit_base(spec, X, y) for spec in used]
    return StackedEnsemble(specs=used, models=models, weights=weights,
                           intercept=intercept, alpha=alpha, ranking=ranking)


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
    ensemble = StackedEnsemble(
        specs=[spec_from_dict(s) for s in d["specs"]],
        models=[model_from_dict(m) for m in d["models"]],
        weights=np.asarray(d["weights"], dtype=np.float64),
        intercept=float(d["intercept"]),
        alpha=float(d["alpha"]),
        ranking=ranking,
    )
    if not ensemble.models:
        raise ValueError("the ensemble has no members")
    if ensemble.weights.shape != (len(ensemble.models),):
        raise ValueError(f"{len(ensemble.models)} models but weights of shape {ensemble.weights.shape}")
    if not (np.isfinite(ensemble.weights).all() and np.isfinite(ensemble.intercept)):
        raise ValueError("weights and intercept must be finite")
    return ensemble
