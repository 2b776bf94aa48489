"""Cross-validation protocol, metrics, and the ensemble-size sweep.

The headline protocol is nested: an outer k-fold loop scores the full
stacking procedure (rank on inner folds, build meta-features, fit the
combiner, refit bases) on held-out folds it never touched, and the inner
fold assignment is derived deterministically from (seed, outer fold).
Each outer fold is fitted once (``nested_cv``); the report at any stack
size, the ensemble-size sweep and the outer-fold ranking are all read
from that one pass. Reported spread is the population std over fold
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidK, LengthMismatch, NonPositiveTarget, ZeroVarianceTarget

if TYPE_CHECKING:
    from .stacking import InnerPass, ModelRanking

__all__ = [
    "FoldAssignment",
    "MetricTriple",
    "FoldStats",
    "MetricReport",
    "ProvenanceLog",
    "AuditReport",
    "CVResult",
    "SweepRow",
    "OuterFold",
    "NestedCV",
    "kfold_split",
    "compute_metrics",
    "nested_cv",
    "cross_validate",
    "ensemble_size_sweep",
]


@dataclass(frozen=True)
class FoldAssignment:
    """Seeded shuffle-then-chunk assignment of n samples to k folds."""

    k: int
    fold_of: np.ndarray
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def kfold_split(n: int, k: int, seed: int) -> FoldAssignment:
    """Assign n samples to k folds whose sizes differ by at most one."""
    if not 2 <= k <= n:
        raise InvalidK(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.intp)
    for f, members in enumerate(np.array_split(perm, k)):
        fold_of[members] = f
    return FoldAssignment(k=k, fold_of=fold_of, seed=seed)


@dataclass(frozen=True)
class MetricTriple:
    """R^2, MAE (kg) and MAPE (%) for one prediction set.

    r2 is NaN for a single sample, where it is undefined.
    """

    r2: float
    mae: float
    mape: float


def compute_metrics(y, y_pred) -> MetricTriple:
    """Score predictions against positive targets.

    R^2 = 1 - SS_res/SS_tot; MAE = mean |y - y_hat|; MAPE = 100 * mean
    |y - y_hat| / y. Constant targets give R^2 = 0 when predictions match
    them exactly and raise ZeroVarianceTarget otherwise.
    """
    y = np.asarray(y, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y.shape != y_pred.shape or y.ndim != 1 or y.size == 0:
        raise LengthMismatch(f"targets {y.shape} vs predictions {y_pred.shape}")
    if (y <= 0).any():
        raise NonPositiveTarget("targets must be > 0 for percentage error")
    err = y - y_pred
    mae = float(np.abs(err).mean())
    mape = float(100.0 * (np.abs(err) / y).mean())
    if y.size < 2:
        return MetricTriple(r2=float("nan"), mae=mae, mape=mape)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((err**2).sum())
    if ss_tot == 0.0:
        if ss_res == 0.0:
            return MetricTriple(r2=0.0, mae=mae, mape=mape)
        raise ZeroVarianceTarget("constant targets with non-matching predictions")
    return MetricTriple(r2=1.0 - ss_res / ss_tot, mae=mae, mape=mape)


@dataclass(frozen=True)
class FoldStats:
    per_fold: tuple[float, ...]
    mean: float
    std: float


def _fold_stats(values) -> FoldStats:
    arr = np.asarray(values, dtype=np.float64)
    return FoldStats(per_fold=tuple(arr.tolist()), mean=float(arr.mean()), std=float(arr.std()))


@dataclass(frozen=True)
class MetricReport:
    """Per-fold metrics with mean and population std across folds."""

    r2: FoldStats
    mae: FoldStats
    mape: FoldStats

    def to_json_dict(self) -> dict:
        out = {}
        for key, stats in (("r2", self.r2), ("mae_kg", self.mae), ("mape_pct", self.mape)):
            out[key] = {"per_fold": list(stats.per_fold), "mean": stats.mean, "std": stats.std}
        return out


def report_from_triples(triples) -> MetricReport:
    return MetricReport(
        r2=_fold_stats([t.r2 for t in triples]),
        mae=_fold_stats([t.mae for t in triples]),
        mape=_fold_stats([t.mape for t in triples]),
    )


class ProvenanceLog:
    """Recorder for the sample ids flowing into every fit call."""

    def __init__(self) -> None:
        self.records: list[tuple[str, frozenset]] = []

    def record(self, stage: str, ids) -> None:
        self.records.append((stage, frozenset(int(i) for i in ids)))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the leakage audit across all outer folds."""

    n_fits: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CVResult:
    report: MetricReport
    audit: AuditReport | None = None


def _inner_seed(seed: int, outer_fold: int) -> int:
    return int(np.random.SeedSequence([seed, outer_fold]).generate_state(1)[0])


@dataclass(frozen=True)
class OuterFold:
    """One outer fold of nested CV, with every base fit it needs done once.

    ``inner`` is the inner pass (``stacking.inner_pass``) on the
    outer-train rows, and ``base_test`` holds every spec refit on all
    outer-train rows and predicted on the held-out rows (columns in rank
    order). A stack of any size is scored from these with no further base
    fit.
    ``log``, kept for the leakage audit, holds every fit the fold makes:
    inner out-of-fold fits, combiner and refits.
    """

    train_ids: np.ndarray
    test_ids: np.ndarray
    inner: InnerPass
    base_test: np.ndarray
    log: ProvenanceLog | None


def _outer_fold_task(args) -> OuterFold:
    from . import stacking  # imported here to avoid a module cycle

    fold, X, y, outer_seed, k, specs, inner_k, audit = args
    outer = kfold_split(len(y), k, outer_seed)
    train_ids = outer.train_indices(fold)
    test_ids = outer.test_indices(fold)
    X_train, y_train, X_test = X[train_ids], y[train_ids], X[test_ids]

    log = ProvenanceLog() if audit else None
    inner = stacking.inner_pass(X_train, y_train, specs,
                                kfold_split(len(train_ids), inner_k, _inner_seed(outer_seed, fold)),
                                log=log, sample_ids=train_ids)

    def refit(spec):
        if log is not None:
            log.record(f"refit model={spec.name}", train_ids)
        return stacking.fit_base(spec, X_train, y_train).predict(X_test)

    if log is not None:
        log.record("combiner", train_ids)
    # column_stack, not fancy indexing: a C-ordered matrix keeps the
    # prediction's BLAS summation order, and so its last bit, fixed
    base_test = np.column_stack([refit(specs[i]) for i in inner.order])
    return OuterFold(train_ids=train_ids, test_ids=test_ids, inner=inner, base_test=base_test, log=log)


@dataclass(frozen=True)
class NestedCV:
    """Every outer fold of one nested k-fold CV pass.

    The report at any stack size, the ensemble-size sweep, the outer-fold
    ranking and the leakage audit are all read from these records.
    """

    specs: tuple
    y: np.ndarray
    outer: FoldAssignment
    folds: tuple[OuterFold, ...]

    def metrics(self, m_top: int, alpha: float) -> MetricReport:
        """Held-out metrics of the stack over the top ``m_top`` members."""
        triples = []
        for rec in self.folds:
            w, b = rec.inner.combiner(self.y[rec.train_ids], m_top, alpha)
            triples.append(compute_metrics(self.y[rec.test_ids], rec.base_test[:, :w.size] @ w + b))
        return report_from_triples(triples)

    def sweep(self, m_values, alpha: float) -> list[SweepRow]:
        rows = []
        for m in m_values:
            rep = self.metrics(m, alpha)
            rows.append(SweepRow(m=m, r2_mean=rep.r2.mean, r2_std=rep.r2.std,
                                 mae_mean=rep.mae.mean, mae_std=rep.mae.std,
                                 mape_mean=rep.mape.mean, mape_std=rep.mape.std))
        return rows

    def ranking(self) -> ModelRanking:
        """What ``inner_pass(X, y, specs, outer).ranking`` returns, with no
        fit of its own: on the outer folds, the out-of-fold predictions
        are the held-out refit predictions."""
        from . import stacking  # imported here to avoid a module cycle

        oof = np.empty((len(self.y), len(self.specs)))
        for rec in self.folds:
            oof[np.ix_(rec.test_ids, rec.inner.order)] = rec.base_test
        return stacking.rank_base_models(self.y, oof, self.outer, self.specs)[0]

    def audit(self) -> AuditReport:
        """Leakage audit: no logged fit may have seen its fold's held-out rows."""
        if any(rec.log is None for rec in self.folds):
            raise ValueError("the nested pass ran without audit=True")
        n_fits, violations = 0, []
        for fold, rec in enumerate(self.folds):
            held_out = frozenset(int(i) for i in rec.test_ids)
            n_fits += len(rec.log.records)
            for stage, ids in rec.log.records:
                if ids & held_out:
                    violations.append(f"fold {fold}: {stage} trained on held-out samples "
                                      f"{sorted(ids & held_out)}")
        return AuditReport(n_fits=n_fits, violations=tuple(violations))


def nested_cv(X, y, specs, *, k: int = 5, inner_k: int = 5, seed: int = 0,
              audit: bool = False, jobs: int = 1) -> NestedCV:
    """Fit every outer fold of nested k-fold CV once.

    With ``audit=True`` each fit (inner out-of-fold fits, combiner,
    refits) is tagged with the sample ids it saw, for the leakage audit.
    Outer folds can run in parallel (``jobs``); the result is independent
    of scheduling.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tasks = [(f, X, y, seed, k, list(specs), inner_k, audit) for f in range(k)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(_outer_fold_task, tasks))
    else:
        folds = [_outer_fold_task(t) for t in tasks]
    return NestedCV(specs=tuple(specs), y=y, outer=kfold_split(len(y), k, seed), folds=tuple(folds))


def cross_validate(X, y, specs, *, m_top=None, k: int = 5, inner_k: int = 5,
                   seed: int = 0, alpha: float = 1.0, audit: bool = False,
                   jobs: int = 1) -> CVResult:
    """Score the full stacking pipeline by nested k-fold cross-validation.

    With ``audit=True`` every fit call is tagged with the sample ids it
    saw, and the result carries a leakage report. Outer folds can run in
    parallel (``jobs``); the result is independent of scheduling.
    """
    if m_top is None:
        m_top = len(specs)
    cv = nested_cv(X, y, specs, k=k, inner_k=inner_k, seed=seed, audit=audit, jobs=jobs)
    return CVResult(report=cv.metrics(m_top, alpha), audit=cv.audit() if audit else None)


@dataclass(frozen=True)
class SweepRow:
    m: int
    r2_mean: float
    r2_std: float
    mae_mean: float
    mae_std: float
    mape_mean: float
    mape_std: float


def ensemble_size_sweep(X, y, specs, m_values, *, k: int = 5, inner_k: int = 5,
                        seed: int = 0, alpha: float = 1.0) -> list[SweepRow]:
    """Nested-CV metrics for each ensemble size in ``m_values``.

    All sizes share the same folds, rankings and base fits per outer
    fold; only the combiner (``stacking.fit_combiner``, size choice
    included) is refit per size, so row m equals
    ``cross_validate(m_top=m)``.
    """
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise ValueError("m_values is empty")
    if min(m_values) < 1 or max(m_values) > len(specs):
        raise ValueError(f"ensemble sizes must lie in [1, {len(specs)}], got {m_values}")
    cv = nested_cv(X, y, specs, k=k, inner_k=inner_k, seed=seed)
    return cv.sweep(m_values, alpha)
