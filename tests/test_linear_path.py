"""Lasso and elastic net: the exact path against its optimality conditions
and against cyclic coordinate descent, the solver it replaced.

Every fit must meet the KKT conditions of
(1/2n)||yc - Xc w||^2 + l1 ||w||_1 + (l2/2)||w||^2 to 1e-9 of the
largest |correlation| max|Xc'yc|/n, and reach an objective no higher than
coordinate descent's at 10 000 sweeps, up to rounding.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from herdweight.regressors import ModelSpec, fit  # noqa: E402

KKT_TOL = 1e-9
# the objective is compared to coordinate descent's up to this share of
# the objective at w = 0
OBJECTIVE_ROUNDING = 1e-10
PROBLEMS = ("random", "collinear", "duplicated", "constant", "wide", "herd_like")


def coordinate_descent(Xs, y, alpha, l1_ratio, tol=1e-7, max_sweeps=10_000):
    """The slow oracle: cyclic coordinate descent on centred data, stopping
    when no coefficient moves by tol in a sweep."""
    n, d = Xs.shape
    Xc = Xs - Xs.mean(axis=0)
    l1, l2 = alpha * l1_ratio, alpha * (1.0 - l1_ratio)
    col_sq = (Xc * Xc).sum(axis=0) / n
    w = np.zeros(d)
    resid = y - y.mean()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(d):
            old = w[j]
            if old != 0.0:
                resid += old * Xc[:, j]
            rho = float(Xc[:, j] @ resid) / n
            denom = col_sq[j] + l2
            new = 0.0 if denom == 0.0 else np.sign(rho) * max(abs(rho) - l1, 0.0) / denom
            if new != 0.0:
                resid -= new * Xc[:, j]
            w[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            break
    return w


def _problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "herd_like":   # the shape of tests/test_regressors.py::_herd_like
        n, d = 40, 6
    else:
        n, d = int(rng.integers(6, 30)), int(rng.integers(3, 7))
    if kind == "wide":
        n = int(rng.integers(2, d + 1))
    X = rng.normal(size=(n, d))
    if kind == "collinear":
        X[:, 2] = X[:, 0] - 2.0 * X[:, 1]
    elif kind == "duplicated":
        X[:, 1] = X[:, 0]
        X[:, 2] = -X[:, 0]
    elif kind == "constant":
        X[:, 1] = 3.0
    y = 500.0 + 80.0 * X[:, 0] - 30.0 * X[:, 1] + 5.0 * rng.normal(size=n)
    return X, np.abs(y) + 1.0


def _objective(Xc, yc, w, l1, l2):
    r = yc - Xc @ w
    return r @ r / (2 * len(yc)) + l1 * np.abs(w).sum() + l2 / 2 * w @ w


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(PROBLEMS), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]), l1_ratio=st.sampled_from([0.0, 0.5, 1.0]))
def test_path_meets_kkt_and_beats_coordinate_descent(kind, seed, alpha, l1_ratio):
    X, y = _problem(kind, seed)
    spec = (ModelSpec(name="m", family="lasso", params={"alpha": alpha}) if l1_ratio == 1.0 else
            ModelSpec(name="m", family="elastic_net", params={"alpha": alpha, "l1_ratio": l1_ratio}))
    model = fit(spec, X, y)
    w = model.coef
    Xs = (X - model.feature_mean) / model.feature_scale
    Xc, yc = Xs - Xs.mean(axis=0), y - y.mean()
    n = len(y)
    l1, l2 = alpha * l1_ratio, alpha * (1.0 - l1_ratio)

    grad = Xc.T @ (yc - Xc @ w) / n - l2 * w
    scale = max(float(np.abs(Xc.T @ yc).max()) / n, l1)
    on = w != 0.0
    assert (np.abs(grad[on] - l1 * np.sign(w[on])) <= KKT_TOL * scale).all()
    assert (np.abs(grad[~on]) <= l1 + KKT_TOL * scale).all()
    assert model.intercept == pytest.approx(y.mean() - Xs.mean(axis=0) @ w, rel=1e-12, abs=1e-9)

    cd = coordinate_descent(Xs, y, alpha, l1_ratio)
    rounding = OBJECTIVE_ROUNDING * _objective(Xc, yc, np.zeros_like(w), l1, l2)
    assert _objective(Xc, yc, w, l1, l2) <= _objective(Xc, yc, cd, l1, l2) + rounding


def test_max_sweeps_caps_path_steps():
    X, y = _problem("random", 3)
    spec = ModelSpec(name="m", family="lasso", params={"alpha": 0.0, "max_sweeps": 1})
    assert np.count_nonzero(fit(spec, X, y).coef) == 1
