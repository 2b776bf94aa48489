"""Huber regression: the active-set Newton fit against its optimality
conditions and against fixed-scale IRLS run to convergence.

At the scale s fixed from the OLS residuals (their MAD over 0.6745) and
c = delta s, every fit must meet the stationarity condition
D' clip(r, -c, c) = 0 of sum rho_c(r) for the design D = [Xs, 1] to 1e-9
of c sum_i |D_ij| in each column, plus what the residuals' rounding can
add, and reach an objective no higher than IRLS's at 10 000 steps, up to
rounding. With no more rows than coefficients the fit is OLS, bit for bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from herdweight.regressors import ModelSpec, fit  # noqa: E402

KKT_TOL = 1e-9
# a residual's rounding error, as a share of |y_i| + |D_i| |theta|
RESIDUAL_ROUNDING = 1e-12
# the objective is compared to IRLS's up to this share of the objective at
# the OLS coefficients
OBJECTIVE_ROUNDING = 1e-10
PROBLEMS = ("random", "collinear", "sums_to_one", "near_square", "outliers")


def _design(model, X):
    Xs = (X - model.feature_mean) / model.feature_scale
    return np.hstack([Xs, np.ones((len(X), 1))])


def _scale(design, y):
    ols, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ ols
    return np.median(np.abs(r - np.median(r))) / 0.6745, ols


def _objective(design, y, theta, c):
    r = np.abs(y - design @ theta)
    return float(np.where(r <= c, r * r / 2, c * r - c * c / 2).sum())


def irls(design, y, c, theta, tol=1e-13, max_steps=10_000):
    """The slow oracle: iteratively reweighted least squares at the fixed
    scale, weights min(1, c/|r|), until no coefficient moves by tol."""
    for _ in range(max_steps):
        r = np.abs(y - design @ theta)
        sw = np.sqrt(np.minimum(1.0, c / np.maximum(r, 1e-300)))
        new, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        step, theta = float(np.abs(new - theta).max()), new
        if step < tol * max(1.0, float(np.abs(theta).max())):
            break
    return theta


def _problem(kind, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 33 if kind == "sums_to_one" else 8))   # up to the 32 herd features
    n = int(rng.integers(d + 2, d + 10)) if kind == "near_square" else int(rng.integers(d + 2, d + 40))
    X = rng.normal(size=(n, d))
    if kind == "collinear":
        X[:, 2] = X[:, 0] - 2.0 * X[:, 1]
    elif kind == "sums_to_one":   # like the z-density block: shares of the points per slab
        share = rng.uniform(0.1, 1.0, size=(n, 3))
        X[:, -3:] = share / share.sum(axis=1, keepdims=True)
    y = 500.0 + 80.0 * X[:, 0] - 30.0 * X[:, 1] + 5.0 * rng.standard_t(3, size=n)
    if kind == "outliers":
        gross = rng.choice(n, size=max(1, n // 8), replace=False)
        y[gross] += rng.choice([-1.0, 1.0], size=gross.size) * rng.uniform(200.0, 2000.0, size=gross.size)
    return X, np.abs(y) + 1.0


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(PROBLEMS), seed=st.integers(0, 2**32 - 1), delta=st.sampled_from([0.5, 1.35, 3.0]))
def test_newton_is_stationary_and_beats_irls(kind, seed, delta):
    X, y = _problem(kind, seed)
    model = fit(ModelSpec(name="m", family="huber", params={"delta": delta}), X, y)
    design = _design(model, X)
    theta = np.append(model.coef, model.intercept)
    s, ols = _scale(design, y)
    c = delta * s

    grad = design.T @ np.clip(y - design @ theta, -c, c)
    rounding = RESIDUAL_ROUNDING * np.abs(design).T @ (np.abs(y) + np.abs(design) @ np.abs(theta))
    assert (np.abs(grad) <= KKT_TOL * c * np.abs(design).sum(axis=0) + rounding).all()

    oracle = irls(design, y, c, ols)
    rounding = OBJECTIVE_ROUNDING * _objective(design, y, ols, c)
    assert _objective(design, y, theta, c) <= _objective(design, y, oracle, c) + rounding


@pytest.mark.parametrize("seed", range(8))
def test_no_more_rows_than_coefficients_is_ols_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    n = int(rng.integers(2, d + 2))
    X = rng.normal(size=(n, d))
    y = 500.0 + 80.0 * X[:, 0] + rng.uniform(1.0, 50.0, size=n)
    huber = fit(ModelSpec(name="h", family="huber"), X, y)
    ols = fit(ModelSpec(name="o", family="ols"), X, y)
    assert huber.coef.tobytes() == ols.coef.tobytes()
    assert huber.intercept.tobytes() == ols.intercept.tobytes()


def test_max_iter_caps_newton_steps():
    """One step from OLS lowers the objective but does not reach the
    minimiser that more steps reach."""
    X, y = _problem("outliers", 3)
    fits = [fit(ModelSpec(name="m", family="huber", params={"max_iter": k}), X, y) for k in (1, 100)]
    design = _design(fits[0], X)
    s, ols = _scale(design, y)
    at_ols, one, full = (_objective(design, y, t, 1.35 * s)
                         for t in (ols, *(np.append(m.coef, m.intercept) for m in fits)))
    assert full < one < at_ols
