"""Linear families: OLS, ridge, lasso/elastic net, and Huber.

All of them work on standardised features. OLS goes through the
pseudo-inverse, ridge through the closed form on centred data with an
unpenalised intercept, lasso/elastic net through cyclic coordinate
descent, and Huber through iteratively reweighted least squares.
"""

from __future__ import annotations

import numpy as np

from .base import FittedModel, ModelSpec


class LinearModel(FittedModel):
    """Affine predictor in standardised feature space."""

    kind = "linear"

    def __init__(self, spec, feature_mean, feature_scale, coef, intercept):
        super().__init__(spec, feature_mean, feature_scale)
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    def _predict_std(self, Xs):
        return Xs @ self.coef + self.intercept

    def original_coefficients(self) -> tuple[np.ndarray, float]:
        """(slope, intercept) mapped back to raw feature units."""
        slope = self.coef / self.feature_scale
        intercept = self.intercept - float(slope @ self.feature_mean)
        return slope, intercept

    def _state_dict(self):
        return {"coef": self.coef.tolist(), "intercept": self.intercept}


def fit_ols(spec: ModelSpec, Xs, y, mean, scale) -> LinearModel:
    n = Xs.shape[0]
    design = np.hstack([Xs, np.ones((n, 1))])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(spec, mean, scale, sol[:-1], sol[-1])


def fit_ridge(spec: ModelSpec, Xs, y, mean, scale, *, alpha: float) -> LinearModel:
    """Closed-form ridge on centred data; the intercept is not penalised.

    Solved as an augmented least-squares system so alpha = 0 degrades
    gracefully to the pseudo-inverse solution.
    """
    d = Xs.shape[1]
    col_mean = Xs.mean(axis=0)
    Xc = Xs - col_mean
    y_mean = y.mean()
    aug = np.vstack([Xc, np.sqrt(alpha) * np.eye(d)])
    rhs = np.concatenate([y - y_mean, np.zeros(d)])
    coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    intercept = y_mean - float(col_mean @ coef)
    return LinearModel(spec, mean, scale, coef, intercept)


def fit_coordinate_descent(spec: ModelSpec, Xs, y, mean, scale, *, alpha: float,
                           l1_ratio: float, tol: float, max_sweeps: int) -> LinearModel:
    """Cyclic coordinate descent for (1/2n)||y - Xw||^2 + penalties.

    Penalty: alpha * l1_ratio * ||w||_1 + alpha * (1 - l1_ratio)/2 * ||w||^2.
    Stops when the largest coefficient change in a sweep drops below tol.
    """
    n, d = Xs.shape
    col_mean = Xs.mean(axis=0)
    Xc = Xs - col_mean
    y_mean = y.mean()
    yc = y - y_mean

    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    col_sq = (Xc * Xc).sum(axis=0) / n
    w = np.zeros(d)
    resid = yc.copy()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(d):
            wj = w[j]
            if wj != 0.0:
                resid += wj * Xc[:, j]
            rho = float(Xc[:, j] @ resid) / n
            denom = col_sq[j] + l2
            if denom == 0.0:
                new = 0.0
            else:
                new = np.sign(rho) * max(abs(rho) - l1, 0.0) / denom
            if new != 0.0:
                resid -= new * Xc[:, j]
            w[j] = new
            max_delta = max(max_delta, abs(new - wj))
        if max_delta < tol:
            break
    intercept = y_mean - float(col_mean @ w)
    return LinearModel(spec, mean, scale, w, intercept)


def fit_huber(spec: ModelSpec, Xs, y, mean, scale, *, delta: float,
              max_iter: int, tol: float) -> LinearModel:
    """IRLS Huber regression; delta applies to MAD-standardised residuals."""
    n = Xs.shape[0]
    design = np.hstack([Xs, np.ones((n, 1))])
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    for _ in range(max_iter):
        resid = y - design @ theta
        med = np.median(resid)
        mad = np.median(np.abs(resid - med))
        s = mad / 0.6745
        if s <= 1e-12 * max(1.0, float(np.abs(y).max())):
            break
        u = np.abs(resid) / s
        weights = np.where(u <= delta, 1.0, delta / u)
        sw = np.sqrt(weights)
        theta_new, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        step = float(np.abs(theta_new - theta).max())
        theta = theta_new
        if step < tol * max(1.0, float(np.abs(theta).max())):
            break
    return LinearModel(spec, mean, scale, theta[:-1], theta[-1])
