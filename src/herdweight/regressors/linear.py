"""Linear families: OLS, ridge, lasso/elastic net, and Huber.

All of them work on standardised features. OLS goes through the
pseudo-inverse, ridge through the closed form on centred data with an
unpenalised intercept, lasso/elastic net through the exact
piecewise-linear solution path on the Gram matrix (``max_sweeps`` caps
its steps; there is no tolerance), and Huber at a fixed scale through
active-set Newton steps (``max_iter`` caps them; no tolerance either).
"""

from __future__ import annotations

import numpy as np

from .base import FittedModel, ModelSpec


class LinearModel(FittedModel):
    """Affine predictor in standardised feature space."""

    kind = "linear"
    _state = {"coef": ("d",), "intercept": ()}

    def _predict_std(self, Xs):
        return Xs @ self.coef + self.intercept

    def original_coefficients(self) -> tuple[np.ndarray, float]:
        """(slope, intercept) mapped back to raw feature units."""
        slope = self.coef / self.feature_scale
        intercept = self.intercept - float(slope @ self.feature_mean)
        return slope, intercept


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


def fit_elastic_net(spec: ModelSpec, Xs, y, mean, scale, *, alpha: float,
                    l1_ratio: float, max_sweeps: int) -> LinearModel:
    """Exact minimiser of (1/2n)||y - Xw - b||^2 + penalties, lasso at l1_ratio 1.

    Penalty: alpha * l1_ratio * ||w||_1 + alpha * (1 - l1_ratio)/2 * ||w||^2.
    With centred data the objective is w'Hw/2 - q'w + l1 ||w||_1 for
    H = Xc'Xc/n + l2 I and q = Xc'yc/n; ``_homotopy`` follows its path.
    ``max_sweeps`` caps the path steps.
    """
    col_mean = Xs.mean(axis=0)
    Xc = Xs - col_mean
    y_mean = y.mean()
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    w = _homotopy(Xc, y - y_mean, l1, l2, max_sweeps)
    intercept = y_mean - float(col_mean @ w)
    return LinearModel(spec, mean, scale, w, intercept)


# A column whose residual after projection on the active columns keeps
# at most this share of its squared norm lies in their span.
_DEPENDENT = 1e-12
_SIGMA = np.array([[1.0], [-1.0]])


def _homotopy(Xc, yc, l1: float, l2: float, max_steps: int) -> np.ndarray:
    """Minimiser of w'Hw/2 - q'w + l1 ||w||_1 for H = Xc'Xc/n + l2 I and
    q = Xc'yc/n, by the lasso homotopy (LARS-lasso: Osborne, Presnell &
    Turlach 2000; Efron, Hastie, Johnstone & Tibshirani 2004).

    As lambda falls from max|q| to l1, the minimiser at lambda is
    piecewise linear: on the active set A with signs s,
    H_AA w_A = q_A - lambda s_A, and every other feature keeps
    |q_j - H_jA w_A| <= lambda. Each step moves lambda to the next event,
    where one feature joins A or one coefficient reaches zero and leaves
    it. In the next step a feature that just left may not rejoin with the
    sign it left with: its event there is rounding. A column in the span
    of the active columns never joins, since its correlation is fixed by
    theirs; the active block therefore stays nonsingular, and with
    l1 = l2 = 0 and n <= d the path ends at a least-squares solution.
    The coefficients are the active block's solve at lambda = l1, after
    at most ``max_steps`` events.
    """
    n, d = Xc.shape
    H = Xc.T @ Xc / n + l2 * np.eye(d)
    q = Xc.T @ yc / n
    diag = np.diag(H)
    active: list[int] = []
    signs: list[float] = []
    left, left_sign = -1, 0.0
    for step in range(max_steps + 1):
        A = np.array(active, dtype=np.intp)
        s = np.array(signs)
        sol = np.linalg.solve(H[np.ix_(A, A)], np.column_stack([q[A], s, H[A]]))
        p, u, G = sol[:, 0], sol[:, 1], sol[:, 2:]
        # w_A(t) = p - t u; an inactive correlation is e_j + t a_j
        e = q - H[:, A] @ p
        a = H[:, A] @ u
        # squared residual of each column, with its ridge row, after
        # projection on the active columns
        resid = Xc - Xc[:, A] @ G
        span = (resid * resid).sum(axis=0) / n + l2 * (1.0 + (G * G).sum(axis=0))
        free = span > _DEPENDENT * diag
        free[A] = False
        # join where e_j + t a_j = sigma t, for sigma = +1 (row 0) and -1
        rate = 1.0 - _SIGMA * a
        ok = free & (rate > 0)
        ok[_SIGMA[:, 0] == left_sign, left] = False
        join_at = np.where(ok, _SIGMA * e / np.where(ok, rate, 1.0), -np.inf)
        # leave where p_i - t u_i = 0, moving toward zero from sign s_i
        leave_at = np.where(s * u < 0, p / np.where(u == 0, 1.0, u), -np.inf)
        events = np.concatenate([leave_at, join_at.ravel()])
        k = int(np.argmax(events))
        if events[k] <= l1 or step == max_steps:
            break
        if k < len(active):
            left, left_sign = active.pop(k), signs.pop(k)
        else:
            side, j = divmod(k - len(active), d)
            left_sign = 0.0
            active.append(j)
            signs.append(_SIGMA[side, 0])
    w = np.zeros(d)
    w[A] = p - l1 * u
    return w


def fit_huber(spec: ModelSpec, Xs, y, mean, scale, *, delta: float, max_iter: int) -> LinearModel:
    """Minimiser of sum rho(r_i / s) over the residuals r, for Huber's
    rho(u) = u^2/2 where |u| <= delta and delta |u| - delta^2/2 beyond, and
    s the OLS residuals' MAD over 0.6745; OLS where s is 0, as with no more
    rows than coefficients. Solved from OLS by the finite active-set Newton
    method (Madsen & Nielsen 1990) in an orthonormal basis of the design's
    columns: a step solves the min-norm normal equations of the quadratic
    set |r| <= c = delta s, or takes the gradient's part in the directions
    they leave free, then searches the line exactly. When a step keeps the
    quadratic set and the other residuals' signs, the minimiser is reached.
    ``max_iter`` caps the steps; the coefficients are the minimum-norm ones.
    """
    n = Xs.shape[0]
    design = np.hstack([Xs, np.ones((n, 1))])
    theta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ theta
    s = np.median(np.abs(resid - np.median(resid))) / 0.6745
    if s > 1e-12 * max(1.0, float(np.abs(y).max())):
        basis, sv, vt = np.linalg.svd(design, full_matrices=False)
        basis, c, part = basis[:, :rank], delta * s, None
        beta = basis.T @ y
        for _ in range(max_iter):
            r = y - basis @ beta
            new = np.where(np.abs(r) <= c, 0.0, np.sign(r))
            if (new == part).all():
                break
            part, gram = new, basis[new == 0].T @ basis[new == 0]
            g = basis.T @ np.clip(r, -c, c)   # minus the gradient
            h, _, quad_rank, _ = np.linalg.lstsq(gram, g, rcond=None)
            free = g - gram @ h   # beyond rounding only where the quadratic set leaves directions free
            h = free if quad_rank < rank and free @ free > 1e-18 * c * c * n else h
            u = basis @ h
            cross = ((r[u != 0, None] + [-c, c]) / u[u != 0, None]).ravel()
            knots = np.sort(np.append(cross[cross > 0], 0.0))   # where residuals cross +-c
            slope = -(np.clip(r - knots[:, None] * u, -c, c) @ u)   # the loss's along h, piecewise linear
            j = int(np.argmax(slope >= 0))   # the first knot at or past the minimum
            if j > 0:
                beta += h * (knots[j - 1] + (knots[j] - knots[j - 1]) * slope[j - 1] / (slope[j - 1] - slope[j]))
        theta = vt[:rank].T @ (beta / sv[:rank])
    return LinearModel(spec, mean, scale, theta[:-1], theta[-1])
