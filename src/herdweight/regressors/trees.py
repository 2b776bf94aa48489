"""CART trees and the ensembles built on them.

The shared grower is variance-reduction CART: the best split minimises
the summed child squared error over all candidate features, thresholds
are midpoints between consecutive distinct sorted values, and exact ties
resolve to the lowest feature index, then the lowest threshold. Forests
draw per-tree PCG64 streams from (seed, tree index) so tree fits can be
scheduled in any order without changing the result.
"""

from __future__ import annotations

import numpy as np

from .base import FittedModel, ModelSpec


class Tree:
    """Flat-array binary regression tree; feature == -1 marks a leaf."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            nid = node[active]
            go_left = X[active, self.feature[nid]] <= self.threshold[nid]
            node[active] = np.where(go_left, self.left[nid], self.right[nid])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(), "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"])


def _best_midpoint_split(X, y, idx, feats):
    """Best (feature, threshold) by child-SSE, or None if nothing splits."""
    n = idx.size
    xf = X.take(idx, axis=0).take(feats, axis=1)  # (n, f)
    order = np.argsort(xf, axis=0, kind="stable")
    xs = np.take_along_axis(xf, order, axis=0)
    ys = y[idx][order]
    cy = np.cumsum(ys, axis=0)
    cy2 = np.cumsum(ys * ys, axis=0)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    sl, sl2 = cy[:-1], cy2[:-1]
    sr, sr2 = cy[-1] - sl, cy2[-1] - sl2
    nr = n - nl
    sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
    sse = np.where(xs[1:] > xs[:-1], sse, np.inf)
    flat = sse.T.reshape(-1)  # feature-major: argmin ties -> lowest feature, lowest threshold
    j = int(np.argmin(flat))
    if not np.isfinite(flat[j]):
        return None
    f_i, pos = divmod(j, n - 1)
    return int(feats[f_i]), 0.5 * (xs[pos, f_i] + xs[pos + 1, f_i])


def _best_random_split(X, y, idx, feats, rng):
    """Extra-trees split: one uniform threshold per candidate feature.

    Thresholds for all constant-free candidates come from a single
    vectorised uniform draw in ascending feature order, which pins the
    rng stream.
    """
    yn = y[idx]
    n = yn.size
    xf = X.take(idx, axis=0).take(feats, axis=1)  # (n, f)
    lo = xf.min(axis=0)
    hi = xf.max(axis=0)
    usable = hi > lo
    if not usable.any():
        return None
    thr = rng.uniform(lo[usable], hi[usable])
    mask = xf[:, usable] <= thr  # (n, fv)
    nl = np.add.reduce(mask, axis=0).astype(np.float64)
    sl = yn @ mask
    sl2 = (yn * yn) @ mask
    tot = np.add.reduce(yn)
    tot2 = yn @ yn
    nr = n - nl
    with np.errstate(invalid="ignore", divide="ignore"):
        sse = (sl2 - sl * sl / nl) + ((tot2 - sl2) - (tot - sl) ** 2 / nr)
    sse = np.where((nl == 0) | (nr == 0), np.inf, sse)
    j = int(np.argmin(sse))  # ties -> lowest candidate feature
    if not np.isfinite(sse[j]):
        return None
    return int(feats[usable][j]), float(thr[j])


def grow_tree(X, y, sample_idx, *, max_depth=None, mtry=None, random_thresholds=False, rng=None) -> Tree:
    """Grow one CART tree on X[sample_idx] (duplicates allowed).

    Nodes are expanded depth-first, left child first, which pins the
    order of rng draws for feature subsets and random thresholds.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    d = X.shape[1]
    depth_cap = np.inf if max_depth is None else max_depth
    root = alloc()
    stack = [(root, np.asarray(sample_idx, dtype=np.intp), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        yn = y[idx]
        value[nid] = float(np.add.reduce(yn) / idx.size)
        if depth >= depth_cap or idx.size < 2 or yn.min() == yn.max():
            continue
        if mtry is None or mtry >= d:
            feats = np.arange(d)
        else:
            feats = np.sort(rng.choice(d, size=mtry, replace=False))
        if random_thresholds:
            split = _best_random_split(X, y, idx, feats, rng)
        else:
            split = _best_midpoint_split(X, y, idx, feats)
        if split is None:
            continue
        f, thr = split
        mask = X[idx, f] <= thr
        lid, rid = alloc(), alloc()
        feature[nid], threshold[nid] = f, thr
        left[nid], right[nid] = lid, rid
        stack.append((rid, idx[~mask], depth + 1))
        stack.append((lid, idx[mask], depth + 1))
    return Tree(feature, threshold, left, right, value)


class DecisionTreeModel(FittedModel):
    kind = "decision_tree"

    def __init__(self, spec, feature_mean, feature_scale, tree: Tree):
        super().__init__(spec, feature_mean, feature_scale)
        self.tree = tree

    def _predict_std(self, Xs):
        return self.tree.predict(Xs)

    def _state_dict(self):
        return {"tree": self.tree.to_dict()}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, Tree.from_dict(state["tree"]))


class ForestModel(FittedModel):
    """Mean of independently grown trees (random forest / extra trees).

    Seeded row/threshold sampling keys off sample positions, so unlike
    the linear and knn families, predictions are not invariant to
    permuting the training rows.
    """

    kind = "forest"

    def __init__(self, spec, feature_mean, feature_scale, trees: list[Tree]):
        super().__init__(spec, feature_mean, feature_scale)
        self.trees = trees

    def _predict_std(self, Xs):
        acc = np.zeros(Xs.shape[0])
        for tree in self.trees:
            acc += tree.predict(Xs)
        return acc / len(self.trees)

    def _state_dict(self):
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, [Tree.from_dict(t) for t in state["trees"]])


class AdaBoostModel(FittedModel):
    """AdaBoost.R2: weighted-median combination of resampled trees."""

    kind = "adaboost"

    def __init__(self, spec, feature_mean, feature_scale, trees: list[Tree], betas: np.ndarray):
        super().__init__(spec, feature_mean, feature_scale)
        self.trees = trees
        self.betas = np.asarray(betas, dtype=np.float64)

    def _predict_std(self, Xs):
        preds = np.stack([t.predict(Xs) for t in self.trees])  # (T, m)
        alpha = np.log(1.0 / self.betas)
        half = 0.5 * alpha.sum()
        out = np.empty(Xs.shape[0])
        for i in range(Xs.shape[0]):
            order = np.argsort(preds[:, i], kind="stable")
            cdf = np.cumsum(alpha[order])
            out[i] = preds[order[int(np.argmax(cdf >= half))], i]
        return out

    def _state_dict(self):
        return {"trees": [t.to_dict() for t in self.trees], "betas": self.betas.tolist()}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, [Tree.from_dict(t) for t in state["trees"]],
                   state["betas"])


class GradientBoostingModel(FittedModel):
    """Squared-loss boosting: mean target plus shrunken residual trees."""

    kind = "gradient_boosting"

    def __init__(self, spec, feature_mean, feature_scale, init: float, learning_rate: float, trees: list[Tree]):
        super().__init__(spec, feature_mean, feature_scale)
        self.init = float(init)
        self.learning_rate = float(learning_rate)
        self.trees = trees

    def _predict_std(self, Xs):
        out = np.full(Xs.shape[0], self.init)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(Xs)
        return out

    def _state_dict(self):
        return {"init": self.init, "learning_rate": self.learning_rate,
                "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, state["init"], state["learning_rate"],
                   [Tree.from_dict(t) for t in state["trees"]])


def fit_decision_tree(spec: ModelSpec, Xs, y, mean, scale, *, max_depth) -> DecisionTreeModel:
    tree = grow_tree(Xs, y, np.arange(len(y)), max_depth=max_depth)
    return DecisionTreeModel(spec, mean, scale, tree)


def fit_forest(spec: ModelSpec, Xs, y, mean, scale, *, n_trees, max_depth,
               bootstrap: bool, random_thresholds: bool) -> ForestModel:
    n, d = Xs.shape
    mtry = max(1, int(np.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([spec.seed, t])
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(grow_tree(Xs, y, idx, max_depth=max_depth, mtry=mtry,
                               random_thresholds=random_thresholds, rng=rng))
    return ForestModel(spec, mean, scale, trees)


def fit_adaboost(spec: ModelSpec, Xs, y, mean, scale, *, n_rounds, max_depth) -> AdaBoostModel:
    n = len(y)
    rng = np.random.default_rng(spec.seed)
    weights = np.full(n, 1.0 / n)
    trees: list[Tree] = []
    betas: list[float] = []
    for _ in range(n_rounds):
        idx = rng.choice(n, size=n, replace=True, p=weights)
        tree = grow_tree(Xs, y, idx, max_depth=max_depth)
        err = np.abs(tree.predict(Xs) - y)
        emax = float(err.max())
        if emax <= 0.0:
            # Perfect round dominates the median; nothing left to reweight.
            trees.append(tree)
            betas.append(1e-12)
            break
        loss = err / emax
        avg_loss = float(weights @ loss)
        if avg_loss >= 0.5:
            if not trees:
                trees.append(tree)
                betas.append(0.5)
            break
        beta = avg_loss / (1.0 - avg_loss)
        trees.append(tree)
        betas.append(beta)
        weights = weights * beta ** (1.0 - loss)
        weights = weights / weights.sum()
    return AdaBoostModel(spec, mean, scale, trees, np.array(betas))


def fit_gradient_boosting(spec: ModelSpec, Xs, y, mean, scale, *, n_rounds,
                          max_depth, learning_rate) -> GradientBoostingModel:
    init = float(y.mean())
    current = np.full(len(y), init)
    trees: list[Tree] = []
    all_rows = np.arange(len(y))
    for _ in range(n_rounds):
        resid = y - current
        tree = grow_tree(Xs, resid, all_rows, max_depth=max_depth)
        current = current + learning_rate * tree.predict(Xs)
        trees.append(tree)
    return GradientBoostingModel(spec, mean, scale, init, learning_rate, trees)
