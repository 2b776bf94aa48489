"""CART trees and the ensembles built on them.

Variance-reduction CART: the best split minimises the summed child
squared error over the candidate features. Thresholds are midpoints
between consecutive distinct sorted values or, for extra trees, one
uniform draw between a candidate's node minimum and maximum. Exact ties
go to the lowest feature index, then the lowest threshold.

Trees grow one depth level at a time, every tree of an ensemble in the
same pass: the pre-sorted, level-wise split search of XGBoost (Chen &
Guestrin, KDD 2016). X is ranked once per fit. Each level orders every
open node's rows by rank per candidate feature, takes the child sums from
cumulative sums that restart at zero in the node, and partitions the rows
stably between the children. Node means keep ``np.add.reduce``'s pairwise
order and nodes are numbered in depth-first allocation order, so a tree
is, to the last bit, the one a node-at-a-time grower builds.

Forest RNG contract: tree t draws from ``default_rng([seed, t])``, first
its bootstrap (random forest only), then one ``random((k, w))`` per depth
level for the level's k open nodes, left to right. A node's first d
numbers rank the features when it samples mtry < d of them (the mtry
smallest are the candidates); for extra trees its last mtry numbers place
the candidates' thresholds, in ascending feature order. A tree's draws
depend neither on ``max_depth`` nor on the other trees.
"""

from __future__ import annotations

import numpy as np

from .base import FittedModel, ModelSpec

_CHUNK = 1 << 18   # cells per chunk of nodes or of rows: bounds the working memory


class TreeTable:
    """The flat node arrays of one or more trees; feature == -1 marks a leaf.

    ``roots`` holds each tree's root; ``left`` and ``right`` index the
    whole table. A fit stores each tree contiguously, from its root to the
    next, numbered as a depth-first grower allocates nodes.
    """

    def __init__(self, feature, threshold, left, right, value, roots):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.roots = np.asarray(roots, dtype=np.intp)

    def predict(self, X: np.ndarray, combine=lambda leaves: leaves) -> np.ndarray:
        """``combine`` of every tree's leaf values, an (n_trees, rows)
        array, for blocks of X's rows, joined along the last axis. A block
        holds at most _CHUNK (tree, row) pairs, which bounds the memory."""
        step = max(1, _CHUNK // max(1, self.roots.size))
        # at least one block, so an empty X gives an empty result; each result is
        # copied, since a combined block may be a view that keeps its leaves alive
        return np.concatenate([combine(self._leaves(X[lo:lo + step])).copy()
                               for lo in range(0, max(len(X), 1), step)], axis=-1)

    def _leaves(self, X):
        m = X.shape[0]
        node = np.repeat(self.roots, m)
        row = np.arange(node.size) % m
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            nid = node[active]
            go_left = X[row[active], self.feature[nid]] <= self.threshold[nid]
            node[active] = np.where(go_left, self.left[nid], self.right[nid])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node].reshape(self.roots.size, m)

    def depth_first(self) -> TreeTable:
        """The same trees, each stored contiguously and numbered as a
        depth-first grower (left child first) allocates nodes: the root
        is 0, and the i-th internal node in preorder allocates 2i + 1 for
        its left child and 2i + 2 for its right."""
        levels, frontier = [], self.roots
        while frontier.size:
            levels.append(frontier[self.feature[frontier] >= 0])
            frontier = np.stack([self.left[levels[-1]], self.right[levels[-1]]], axis=1).reshape(-1)
        inner = np.zeros(self.value.size, dtype=np.intp)   # internal nodes in the subtree
        for split in reversed(levels):
            inner[split] = 1 + inner[self.left[split]] + inner[self.right[split]]
        sizes = 2 * inner[self.roots] + 1
        new, base, pre = np.empty_like(inner), np.empty_like(inner), np.zeros_like(inner)
        new[self.roots] = base[self.roots] = np.cumsum(sizes) - sizes
        for split in levels:   # pre: internal nodes before the node, in preorder
            lt, rt, p, b = self.left[split], self.right[split], pre[split], base[split]
            pre[lt], pre[rt], base[lt], base[rt] = p + 1, p + 1 + inner[lt], b, b
            new[lt], new[rt] = b + 2 * p + 1, b + 2 * p + 2
        split = self.feature >= 0
        left, right = np.full_like(inner, -1), np.full_like(inner, -1)
        left[new[split]], right[new[split]] = new[self.left[split]], new[self.right[split]]
        feature, threshold, value = map(np.empty_like, (self.feature, self.threshold, self.value))
        feature[new], threshold[new], value[new] = self.feature, self.threshold, self.value
        return TreeTable(feature, threshold, left, right, value, new[self.roots])

    def to_dicts(self) -> list[dict]:
        """One dict per tree, child indices local to the tree."""
        ends = self.roots[1:].tolist() + [self.value.size]
        return [{"feature": self.feature[lo:hi].tolist(),
                 "threshold": self.threshold[lo:hi].tolist(),
                 "left": np.where(self.left[lo:hi] >= 0, self.left[lo:hi] - lo, -1).tolist(),
                 "right": np.where(self.right[lo:hi] >= 0, self.right[lo:hi] - lo, -1).tolist(),
                 "value": self.value[lo:hi].tolist()}
                for lo, hi in zip(self.roots.tolist(), ends)]

    @classmethod
    def from_dicts(cls, dicts) -> TreeTable:
        return cls.stack([cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"], [0])
                          for d in dicts])

    @classmethod
    def stack(cls, tables) -> TreeTable:
        """One table holding the trees of ``tables`` in order."""
        base = np.cumsum([0] + [t.value.size for t in tables])

        def joined(key, shift=False):
            parts = [getattr(t, key) for t in tables]
            if shift:
                parts = [np.where(p >= 0, p + b, -1) for p, b in zip(parts, base)]
            return np.concatenate(parts + [np.empty(0, dtype=np.intp)])

        return cls(joined("feature"), joined("threshold"), joined("left", True),
                   joined("right", True), joined("value"), joined("roots", True))


def rank_columns(X) -> tuple[np.ndarray, np.ndarray]:
    """X's columns and their dense ranks (equal values share one), both
    feature-major with one padding column: the one sort of X per fit."""
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    dense = np.zeros((n, d), dtype=np.intp)
    np.cumsum(xs[1:] > xs[:-1], axis=0, out=dense[1:])
    ranks = np.full((d, n + 1), n)   # the padding ranks last
    np.put_along_axis(ranks[:, :n], order.T, dense.T, axis=1)
    return np.hstack([X.T, np.full((d, 1), np.nan)]), ranks


def grow_trees(cols, y, idx, *, max_depth=None, mtry=None, random_thresholds=False, rngs=()):
    """Grow one CART tree on the rows idx[t] of X (duplicates allowed) for
    every t. ``cols`` is ``rank_columns(X)``; ``rngs`` holds one generator
    per tree when trees draw. Returns the trees, in level order until
    ``depth_first`` renumbers them, and the leaf value of every draw,
    shape idx.shape.
    """
    xt, ranks = cols
    (d, n_pad), (n_trees, m) = ranks.shape, idx.shape
    # Slot t * m + j is draw j of tree t, row rows[t * m + j] of X. One more
    # slot pads the ragged node rows of a level: it weighs 0, ranks last,
    # compares false with every threshold and so goes right. The columns
    # are flat: feature f of row r is entry f * n_pad + r.
    rows = np.append(idx.reshape(-1), n_pad - 1)
    pad, all_feats = np.array([rows.size - 1]), np.arange(d)[None]
    c = d if mtry is None or mtry >= d else mtry
    draws = (d if c < d else 0) + (c if random_thresholds else 0)
    bits = 1 << m.bit_length()   # a sort key holds a position below this
    xt, key = xt.reshape(-1), ranks.reshape(-1) * bits
    ys, fitted = np.append(y[rows[:-1]], 0.0), np.empty(rows.size)

    def split_nodes(first, slots, sizes, tree_of, may_split):
        """Consecutive nodes of one level, from its node ``first`` on, in
        arrays padded to the largest: their means, their best splits, and
        the split nodes' slots partitioned between their children."""
        pos = np.arange(-(-int(sizes.max()) // 8) * 8)
        inside = pos < sizes[:, None]
        node_slots = np.concatenate((slots, pad))[
            np.where(inside, (np.cumsum(sizes) - sizes)[:, None] + pos, -1)]
        yv = ys[node_slots]
        value = _node_sums(yv, sizes, pos) / sizes
        fitted[node_slots] = value[:, None]   # deeper levels overwrite
        spread = np.where(inside, yv, yv[:, :1])
        split = np.flatnonzero(spread.max(axis=1) > spread.min(axis=1)) if may_split else pos[:0]
        if not split.size:
            return value, split, split, value[:0], split, split
        sizes, k = sizes[split], split.size
        width = int(sizes.max())
        ns, inside = node_slots[split, :width], inside[split, :width]
        if draws:
            per_tree = np.bincount(tree_of[split], minlength=n_trees)
            u = np.concatenate([rngs[t].random((per_tree[t], draws))
                                for t in np.flatnonzero(per_tree)])
        feats = (np.sort(np.argsort(u[:, :d], axis=1)[:, :c], axis=1) if c < d
                 else all_feats.repeat(k, axis=0))
        f_off = (feats * n_pad)[:, :, None]

        # each candidate's slots in rank order, ties in slot order, from one
        # flat sort on (node and candidate, rank, position)
        order = key[f_off + rows[ns][:, None, :]] + pos[:width]
        order += (np.arange(k * c) * (n_pad * bits)).reshape(k, c, 1)
        order.reshape(-1).sort()
        s = ns.reshape(-1)[(order & (bits - 1)) + (np.arange(k) * width)[:, None, None]]
        xs, ysort = xt[f_off + rows[s]], ys[s]
        xf = xs.reshape(-1)
        cy = np.cumsum(ysort, axis=2)
        cy2 = np.cumsum(ysort * ysort, axis=2)
        if random_thresholds:   # one cut per candidate: its left rows are a prefix
            head = (np.arange(k)[:, None] * c + np.arange(c)) * width
            lo = xf[head]
            cand = lo + (xf[head + sizes[:, None] - 1] - lo) * u[:, -c:]
            nl = (xs <= cand[..., None]).sum(axis=2)
            nr = sizes[:, None] - nl
            sl, sl2 = cy.reshape(-1)[head + nl - 1], cy2.reshape(-1)[head + nl - 1]
            tot, tot2 = cy[..., -1], cy2[..., -1]
        else:                   # a cut after every row
            sl, sl2 = cy[..., :-1], cy2[..., :-1]
            tot, tot2 = cy[..., -1:], cy2[..., -1:]
            nl = np.arange(1, width, dtype=np.float64)
            nr = sizes[:, None, None] - nl
        sr, sr2 = tot - sl, tot2 - sl2
        sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / np.maximum(nr, 1))   # nr < 1: masked below
        if random_thresholds:
            sse = np.where(nr > 0, sse, np.inf)
            f_i = sse.argmin(axis=1)
            thr = cand[np.arange(k), f_i]
        else:
            sse = np.where(xs[..., 1:] > xs[..., :-1], sse, np.inf).reshape(k, -1)
            j = sse.argmin(axis=1)
            f_i = j // (width - 1)
            at = np.arange(k) * (c * width) + j + f_i
            thr = 0.5 * (xf[at] + xf[at + 1])
        ok = sse.reshape(k, -1).min(axis=1) < np.inf
        split, feature, thr = split[ok], feats[np.arange(k), f_i][ok], thr[ok]
        ns, inside, sizes, k = ns[ok], inside[ok], sizes[ok], int(ok.sum())

        # left child's slots, then the right child's; the pads go right, last
        right = ~(xt[(feature * n_pad)[:, None] + rows[ns]] <= thr[:, None])
        parted = ns.reshape(-1)[np.argsort(right, axis=1, kind="stable")
                                + (np.arange(k) * width)[:, None]]
        children = np.empty(2 * k, dtype=np.intp)
        children[0::2] = width - right.sum(axis=1)
        children[1::2] = sizes - children[0::2]
        return value, first + split, feature, thr, parted[inside], children

    slots, sizes, tree_of = np.arange(rows.size - 1), np.full(n_trees, m), np.arange(n_trees)
    levels, done = [], 0   # per level: node values, split nodes, their features and thresholds
    while sizes.size:
        may_split = max_depth is None or len(levels) < max_depth
        # nodes go in chunks whose padded arrays stay under _CHUNK cells
        per, ends = max(1, _CHUNK // (c * int(sizes.max()))), np.cumsum(sizes)
        parts = [split_nodes(lo, slots[ends[lo] - sizes[lo]:ends[min(lo + per, sizes.size) - 1]],
                             sizes[lo:lo + per], tree_of[lo:lo + per], may_split)
                 for lo in range(0, sizes.size, per)]
        value, split, feature, threshold, slots, next_sizes = map(np.concatenate, zip(*parts))
        levels.append((value, done + split, feature, threshold))
        tree_of, done, sizes = np.repeat(tree_of[split], 2), done + sizes.size, next_sizes
    # level by level, the i-th split node's children are nodes n_trees + 2i, n_trees + 2i + 1
    value, split, split_feature, split_threshold = map(np.concatenate, zip(*levels))
    feature, left, threshold = np.full(value.size, -1), np.full(value.size, -1), np.zeros(value.size)
    feature[split], threshold[split] = split_feature, split_threshold
    left[split] = np.arange(n_trees, n_trees + 2 * split.size, 2)
    trees = TreeTable(feature, threshold, left, np.where(left >= 0, left + 1, -1), value,
                      np.arange(n_trees))
    return trees, fitted[:-1].reshape(n_trees, m)


def _node_sums(yv, sizes, pos):
    """``np.add.reduce`` of each row's first sizes[i] entries, to the last
    bit. yv is zero-padded to a multiple of 8 columns. Up to 128 numbers,
    numpy sums eight interleaved lanes in sequence, adds the lane sums
    pairwise and then adds the last ``size % 8`` numbers in order; longer
    rows are summed one by one.
    """
    lane = pos < (sizes & -8)[:, None]
    r = np.where(lane, yv, 0.0).reshape(yv.shape[0], -1, 8).cumsum(axis=1)[:, -1]
    r = r[:, 0::2] + r[:, 1::2]
    r = r[:, 0::2] + r[:, 1::2]
    tail = np.where(lane, 0.0, yv)
    tail[:, 0] += r[:, 0] + r[:, 1]   # no lanes: adds 0.0 to the first number
    out = tail.cumsum(axis=1)[:, -1]
    for i in (sizes > 128).nonzero()[0]:
        out[i] = np.add.reduce(yv[i, :sizes[i]])
    return out


class DecisionTreeModel(FittedModel):
    kind = "decision_tree"

    def __init__(self, spec, feature_mean, feature_scale, table: TreeTable):
        super().__init__(spec, feature_mean, feature_scale)
        self.table = table

    def _predict_std(self, Xs):
        return self.table.predict(Xs)[0]

    def _state_dict(self):
        return {"tree": self.table.to_dicts()[0]}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, TreeTable.from_dicts([state["tree"]]))


class ForestModel(FittedModel):
    """Mean of independently grown trees (random forest / extra trees).

    Seeded row/threshold sampling keys off sample positions, so unlike
    the linear and knn families, predictions are not invariant to
    permuting the training rows.
    """

    kind = "forest"

    def __init__(self, spec, feature_mean, feature_scale, table: TreeTable):
        super().__init__(spec, feature_mean, feature_scale)
        self.table = table

    def _predict_std(self, Xs):
        # cumsum keeps the tree-by-tree summation order
        return self.table.predict(Xs, lambda p: np.cumsum(p, axis=0)[-1]) / self.table.roots.size

    def _state_dict(self):
        return {"trees": self.table.to_dicts()}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, TreeTable.from_dicts(state["trees"]))


class AdaBoostModel(FittedModel):
    """AdaBoost.R2: weighted-median combination of resampled trees."""

    kind = "adaboost"

    def __init__(self, spec, feature_mean, feature_scale, table: TreeTable, betas):
        super().__init__(spec, feature_mean, feature_scale)
        self.table = table
        self.betas = np.asarray(betas, dtype=np.float64)

    def _predict_std(self, Xs):
        return self.table.predict(Xs, self._weighted_median)

    def _weighted_median(self, preds):
        alpha = np.log(1.0 / self.betas)
        order = np.argsort(preds, axis=0, kind="stable")
        cdf = np.cumsum(alpha[order], axis=0)
        first = np.argmax(cdf >= 0.5 * alpha.sum(), axis=0)
        cols = np.arange(preds.shape[1])
        return preds[order[first, cols], cols]

    def _state_dict(self):
        return {"trees": self.table.to_dicts(), "betas": self.betas.tolist()}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, TreeTable.from_dicts(state["trees"]),
                   state["betas"])


class GradientBoostingModel(FittedModel):
    """Squared-loss boosting: mean target plus shrunken residual trees."""

    kind = "gradient_boosting"

    def __init__(self, spec, feature_mean, feature_scale, init: float, learning_rate: float,
                 table: TreeTable):
        super().__init__(spec, feature_mean, feature_scale)
        self.init = float(init)
        self.learning_rate = float(learning_rate)
        self.table = table

    def _predict_std(self, Xs):
        # cumsum keeps the round-by-round summation order
        return self.table.predict(Xs, lambda p: np.cumsum(
            np.vstack([np.full((1, p.shape[1]), self.init), self.learning_rate * p]), axis=0)[-1])

    def _state_dict(self):
        return {"init": self.init, "learning_rate": self.learning_rate,
                "trees": self.table.to_dicts()}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        return cls(spec, feature_mean, feature_scale, state["init"], state["learning_rate"],
                   TreeTable.from_dicts(state["trees"]))


def fit_decision_tree(spec: ModelSpec, Xs, y, mean, scale, *, max_depth) -> DecisionTreeModel:
    tree, _ = grow_trees(rank_columns(Xs), y, np.arange(len(y))[None], max_depth=max_depth)
    return DecisionTreeModel(spec, mean, scale, tree.depth_first())


def fit_forest(spec: ModelSpec, Xs, y, mean, scale, *, n_trees, max_depth,
               bootstrap: bool, random_thresholds: bool) -> ForestModel:
    n, d = Xs.shape
    rngs = [np.random.default_rng([spec.seed, t]) for t in range(n_trees)]
    if bootstrap:
        idx = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    else:
        idx = np.broadcast_to(np.arange(n), (n_trees, n))
    trees, _ = grow_trees(rank_columns(Xs), y, idx, max_depth=max_depth,
                          mtry=max(1, int(np.sqrt(d))), random_thresholds=random_thresholds,
                          rngs=rngs)
    return ForestModel(spec, mean, scale, trees.depth_first())


def fit_adaboost(spec: ModelSpec, Xs, y, mean, scale, *, n_rounds, max_depth) -> AdaBoostModel:
    n = len(y)
    rng = np.random.default_rng(spec.seed)
    cols = rank_columns(Xs)
    weights = np.full(n, 1.0 / n)
    trees: list[TreeTable] = []
    betas: list[float] = []
    for _ in range(n_rounds):
        idx = rng.choice(n, size=n, replace=True, p=weights)
        tree, _ = grow_trees(cols, y, idx[None], max_depth=max_depth)
        err = np.abs(tree.predict(Xs)[0] - y)
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
    return AdaBoostModel(spec, mean, scale, TreeTable.stack(trees).depth_first(), betas)


def fit_gradient_boosting(spec: ModelSpec, Xs, y, mean, scale, *, n_rounds,
                          max_depth, learning_rate) -> GradientBoostingModel:
    init = float(y.mean())
    current = np.full(len(y), init)
    cols, all_rows = rank_columns(Xs), np.arange(len(y))[None]
    trees: list[TreeTable] = []
    for _ in range(n_rounds):
        # a tree's leaf values on its training rows are its predictions
        tree, fitted = grow_trees(cols, y - current, all_rows, max_depth=max_depth)
        current = current + learning_rate * fitted[0]
        trees.append(tree)
    return GradientBoostingModel(spec, mean, scale, init, learning_rate,
                                 TreeTable.stack(trees).depth_first())
