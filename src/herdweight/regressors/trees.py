"""CART trees and the ensembles built on them.

Variance-reduction CART: the best split minimises the summed child
squared error over the candidate features. Thresholds are midpoints
between consecutive distinct sorted values or, for extra trees, one
uniform draw between a candidate's node minimum and maximum. Exact ties
go to the lowest feature index, then the lowest threshold.

Each family fits a batch: one model per row set of X, byte for byte the
model a fit on those rows alone builds. Trees grow one depth level at a
time, every tree of the batch in the same pass (boosting: every fit's
tree of one round): the pre-sorted, level-wise split search of XGBoost
(Chen & Guestrin, KDD 2016). X is ranked once per batch. Each level
orders every open node's rows by rank per candidate feature, takes the
child sums from cumulative sums that restart at zero in the node, and
partitions the rows stably between the children. Node means keep
``np.add.reduce``'s pairwise order and a ``TreeTable``'s dicts are depth
first, so a saved tree is, to the last bit, the one a node-at-a-time,
depth-first grower builds.

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

from .base import TABLE, FittedModel, ModelSpec, as_numbers

_CHUNK = 1 << 18   # cells per chunk of nodes or of rows: bounds the working memory


class TreeTable:
    """The flat node arrays of one or more trees; feature == -1 marks a leaf.

    ``roots`` holds each tree's root; ``left`` and ``right`` index the
    whole table, in any node order. ``to_dicts`` numbers each tree's nodes
    as a depth-first grower allocates them.
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

    def _depth_first(self) -> TreeTable:
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
        """One dict per tree, nodes depth first, child indices local to it."""
        t = self._depth_first()
        ends = t.roots[1:].tolist() + [t.value.size]
        return [{"feature": t.feature[lo:hi].tolist(),
                 "threshold": t.threshold[lo:hi].tolist(),
                 "left": np.where(t.left[lo:hi] >= 0, t.left[lo:hi] - lo, -1).tolist(),
                 "right": np.where(t.right[lo:hi] >= 0, t.right[lo:hi] - lo, -1).tolist(),
                 "value": t.value[lo:hi].tolist()}
                for lo, hi in zip(t.roots.tolist(), ends)]

    def select(self, groups) -> list[TreeTable]:
        """One table per group of tree indices, holding those trees in that
        order, each stored contiguously and depth first."""
        t = self._depth_first()
        ends = np.append(t.roots[1:], t.value.size)
        out = []
        for which in groups:
            lo = t.roots[which]
            size = ends[which] - lo
            base = np.cumsum(size) - size
            shift = np.repeat(base - lo, size)   # a node's new index less its old
            old = np.arange(shift.size) - shift
            left, right = (np.where(a[old] >= 0, a[old] + shift, -1) for a in (t.left, t.right))
            out.append(TreeTable(t.feature[old], t.threshold[old], left, right, t.value[old], base))
        return out

    @classmethod
    def from_dicts(cls, dicts) -> TreeTable:
        """The trees of ``to_dicts`` dicts. A dict that does not hold one tree
        is a ValueError: it could send ``predict`` round a loop or out of the
        table. So node lists are of one length, features and children
        integers, thresholds and values finite; a leaf's feature and
        children are -1, a split's children later nodes, and every node but
        the root is the child of exactly one split."""
        tables = [cls(*(as_numbers(f"tree {i} {key}", d[key], integer=key in ("feature", "left", "right"))
                        for key in ("feature", "threshold", "left", "right", "value")), [0])
                  for i, d in enumerate(dicts)]
        for t in tables:
            t._check_descent()
        return cls.stack(tables)

    def _check_descent(self) -> None:
        """Raise ValueError unless this one-tree table holds one tree."""
        arrays = (self.feature, self.threshold, self.left, self.right, self.value)
        m = self.value.size
        if m == 0 or any(a.shape != (m,) for a in arrays):
            raise ValueError("a tree needs one or more nodes and node lists of one length")
        node, split = np.arange(m), self.feature >= 0
        later = (self.left > node) & (self.left < m) & (self.right > node) & (self.right < m)
        ok = np.where(split, later, (self.feature == -1) & (self.left == -1) & (self.right == -1))
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValueError(f"tree node {bad} has children {self.left[bad]} and {self.right[bad]} and"
                             f" feature {self.feature[bad]}; a split's children must be later nodes,"
                             " a leaf's feature and children -1")
        parents = np.bincount(np.concatenate([self.left[split], self.right[split]]), minlength=m)
        if (parents[1:] != 1).any():
            bad = 1 + int(np.argmax(parents[1:] != 1))
            raise ValueError(f"tree node {bad} is the child of {parents[bad]} splits, not of one")

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


def grow_trees(cols, targets, rows, *, max_depth=None, mtry=None, random_thresholds=False, rngs=()):
    """Grow one CART tree for every t on the rows rows[t] of X (duplicates
    allowed), draw j with target targets[t][j]. Row sets may differ in
    size, so the trees of many fits on subsets of one X share each level
    pass. ``cols`` is ``rank_columns(X)``; ``rngs`` holds one generator per
    tree when trees draw. Returns the trees, nodes in level order, and the
    leaf value of every draw, trees' draws one after another.
    """
    xt, ranks = cols
    d, n_pad = ranks.shape
    n_trees, sizes = len(rows), np.array([len(r) for r in rows], dtype=np.intp)
    # Slot s is a draw of some tree, row rows[s] of X. One more slot pads
    # the ragged node rows of a level: it weighs 0, ranks last, compares
    # false with every threshold and so goes right. The columns are flat:
    # feature f of row r is entry f * n_pad + r.
    rows = np.concatenate([*rows, [n_pad - 1]]).astype(np.intp)
    pad, all_feats = np.array([rows.size - 1]), np.arange(d)[None]
    c = d if mtry is None or mtry >= d else mtry
    draws = (d if c < d else 0) + (c if random_thresholds else 0)
    bits = 1 << int(sizes.max()).bit_length()   # a sort key holds a position below this
    xt, key = xt.reshape(-1), ranks.reshape(-1) * bits
    ys, fitted = np.concatenate([*targets, [0.0]]), np.empty(rows.size)

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

    slots, tree_of = np.arange(rows.size - 1), np.arange(n_trees)
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
    return trees, fitted[:-1]


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


class TreeModel(FittedModel):
    """Trees in one TreeTable whose leaf values for a block of rows, an
    (n_trees, rows) array, ``_combine`` turns into predictions."""

    _state = {"trees": TABLE}

    def _predict_std(self, Xs):
        return self.table.predict(Xs, self._combine)


class DecisionTreeModel(TreeModel):
    kind = "decision_tree"
    _state = {"tree": TABLE}

    def _combine(self, leaves):
        return leaves[0]

    def _state_dict(self):
        return {"tree": self.table.to_dicts()[0]}

    @classmethod
    def _from_state(cls, spec, feature_mean, feature_scale, state):
        if "tree" in state:
            state = {**state, "tree": [state["tree"]]}
        return super()._from_state(spec, feature_mean, feature_scale, state)


class ForestModel(TreeModel):
    """Mean of independently grown trees (random forest / extra trees).

    Seeded row/threshold sampling keys off sample positions, so unlike
    the linear and knn families, predictions are not invariant to
    permuting the training rows.
    """

    kind = "forest"

    def _check_state(self):
        super()._check_state()
        if not self.table.roots.size:
            raise ValueError("trees is empty; a forest needs one tree or more")

    def _combine(self, leaves):
        # cumsum keeps the tree-by-tree summation order
        return np.cumsum(leaves, axis=0)[-1] / leaves.shape[0]


class AdaBoostModel(TreeModel):
    """AdaBoost.R2: weighted-median combination of resampled trees."""

    kind = "adaboost"
    _state = {"trees": TABLE, "betas": ("t",)}

    def _check_state(self):
        super()._check_state()
        outside = (self.betas <= 0) | (self.betas >= 1)
        if outside.any():
            raise ValueError(f"betas must lie in (0, 1), got {self.betas[outside][0]}")
        if not self.betas.size:
            raise ValueError("trees is empty; adaboost needs one tree or more")

    def _combine(self, leaves):
        alpha = np.log(1.0 / self.betas)
        order = np.argsort(leaves, axis=0, kind="stable")
        cdf = np.cumsum(alpha[order], axis=0)
        first = np.argmax(cdf >= 0.5 * alpha.sum(), axis=0)
        cols = np.arange(leaves.shape[1])
        return leaves[order[first, cols], cols]


class GradientBoostingModel(TreeModel):
    """Squared-loss boosting: mean target plus shrunken residual trees."""

    kind = "gradient_boosting"
    _state = {"init": (), "learning_rate": (), "trees": TABLE}

    def _combine(self, leaves):
        # cumsum keeps the round-by-round summation order
        return np.cumsum(np.vstack([np.full((1, leaves.shape[1]), self.init),
                                    self.learning_rate * leaves]), axis=0)[-1]


def fit_decision_trees(spec: ModelSpec, X, y, row_sets, mean, scale, *,
                       max_depth) -> list[DecisionTreeModel]:
    table, _ = grow_trees(rank_columns(X), [y[r] for r in row_sets], row_sets, max_depth=max_depth)
    return [DecisionTreeModel(spec, mean, scale, t)
            for t in table.select(np.arange(len(row_sets))[:, None])]


def fit_forests(spec: ModelSpec, X, y, row_sets, mean, scale, *, n_trees, max_depth,
                bootstrap: bool, random_thresholds: bool) -> list[ForestModel]:
    rngs, rows = [], []
    for r in row_sets:
        fit_rngs = [np.random.default_rng([spec.seed, t]) for t in range(n_trees)]
        rows += [r[rng.integers(0, r.size, size=r.size)] if bootstrap else r for rng in fit_rngs]
        rngs += fit_rngs
    table, _ = grow_trees(rank_columns(X), [y[r] for r in rows], rows, max_depth=max_depth,
                          mtry=max(1, int(np.sqrt(X.shape[1]))),
                          random_thresholds=random_thresholds, rngs=rngs)
    groups = np.arange(len(rows)).reshape(len(row_sets), n_trees)
    return [ForestModel(spec, mean, scale, t) for t in table.select(groups)]


def fit_adaboosts(spec: ModelSpec, X, y, row_sets, mean, scale, *, n_rounds,
                  max_depth) -> list[AdaBoostModel]:
    cols = rank_columns(X)
    rngs = [np.random.default_rng(spec.seed) for _ in row_sets]
    weights = [np.full(r.size, 1.0 / r.size) for r in row_sets]
    kept, betas = [[] for _ in row_sets], [[] for _ in row_sets]   # per fit: its trees among all grown
    tables, running = [], range(len(row_sets))
    while running and len(tables) < n_rounds:
        draws = [row_sets[i][rngs[i].choice(row_sets[i].size, size=row_sets[i].size, replace=True,
                                            p=weights[i])] for i in running]
        table, _ = grow_trees(cols, [y[r] for r in draws], draws, max_depth=max_depth)
        first, leaves, still = sum(t.roots.size for t in tables), table.predict(X), []
        tables.append(table)
        for j, i in enumerate(running):
            r = row_sets[i]
            err = np.abs(leaves[j, r] - y[r])
            emax = float(err.max())
            if emax <= 0.0:   # a perfect round dominates the median; nothing left to reweight
                kept[i].append(first + j)
                betas[i].append(1e-12)
                continue
            loss = err / emax
            avg_loss = float(weights[i] @ loss)
            if avg_loss < 0.5 or not kept[i]:   # a bad round stops the fit, kept only as its first
                kept[i].append(first + j)
                betas[i].append(avg_loss / (1.0 - avg_loss) if avg_loss < 0.5 else 0.5)
            if avg_loss < 0.5:
                weights[i] = weights[i] * betas[i][-1] ** (1.0 - loss)
                weights[i] = weights[i] / weights[i].sum()
                still.append(i)
        running = still
    return [AdaBoostModel(spec, mean, scale, t, b)
            for t, b in zip(TreeTable.stack(tables).select(kept), betas)]


def fit_gradient_boostings(spec: ModelSpec, X, y, row_sets, mean, scale, *, n_rounds, max_depth,
                           learning_rate) -> list[GradientBoostingModel]:
    cols, sizes = rank_columns(X), [r.size for r in row_sets]
    inits = [float(y[r].mean()) for r in row_sets]
    target, current = np.concatenate([y[r] for r in row_sets]), np.repeat(inits, sizes)
    tables = []
    for _ in range(n_rounds):
        # a tree's leaf values on its training rows are its predictions
        table, fitted = grow_trees(cols, np.split(target - current, np.cumsum(sizes)[:-1]),
                                   row_sets, max_depth=max_depth)
        current = current + learning_rate * fitted
        tables.append(table)
    groups = np.arange(n_rounds * len(sizes)).reshape(n_rounds, len(sizes)).T
    return [GradientBoostingModel(spec, mean, scale, init, learning_rate, t)
            for init, t in zip(inits, TreeTable.stack(tables).select(groups))]
