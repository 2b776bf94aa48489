"""The level-wise CART grower against a node-at-a-time, depth-first
reference grower, the forest RNG contract, and batches of fits against
one fit per row set."""

import json

import numpy as np
import pytest

from herdweight.regressors import FAMILIES, ModelSpec, fit, fit_many, spec_to_dict, trees


# --- oracle: the depth-first grower, one node at a time ----------------------

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


def grow_tree(X, y, sample_idx, *, max_depth=None) -> dict:
    """Grow one CART tree on X[sample_idx] (duplicates allowed), expanding
    nodes depth-first, left child first; returns the model.json tree dict."""
    feature, threshold, left, right, value = [], [], [], [], []

    def alloc() -> int:
        for column, empty in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                              (value, 0.0)):
            column.append(empty)
        return len(feature) - 1

    depth_cap = np.inf if max_depth is None else max_depth
    stack = [(alloc(), np.asarray(sample_idx, dtype=np.intp), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        yn = y[idx]
        value[nid] = float(np.add.reduce(yn) / idx.size)
        if depth >= depth_cap or idx.size < 2 or yn.min() == yn.max():
            continue
        split = _best_midpoint_split(X, y, idx, np.arange(X.shape[1]))
        if split is None:
            continue
        f, thr = split
        mask = X[idx, f] <= thr
        lid, rid = alloc(), alloc()
        feature[nid], threshold[nid] = f, thr
        left[nid], right[nid] = lid, rid
        stack.append((rid, idx[~mask], depth + 1))
        stack.append((lid, idx[mask], depth + 1))
    return {"feature": feature, "threshold": threshold, "left": left, "right": right,
            "value": value}


def _traverse(tree, x):
    i = 0
    while tree["feature"][i] >= 0:
        i = tree["left"][i] if x[tree["feature"][i]] <= tree["threshold"][i] else tree["right"][i]
    return tree["value"][i]


def _oracle_state(family, X, y, seed, params):
    """The model state the depth-first fits built (identity scaling)."""
    n = len(y)
    if family == "decision_tree":
        return {"tree": grow_tree(X, y, np.arange(n), max_depth=params["max_depth"])}
    if family == "gradient_boosting":
        current = np.full(n, float(y.mean()))
        out = {"init": float(y.mean()), "learning_rate": params["learning_rate"], "trees": []}
        for _ in range(params["n_rounds"]):
            tree = grow_tree(X, y - current, np.arange(n), max_depth=params["max_depth"])
            pred = np.array([_traverse(tree, row) for row in X])
            current = current + params["learning_rate"] * pred
            out["trees"].append(tree)
        return out
    rng = np.random.default_rng(seed)
    weights = np.full(n, 1.0 / n)
    trees_, betas = [], []
    for _ in range(params["n_rounds"]):
        idx = rng.choice(n, size=n, replace=True, p=weights)
        tree = grow_tree(X, y, idx, max_depth=params["max_depth"])
        err = np.abs(np.array([_traverse(tree, row) for row in X]) - y)
        emax = float(err.max())
        if emax <= 0.0:
            trees_.append(tree)
            betas.append(1e-12)
            break
        loss = err / emax
        avg_loss = float(weights @ loss)
        if avg_loss >= 0.5:
            if not trees_:
                trees_.append(tree)
                betas.append(0.5)
            break
        beta = avg_loss / (1.0 - avg_loss)
        trees_.append(tree)
        betas.append(beta)
        weights = weights * beta ** (1.0 - loss)
        weights = weights / weights.sum()
    return {"trees": trees_, "betas": betas}


def _dataset(seed):
    """Small seeded regression sets with tied x values, constant columns,
    tied targets, and sizes on both sides of numpy's 128-number
    pairwise-summation block."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 160)) if seed % 4 else int(rng.integers(2, 30))
    d = int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    if seed % 3 == 0:
        X = np.round(X, 1)            # many tied x values
    if seed % 5 == 0:
        X[:, int(rng.integers(0, d))] = 2.5   # a constant column
    y = 400.0 + 60.0 * X[:, 0] + 20.0 * rng.normal(size=n)
    y = np.abs(np.round(y, int(rng.integers(-1, 4)))) + 1.0   # tied targets
    return X, y


DEPTHS = (1, 2, 3, 4, 6, None)


@pytest.mark.parametrize("family", ["decision_tree", "adaboost", "gradient_boosting"])
def test_fits_match_depth_first_oracle_byte_for_byte(family):
    for seed in range(60):
        X, y = _dataset(seed)
        params = {"max_depth": DEPTHS[seed % len(DEPTHS)]}
        if family == "adaboost":
            params["n_rounds"] = 4
        if family == "gradient_boosting":
            params.update(n_rounds=4, learning_rate=0.3)
        spec = ModelSpec(name=family, family=family, params=params, seed=seed)
        d = X.shape[1]
        expected = {"kind": family, "spec": spec_to_dict(spec), "feature_mean": [0.0] * d,
                    "feature_scale": [1.0] * d, "state": _oracle_state(family, X, y, seed, params)}
        assert json.dumps(fit(spec, X, y).to_dict()) == json.dumps(expected), (family, seed)


def test_node_sums_equal_numpy_reduce():
    rng = np.random.default_rng(0)
    for k, top in ((3, 300), (40, 300), (40, 8)):   # few nodes; many; all short
        sizes = rng.integers(1, top, size=k)
        sizes[:2] = [min(8, top - 1), min(128, top - 1)]
        width = -(-int(sizes.max()) // 8) * 8
        pos = np.arange(width)
        yv = np.where(pos < sizes[:, None], rng.normal(size=(k, width)) * 1e3, 0.0)
        sums = trees._node_sums(yv, sizes, pos)
        for i, s in enumerate(sizes):
            assert sums[i] == np.add.reduce(yv[i, :s]), (k, s)


def test_adaboost_weighted_median_matches_row_loop():
    # stumps whose leaves share values, so tree predictions tie often
    rng = np.random.default_rng(5)
    t, m = 9, 50
    feature = np.tile([0, -1, -1], t)
    threshold = np.tile([0.0, 0.0, 0.0], t)
    threshold[0::3] = rng.normal(size=t)
    left = np.where(feature >= 0, np.arange(3 * t) + 1, -1)
    right = np.where(feature >= 0, np.arange(3 * t) + 2, -1)
    value = rng.integers(1, 4, size=3 * t).astype(float)
    table = trees.TreeTable(feature, threshold, left, right, value, np.arange(0, 3 * t, 3))
    betas = rng.uniform(0.05, 0.9, size=t)
    betas[3] = betas[5]
    model = trees.AdaBoostModel(ModelSpec(name="a", family="adaboost"), np.zeros(1), np.ones(1),
                                table, betas)
    X = rng.normal(size=(m, 1))
    preds = table.predict(X)
    alpha = np.log(1.0 / betas)
    half = 0.5 * alpha.sum()
    expected = np.empty(m)
    for i in range(m):
        order = np.argsort(preds[:, i], kind="stable")
        cdf = np.cumsum(alpha[order])
        expected[i] = preds[order[int(np.argmax(cdf >= half))], i]
    assert (np.diff(np.sort(preds, axis=0), axis=0) == 0).any()
    np.testing.assert_array_equal(model.predict(X), expected)


# --- the forest contract ----------------------------------------------------

def _contract_tree(X, y, idx, mtry, random_thresholds, rng):
    """One forest tree grown node by node, breadth first, drawing from
    ``rng`` exactly as the trees module docstring says."""
    n_feat = X.shape[1]
    nodes = [{"idx": idx, "feature": -1, "threshold": 0.0, "kids": None}]
    level = [0]
    while level:
        is_open = []
        for i in level:
            yn = y[nodes[i]["idx"]]
            nodes[i]["value"] = float(np.add.reduce(yn) / yn.size)
            is_open.append(yn.min() < yn.max())
        level = [i for i, o in zip(level, is_open) if o]
        width = (n_feat if mtry < n_feat else 0) + (min(mtry, n_feat) if random_thresholds else 0)
        u = rng.random((len(level), width)) if level and width else None
        nxt = []
        for row, i in enumerate(level):
            nidx = nodes[i]["idx"]
            size = nidx.size
            feats = (np.sort(np.argsort(u[row, :n_feat])[:mtry]) if mtry < n_feat
                     else np.arange(n_feat))
            best = None
            for j, f in enumerate(feats):
                order = np.argsort(X[nidx, f], kind="stable")
                xs, ys = X[nidx, f][order], y[nidx][order]
                cy, cy2 = np.cumsum(ys), np.cumsum(ys * ys)
                if random_thresholds:
                    thr = xs[0] + (xs[-1] - xs[0]) * u[row, width - len(feats) + j]
                    nl = int((xs <= thr).sum())
                    cuts = [(nl - 1, thr)] if nl < size else []
                else:
                    cuts = [(p, 0.5 * (xs[p] + xs[p + 1])) for p in range(size - 1)
                            if xs[p + 1] > xs[p]]
                for p, thr in cuts:
                    sl, sl2 = cy[p], cy2[p]
                    sr, sr2 = cy[-1] - sl, cy2[-1] - sl2
                    sse = (sl2 - sl * sl / (p + 1)) + (sr2 - sr * sr / (size - p - 1))
                    if best is None or sse < best[0]:
                        best = (sse, int(f), float(thr))
            if best is None:
                continue
            mask = X[nidx, best[1]] <= best[2]
            nodes[i].update(feature=best[1], threshold=best[2], kids=(len(nodes), len(nodes) + 1))
            for part in (nidx[mask], nidx[~mask]):
                nxt.append(len(nodes))
                nodes.append({"idx": part, "feature": -1, "threshold": 0.0, "kids": None})
        level = nxt
    return _depth_first_dict(nodes)


def _depth_first_dict(nodes, max_depth=None):
    """Number nodes as the depth-first grower allocates them; nodes at
    ``max_depth`` become leaves."""
    out = {key: [] for key in ("feature", "threshold", "left", "right", "value")}

    def alloc(i):
        out["feature"].append(-1)
        out["threshold"].append(0.0)
        out["left"].append(-1)
        out["right"].append(-1)
        out["value"].append(nodes[i]["value"])
        return len(out["value"]) - 1

    stack = [(0, alloc(0), 0)]
    while stack:
        i, nid, depth = stack.pop()
        if nodes[i]["kids"] is None or (max_depth is not None and depth >= max_depth):
            continue
        lo, hi = nodes[i]["kids"]
        lid, rid = alloc(lo), alloc(hi)
        out["feature"][nid], out["threshold"][nid] = nodes[i]["feature"], nodes[i]["threshold"]
        out["left"][nid], out["right"][nid] = lid, rid
        stack.append((hi, rid, depth + 1))
        stack.append((lo, lid, depth + 1))
    return out


def _as_nodes(tree):
    return [{"value": v, "feature": f, "threshold": t, "kids": (lo, hi) if f >= 0 else None}
            for v, f, t, lo, hi in zip(tree["value"], tree["feature"], tree["threshold"],
                                       tree["left"], tree["right"])]


def _forest_trees(family, X, y, seed, **params):
    spec = ModelSpec(name=family, family=family, params=params, seed=seed)
    return fit(spec, X, y).to_dict()["state"]["trees"]


@pytest.mark.parametrize("family", ["random_forest", "extra_trees"])
def test_forest_trees_follow_the_documented_draws(family):
    for seed in range(6):
        X, y = _dataset(seed + 100)
        X = np.hstack([X, np.round(X[:, :1] * 3.0), X[:, :1] ** 2])   # d >= 3: mtry < d
        n, d = X.shape
        got = _forest_trees(family, X, y, seed, n_trees=3)
        for t, tree in enumerate(got):
            rng = np.random.default_rng([seed, t])
            idx = rng.integers(0, n, size=n) if family == "random_forest" else np.arange(n)
            want = _contract_tree(X, y, idx, max(1, int(np.sqrt(d))),
                                  family == "extra_trees", rng)
            assert json.dumps(tree) == json.dumps(want), (family, seed, t)


@pytest.mark.parametrize("family", ["random_forest", "extra_trees"])
def test_forest_prefix_and_depth_cap_are_the_same_trees(family):
    X, y = _dataset(7)
    full = _forest_trees(family, X, y, 3, n_trees=20)
    assert _forest_trees(family, X, y, 3, n_trees=7) == full[:7]
    for depth in (1, 2, 4):
        capped = _forest_trees(family, X, y, 3, n_trees=20, max_depth=depth)
        assert capped == [_depth_first_dict(_as_nodes(t), depth) for t in full], depth


def test_forest_grows_every_tree_in_one_pass_per_level(monkeypatch):
    calls = []   # nodes in each pass: unchunked, a level's nodes go through _node_sums together
    node_sums = trees._node_sums
    monkeypatch.setattr(trees, "_CHUNK", 1 << 40)

    def counted(yv, sizes, pos):
        calls.append(sizes.size)
        return node_sums(yv, sizes, pos)

    monkeypatch.setattr(trees, "_node_sums", counted)
    X, y = _dataset(9)
    forest = _forest_trees("random_forest", X, y, 1, n_trees=300)

    def depth(tree, i=0):
        if tree["feature"][i] < 0:
            return 0
        return 1 + max(depth(tree, tree["left"][i]), depth(tree, tree["right"][i]))

    assert calls[0] == 300                     # every root in the first pass
    assert len(calls) <= max(depth(t) for t in forest) + 1


@pytest.mark.parametrize("family", ["decision_tree", "random_forest", "extra_trees"])
def test_levels_split_into_chunks_grow_the_same_trees(family, monkeypatch):
    X, y = _dataset(11)
    spec = ModelSpec(name=family, family=family,
                     params={} if family == "decision_tree" else {"n_trees": 9}, seed=2)
    whole = json.dumps(fit(spec, X, y).to_dict())
    monkeypatch.setattr(trees, "_CHUNK", 1)   # one node per chunk
    assert json.dumps(fit(spec, X, y).to_dict()) == whole


@pytest.mark.parametrize("family, params", [("random_forest", {"n_trees": 100}),
                                            ("adaboost", {"n_rounds": 100, "max_depth": 6}),
                                            ("gradient_boosting", {"n_rounds": 100})])
def test_many_tree_predict_memory_is_bounded(family, params, monkeypatch):
    import tracemalloc

    X, y = _dataset(13)
    model = fit(ModelSpec(name=family, family=family, params=params, seed=4), X, y)
    rows = np.random.default_rng(0).normal(size=(10_000, X.shape[1]))
    expected = np.concatenate([model.predict(rows[lo:lo + 999]) for lo in range(0, len(rows), 999)])
    monkeypatch.setattr(trees, "_CHUNK", 1 << 14)
    tracemalloc.start()
    got = model.predict(rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    np.testing.assert_array_equal(got, expected)
    # a block of 2^14 (tree, row) pairs takes about 1.4 MB; all 10^6 pairs at once took 57 MB
    assert peak < 4e6, (model.table.roots.size, peak)


# --- batches: fit_many against one fit per row set ----------------------------

_SMALL = {"decision_tree": {"max_depth": 4}, "random_forest": {"n_trees": 7},
          "extra_trees": {"n_trees": 7}, "adaboost": {"n_rounds": 12, "max_depth": 2},
          "gradient_boosting": {"n_rounds": 9, "learning_rate": 0.3}}


def _ragged_row_sets(seed):
    """A herd with tied x values and row sets of 3 to 59 of its 60 rows. At
    seed 0, AdaBoost stops early on the 3-row set (a perfect round) and on
    the last, 4-row set (a bad round) while the others run on."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 6))
    X[:, 2] = np.round(X[:, 2], 1)
    y = 400.0 + 60.0 * X[:, 0] + 20.0 * rng.normal(size=60)
    return X, y, [np.sort(rng.choice(60, size=s, replace=False)) for s in (40, 47, 12, 3, 59)] + \
        [np.sort(np.random.default_rng(seed).choice(60, size=4, replace=False))]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_fit_many_equals_fit_on_each_row_set_byte_for_byte(family):
    X, y, row_sets = _ragged_row_sets(0)
    spec = ModelSpec(name=family, family=family, params=_SMALL.get(family, {}), seed=3)
    many = fit_many(spec, X, y, row_sets)
    assert [json.dumps(m.to_dict()) for m in many] == \
        [json.dumps(fit(spec, X[r], y[r]).to_dict()) for r in row_sets]
    if family == "adaboost":   # fits stopped early, on a perfect and on a bad round, as others ran on
        rounds = [m.betas.size for m in many]
        assert rounds[3] < rounds[0] == _SMALL["adaboost"]["n_rounds"] and many[3].betas[-1] == 1e-12
        assert rounds[5] < rounds[0] and many[5].betas[-1] != 1e-12, rounds


def test_boosting_batch_grows_every_fit_in_one_pass_per_level(monkeypatch):
    calls = []   # nodes in each pass
    node_sums = trees._node_sums
    monkeypatch.setattr(trees, "_CHUNK", 1 << 40)

    def counted(yv, sizes, pos):
        calls.append(sizes.size)
        return node_sums(yv, sizes, pos)

    monkeypatch.setattr(trees, "_node_sums", counted)
    X, y, _ = _ragged_row_sets(1)
    folds = [np.flatnonzero(np.arange(60) % 5 != f) for f in range(5)]
    n_rounds, depth = 6, 3
    spec = ModelSpec(name="gb", family="gradient_boosting",
                     params={"n_rounds": n_rounds, "max_depth": depth}, seed=0)
    fit_many(spec, X, y, folds)
    assert calls[0] == len(folds)             # every fold's root in the first pass
    assert len(calls) <= n_rounds * (depth + 1)


@pytest.mark.parametrize("family", ["ols", "decision_tree", "gradient_boosting"])
def test_fit_many_refuses_a_row_set_fit_refuses(family):
    X, y, row_sets = _ragged_row_sets(2)
    spec = ModelSpec(name=family, family=family, params=_SMALL.get(family, {}))
    with pytest.raises(ValueError, match="need at least 2 training samples"):
        fit(spec, X[[4]], y[[4]])
    with pytest.raises(ValueError, match="need at least 2 training samples"):
        fit_many(spec, X, y, [row_sets[0], np.array([4])])
    assert fit_many(spec, X, y, []) == []
