"""Hostile model files: `predict` on a mutated model.json predicts or
refuses, and never hangs or ends in a traceback.

Each example mutates one golden model file (``golden_models/``): it
resizes or retypes a value, adds or drops a key, inserts NaN, inf or a
numeric string, or points a tree's child at -1, at the node itself, at an
ancestor, at a sibling's child or out of range. ``predict`` must then exit
0 with finite predictions, or 1 with exactly one ``error:`` line, within a
time limit.
"""

import contextlib
import copy
import io
import json
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from herdweight.cli import main  # noqa: E402
from herdweight.features import FEATURE_NAMES  # noqa: E402
from herdweight.regressors import FAMILIES  # noqa: E402

GOLDEN = Path(__file__).parent / "golden_models"
ROWS = json.loads((GOLDEN / "predictions.json").read_text())["rows"]
FEATURES_CSV = ",".join(["animal_id", *FEATURE_NAMES]) + "\n" + "".join(
    ",".join([f"a{i}", *map(repr, row)]) + "\n" for i, row in enumerate(ROWS))
PAYLOADS = {family: json.loads((GOLDEN / f"{family}.json").read_text()) for family in FAMILIES}
ODD_VALUES = [float("nan"), float("inf"), float("-inf"), "0.3", "1", "nan", True, None, {}, [], 1.5, -1, 0]
SECONDS = 10


class Hang(Exception):
    """A predict call outran its time limit."""


def _hang(signum, frame):
    raise Hang(f"predict ran for more than {SECONDS} s")


def _paths(value, path=()):
    """The path of every value inside a JSON value, starting with its own."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _point_child(draw, member):
    """Point one child of one tree node elsewhere in (or out of) its tree."""
    state = member["state"]
    tree = draw(st.sampled_from([state["tree"]] if "tree" in state else state["trees"]))
    left, right, m = tree["left"], tree["right"], len(tree["feature"])
    splits = [i for i in range(m) if tree["feature"][i] >= 0] or [0]
    parent = {child: i for i in splits for child in (left[i], right[i])}
    node = draw(st.sampled_from(splits))
    ancestors, up = [], node
    while up in parent:
        up = parent[up]
        ancestors.append(up)
    nephews = []
    if node in parent:
        up = parent[node]
        sibling = right[up] if left[up] == node else left[up]
        nephews = [child for child in (left[sibling], right[sibling]) if child >= 0]
    target = draw(st.sampled_from([-1, node, m, m + 7, 10**9, left[node], right[node]]
                                  + ancestors + nephews))
    tree[draw(st.sampled_from(["left", "right"]))][node] = target


@st.composite
def mutated_models(draw):
    """A golden model.json with one of its member's values mutated."""
    payload = copy.deepcopy(PAYLOADS[draw(st.sampled_from(FAMILIES))])
    member = payload["models"][0]
    paths = list(_paths(member))
    is_tree = "tree" in member["state"] or "trees" in member["state"]
    how = draw(st.sampled_from(["retype", "resize", "add key", "drop key"] + ["child"] * is_tree))
    if how == "child":
        _point_child(draw, member)
        return payload
    if how in ("add key", "drop key"):
        dicts = [p for p in paths if isinstance(_at(member, p), dict) and (how == "add key" or _at(member, p))]
        target = _at(member, draw(st.sampled_from(dicts)))
        if how == "add key":
            target["extra"] = 1.0
        else:
            del target[draw(st.sampled_from(sorted(target)))]
        return payload
    if how == "resize":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(_at(member, p), list)]))
        old = _at(member, path)
        new = draw(st.sampled_from(["drop", "repeat", "wrap", "unwrap", "empty"]))
        value = {"drop": old[:-1], "repeat": old + old[-1:], "wrap": [old],
                 "unwrap": old[0] if old else 0.0, "empty": []}[new]
    else:
        path = draw(st.sampled_from(paths[1:]))
        value = draw(st.sampled_from(ODD_VALUES))
        if draw(st.booleans()) and path and isinstance(path[-1], int):   # the value inside a one-item list
            value = [value]
    _at(member, path[:-1])[path[-1]] = value
    return payload


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=mutated_models())
def test_predict_on_a_mutated_model_predicts_or_refuses(payload):
    with tempfile.TemporaryDirectory() as d:
        model, features, out = Path(d) / "model.json", Path(d) / "features.csv", Path(d) / "out"
        model.write_text(json.dumps(payload))
        features.write_text(FEATURES_CSV)
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.setitimer(signal.ITIMER_REAL, SECONDS)
        try:
            with contextlib.redirect_stderr(err):
                code = main(["predict", str(model), str(features), "--out", str(out)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if code == 0:
            lines = (out / "predictions.csv").read_text().splitlines()[1:]
            assert len(lines) == len(ROWS)
            assert np.isfinite([float(line.split(",")[1]) for line in lines]).all()
        else:
            assert code == 1, err.getvalue()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
