"""The benchmark's span wrappers (perfbench/spans.py) against this package.

`spans.install` wraps named functions of the package in place; a name it
lists that the package no longer has would crash a traced benchmark run.
"""

import json
import sys
from pathlib import Path

import numpy as np

import herdweight.cli
from herdweight.dataset import HerdDataset, save_dataset_csv
from herdweight.features import FEATURE_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_install_wraps_every_listed_name_and_restores_it(tmp_path):
    rng = np.random.default_rng(0)
    n = 12
    dataset = HerdDataset(ids=[f"a{i}" for i in range(n)],
                          features=rng.normal(size=(n, len(FEATURE_NAMES))),
                          weights=rng.uniform(300.0, 600.0, n))
    save_dataset_csv(dataset, tmp_path / "herd.csv")
    config = tmp_path / "cfg.json"
    config.write_text('{"models": {"specs": ["ols", "knn"]}, "evaluation": {"inner_k": 3}}')

    tracer = spans.Tracer("test")
    targets = [(mod, attr) for mod, attr, _ in spans._replacements(tracer)]
    original = {t: _lookup(*t) for t in targets}
    with spans.install(tracer):
        assert all(_lookup(*t) is not original[t] for t in targets)
        assert herdweight.cli.main(["train", str(tmp_path / "herd.csv"), "--config", str(config),
                                    "--out", str(tmp_path / "model")]) == 0
    assert all(_lookup(*t) is original[t] for t in targets)
    names = {name for _, name, *_ in tracer.spans}
    assert {"cli.train", "stacking.oof", "stacking.rank", "stacking.fit_stack",
            "stacking.combiner", "dataset.load"} <= names
    # inner_k * S out-of-fold fits, then a refit of each member the combiner uses
    members = json.loads((tmp_path / "model" / "model.json").read_text())["models"]
    assert tracer.counts["stacking.fits_total"] == 3 * 2 + len(members)


def _lookup(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(owner, cls))[meth]
    return getattr(owner, attr)


def test_cv_path_fires_the_nested_pass_spans(tmp_path):
    rng = np.random.default_rng(1)
    n, k, inner_k, specs = 15, 3, 3, ["ols", "knn"]
    dataset = HerdDataset(ids=[f"a{i}" for i in range(n)],
                          features=rng.normal(size=(n, len(FEATURE_NAMES))),
                          weights=rng.uniform(300.0, 600.0, n))
    save_dataset_csv(dataset, tmp_path / "herd.csv")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"models": {"specs": specs},
                                  "evaluation": {"k": k, "inner_k": inner_k}}))

    tracer = spans.Tracer("test")
    with spans.install(tracer):
        assert herdweight.cli.main(["cv", str(tmp_path / "herd.csv"), "--sweep", "1..2", "--audit",
                                    "--config", str(config), "--out", str(tmp_path / "cv")]) == 0
    names = {name for _, name, *_ in tracer.spans}
    assert {"cli.cv", "stacking.oof", "stacking.rank", "stacking.combiner"} <= names
    # per outer fold: inner_k * S out-of-fold fits, then S fits on the outer training rows
    assert tracer.counts["stacking.fits_total"] == k * (inner_k * len(specs) + len(specs))
