"""Span recording around herdweight's public functions, and the per-layer
metrics derived from the spans.

The wrappers live in the benchmark, not in the program: `install` replaces
each listed function in its defining module and at every import site
inside the `herdweight` package (plus two methods on their classes), and
restores the originals on exit. A span is (id, name, start, end, parent);
all spans of one traced run share the run id written next to them. The
self time of a span is its duration minus the time its direct child spans
cover, so nested calls are never counted twice.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FAMILIES = ("ols", "ridge", "lasso", "elastic_net", "huber", "knn", "decision_tree",
            "random_forest", "extra_trees", "adaboost", "gradient_boosting")
FORMAT_LABELS = {"xyz-ascii": "xyz", "csv": "csv", "ply-ascii": "ply_ascii",
                 "ply-binary-le": "ply_binary"}
CLI_COMMANDS = ("clean", "features", "cv", "train", "predict", "fuse-sim")

# (name, unit, better) of every per-layer metric, in report order. A metric
# whose layer a workload never calls reads 0.
PER_LAYER = (
    [(f"pointcloud.load_s.{f}", "s", "lower") for f in FORMAT_LABELS.values()]
    + [(f"pointcloud.load_mpts_per_s.{f}", "Mpt/s", "higher") for f in FORMAT_LABELS.values()]
    + [("pointcloud.save_s", "s", "lower"),
       ("cleaning.segment_s", "s", "lower"),
       ("cleaning.ransac_passes", "count", "lower"),
       ("cleaning.useful_pass_ratio", "ratio", "higher"),
       ("cleaning.peak_mb", "MB", "lower"),
       ("cleaning.peak_bytes_per_point", "B", "lower"),
       ("features.extract_s", "s", "lower"),
       ("features.hull_s", "s", "lower"),
       ("features.calls", "count", "lower"),
       ("dataset.load_s", "s", "lower"),
       ("dataset.save_s", "s", "lower")]
    + [(f"regressors.fit_s.{f}", "s", "lower") for f in FAMILIES]
    + [(f"regressors.fit_calls.{f}", "count", "lower") for f in FAMILIES]
    + [(f"regressors.predict_s.{f}", "s", "lower") for f in FAMILIES]
    + [("regressors.model_load_s", "s", "lower"),
       ("regressors.model_json_bytes", "B", "lower"),
       ("stacking.oof_s", "s", "lower"),
       ("stacking.rank_s", "s", "lower"),
       ("stacking.fit_stack_s", "s", "lower"),
       ("stacking.combiner_s", "s", "lower"),
       ("stacking.predict_s", "s", "lower"),
       ("stacking.fits_total", "count", "lower"),
       ("stacking.fits_distinct", "count", "lower"),
       ("stacking.fit_distinct_ratio", "ratio", "higher"),
       ("evaluation.cross_validate_s", "s", "lower"),
       ("evaluation.sweep_s", "s", "lower"),
       ("fusion.simulate_s", "s", "lower"),
       ("fusion.fuse_s", "s", "lower"),
       ("fusion.fuse_calls", "count", "lower"),
       ("fusion.peak_mb", "MB", "lower"),
       ("fusion.write_csv_s", "s", "lower")]
    + [(f"cli.{c}.self_s", "s", "lower") for c in CLI_COMMANDS]
    + [("config.write_resolved_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower"),
       ("trace.spans", "count", "lower")]
)

# Span names whose metric name is not simply name + "_s".
_SPAN_METRIC = {f"cli.{c}": f"cli.{c}.self_s" for c in CLI_COMMANDS}
_SPAN_METRIC.update({f"pointcloud.load.{f}": f"pointcloud.load_s.{f}" for f in FORMAT_LABELS.values()})
_SPAN_METRIC.update({f"regressors.fit.{f}": f"regressors.fit_s.{f}" for f in FAMILIES})
_SPAN_METRIC.update({f"regressors.predict.{f}": f"regressors.predict_s.{f}" for f in FAMILIES})


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [id, name, start, end, parent]
        self.counts: Counter = Counter()
        self.peaks: dict[str, tuple[float, int]] = {}   # name -> (bytes, points)
        self._stack: list[int] = []
        self._fit_keys: set = set()

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def record_fit(self, spec, X, y) -> None:
        """Count a fit, and whether this (spec, training rows) was seen before."""
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
        self._fit_keys.add((spec.name, h.digest()))
        self.counts["stacking.fits_total"] += 1
        self.counts[f"regressors.fit_calls.{spec.family}"] += 1

    def record_peak(self, name: str, peak_bytes: int, points: int) -> None:
        if peak_bytes > self.peaks.get(name, (-1, 0))[0]:
            self.peaks[name] = (peak_bytes, points)

    def self_times(self) -> dict[str, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start) - covered[sid]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def layer_metrics(self, overhead_pct: float, model_json_bytes: int) -> dict[str, float]:
        """Every PER_LAYER metric from the recorded spans and counters."""
        st = self.self_times()
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        for name, seconds in st.items():
            key = _SPAN_METRIC.get(name, name + "_s")
            if key in values:
                values[key] += seconds
        for fmt in FORMAT_LABELS.values():
            if values[f"pointcloud.load_s.{fmt}"] > 0:
                values[f"pointcloud.load_mpts_per_s.{fmt}"] = (
                    self.counts[f"points.{fmt}"] / 1e6 / values[f"pointcloud.load_s.{fmt}"])
        for key in values:
            if key in self.counts:
                values[key] = float(self.counts[key])
        if self.counts["cleaning.ransac_passes"]:
            values["cleaning.useful_pass_ratio"] = (
                self.counts["cleaning.planes"] / self.counts["cleaning.ransac_passes"])
        for layer in ("cleaning", "fusion"):
            peak, points = self.peaks.get(layer, (0, 0))
            values[f"{layer}.peak_mb"] = peak / 2**20
            if layer == "cleaning" and points:
                values["cleaning.peak_bytes_per_point"] = peak / points
        values["stacking.fits_distinct"] = float(len(self._fit_keys))
        if self.counts["stacking.fits_total"]:
            values["stacking.fit_distinct_ratio"] = (
                len(self._fit_keys) / self.counts["stacking.fits_total"])
        values["regressors.model_json_bytes"] = float(model_json_bytes)
        values["trace.overhead_pct"] = overhead_pct
        values["trace.spans"] = float(len(self.spans))
        return values


def _traced_memory(tracer: Tracer, layer: str, points_of, fn, args, kwargs):
    """Call fn with tracemalloc on and keep the largest peak above the
    allocation level at entry, with the call's point count."""
    owner = not tracemalloc.is_tracing()
    if owner:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1] - base
        if owner:
            tracemalloc.stop()
        tracer.record_peak(layer, peak, points_of(*args, **kwargs))


def _wrap(tracer: Tracer, fn, name, after=None, memory=None):
    """Span around fn; `name` is a string or a function of the call's
    arguments; `after(result, *args)` updates counters; `memory` is
    (layer, points_of) to also record the tracemalloc peak."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with tracer.span(label):
            if memory is None:
                result = fn(*args, **kwargs)
            else:
                result = _traced_memory(tracer, memory[0], memory[1], fn, args, kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _n_points(cloud, *_, **__) -> int:
    points = getattr(cloud, "points", cloud)
    return int(np.asarray(points).shape[0])


def _load_label(path, fmt, *_, **__) -> str:
    return f"pointcloud.load.{FORMAT_LABELS.get(fmt, fmt)}"


def _replacements(tracer: Tracer) -> list[tuple[str, str, object]]:
    """(module, attribute, wrapper-factory) for every traced function."""
    c = tracer.counts

    def count(key):
        def after(*_, **__):
            c[key] += 1
        return after

    def loaded(result, path, fmt, *_, **__):
        c[f"points.{FORMAT_LABELS.get(fmt, fmt)}"] += result.n_points

    def segmented(result, *_, **__):
        c["cleaning.planes"] += len(result[1])

    def counted_ransac(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c["cleaning.ransac_passes"] += 1
            return fn(*args, **kwargs)
        return wrapper

    simple = {
        "herdweight.pointcloud": {"save_point_cloud": "pointcloud.save"},
        "herdweight.features": {"convex_hull": "features.hull"},
        "herdweight.dataset": {"load_dataset_csv": "dataset.load", "load_features_csv": "dataset.load",
                               "load_weights_csv": "dataset.load", "save_dataset_csv": "dataset.save"},
        "herdweight.regressors.base": {"model_from_dict": "regressors.model_load"},
        "herdweight.stacking": {"oof_predictions": "stacking.oof", "rank_base_models": "stacking.rank",
                                "fit_stack": "stacking.fit_stack", "ridge_combiner": "stacking.combiner",
                                "predict_stack": "stacking.predict"},
        "herdweight.evaluation": {"cross_validate": "evaluation.cross_validate",
                                  "ensemble_size_sweep": "evaluation.sweep"},
        "herdweight.config": {"write_resolved_config": "config.write_resolved"},
        "herdweight.cli": {f"cmd_{cmd.replace('-', '_')}": f"cli.{cmd}" for cmd in CLI_COMMANDS},
    }
    out = [(mod, attr, functools.partial(_wrap, tracer, name=label))
           for mod, table in simple.items() for attr, label in table.items()]
    out += [
        ("herdweight.pointcloud", "load_point_cloud",
         lambda fn: _wrap(tracer, fn, _load_label, after=loaded)),
        ("herdweight.cleaning", "segment_planes",
         lambda fn: _wrap(tracer, fn, "cleaning.segment", after=segmented,
                          memory=("cleaning", _n_points))),
        ("herdweight.cleaning", "fit_plane_ransac", counted_ransac),
        ("herdweight.features", "extract_feature_vector",
         lambda fn: _wrap(tracer, fn, "features.extract", after=count("features.calls"))),
        ("herdweight.regressors.base", "fit",
         lambda fn: _wrap(tracer, fn, lambda spec, *_: f"regressors.fit.{spec.family}",
                          after=lambda _, spec, X, y: tracer.record_fit(spec, X, y))),
        ("herdweight.regressors.base", "FittedModel.predict",
         lambda fn: _wrap(tracer, fn, lambda model, *_, **__: f"regressors.predict.{model.spec.family}")),
        ("herdweight.fusion", "simulate_trajectory",
         lambda fn: _wrap(tracer, fn, "fusion.simulate", memory=("fusion", lambda *_, **__: 0))),
        ("herdweight.fusion", "agreement_fuse",
         lambda fn: _wrap(tracer, fn, "fusion.fuse", after=count("fusion.fuse_calls"))),
        ("herdweight.fusion", "TrajectoryTrace.write_csv",
         lambda fn: _wrap(tracer, fn, "fusion.write_csv")),
    ]
    return out


@contextmanager
def install(tracer: Tracer):
    """Swap every traced function for its wrapper, wherever herdweight
    modules hold a reference to it; restore all of them on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr, make in _replacements(tracer):
            owner = sys.modules[mod_name]
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, make(original))
                continue
            original = getattr(owner, attr)
            wrapper = make(original)
            for name, module in list(sys.modules.items()):
                if name != "herdweight" and not name.startswith("herdweight."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
