"""Batch command-line interface.

Subcommands: clean, features, cv, train, predict, fuse-sim, and sweep
(an alias for cv --sweep). Every run is deterministic given its inputs,
config and seed, writes the resolved config next to its outputs, and
exits 0 on success, 1 on partial/data failure, 2 on usage or config
errors.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import astuple, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .cleaning import segment_planes
from .config import load_config, write_resolved_config
from .dataset import (
    HerdDataset,
    load_dataset_csv,
    load_features_csv,
    load_weights_csv,
    save_dataset_csv,
)
from .errors import ConfigError, HerdWeightError, MissingWeight, ParseError
from .evaluation import SweepRow, kfold_split, nested_cv
from .features import extract_feature_vector
from .files import read_json, write_csv, write_json
from .fusion import simulate_trajectory
from .pointcloud import detect_format, load_point_cloud, save_point_cloud
from .stacking import (
    StackedEnsemble,
    ensemble_from_dict,
    ensemble_to_dict,
    fit_stack,
    inner_pass,
    predict_stack,
)

_CLOUD_SUFFIXES = (".xyz", ".txt", ".csv", ".ply")

# What fails one scan alone in clean and features, or a whole run (exit 1).
_FAILURES = (HerdWeightError, OSError)


def _gather_inputs(pattern: str) -> list[Path]:
    """Regular files with a scan suffix in a directory, or matching a glob.

    A dangling symlink is kept, so that it fails alone like any bad scan.
    """
    p = Path(pattern)
    if p.is_dir():
        found = (q for q in p.iterdir() if q.suffix.lower() in _CLOUD_SUFFIXES)
    else:
        found = map(Path, glob.glob(pattern))
    return sorted(q for q in found if q.is_file() or not q.exists())


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _float_repr(x: float) -> str:
    return repr(float(x))


def _config(args):
    """The config file with every flag given on the command line applied;
    a flag that overrides a config value has that value's dotted key as
    its dest."""
    return load_config(args.config, {k: v for k, v in vars(args).items() if "." in k})


def _run_each(worker, tasks: list, jobs: int) -> list:
    """``worker(task)`` for each task, in order, in a pool of ``jobs``
    processes when jobs > 1. A task that raises HerdWeightError or
    OSError (a missing or unreadable file) gives the exception in place
    of its result."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(partial(_guarded, worker), tasks))
    return [_guarded(worker, t) for t in tasks]


def _guarded(worker, task):
    try:
        return worker(task)
    except _FAILURES as exc:
        return exc


def _report(failures) -> None:
    """One ``error:`` line per (file, exception), naming the file once."""
    for f, exc in failures:
        message = str(exc)
        if not message.startswith(f"{f}:"):
            message = f"{f}: {message}"
        print(f"error: {message}", file=sys.stderr)


def _clean_one(task: tuple) -> tuple:
    """Worker for one file: returns (id, before, after, n_planes) or raises."""
    path_str, params, out_dir_str = task
    path = Path(path_str)
    fmt = detect_format(path)
    cloud = load_point_cloud(path, fmt)
    cleaned, planes = segment_planes(cloud, params)
    out_path = Path(out_dir_str) / path.name
    save_point_cloud(cleaned, out_path, fmt)
    return path.stem, cloud.n_points, cleaned.n_points, len(planes)


def cmd_clean(args) -> int:
    config = _config(args)
    files = _gather_inputs(args.input)
    if not files:
        print(f"error: no input files match {args.input!r}", file=sys.stderr)
        return 2
    out = _prepare_out(args)
    cleaned_dir = out / "cleaned"
    cleaned_dir.mkdir(exist_ok=True)

    results = _run_each(_clean_one, [(str(f), config.cleaning, str(cleaned_dir)) for f in files],
                        args.jobs)
    rows = [r for r in results if not isinstance(r, Exception)]
    failures = [(f, r) for f, r in zip(files, results) if isinstance(r, Exception)]
    # A failed scan's output from an earlier run goes, unless it is an
    # input: --out/cleaned may be the input directory. (realpath, unlike
    # Path.resolve, does not raise on a symlink loop.)
    inputs = {os.path.realpath(f) for f in files}
    for f, _ in failures:
        stale = cleaned_dir / f.name
        if os.path.realpath(stale) not in inputs:
            stale.unlink(missing_ok=True)

    header = ["animal_id", "points_before", "points_after", "planes_removed"]
    write_csv(out / "summary.csv", header, rows)
    write_resolved_config(config, out)
    _report(failures)
    return 1 if failures else 0


def _features_one(path_str: str) -> tuple[str, list]:
    path = Path(path_str)
    cloud = load_point_cloud(path, detect_format(path))
    return path.stem, extract_feature_vector(cloud).values.tolist()


def cmd_features(args) -> int:
    config = _config(args)
    files = _gather_inputs(args.input)
    if not files:
        print(f"error: no input files match {args.input!r}", file=sys.stderr)
        return 2
    out = _prepare_out(args)
    weights = load_weights_csv(args.weights)

    first_of, rows, kg = {}, [], []   # first_of: id -> the file that gave its row
    failures = []
    for f, item in zip(files, _run_each(_features_one, [str(f) for f in files], args.jobs)):
        if isinstance(item, Exception):
            failures.append((f, item))
            continue
        stem, values = item
        if stem not in weights:
            failures.append((f, MissingWeight(f"no weight row for id {stem!r}")))
            continue
        if stem in first_of:
            failures.append((f, HerdWeightError(f"animal_id {stem!r} repeats {first_of[stem]}")))
            continue
        first_of[stem] = f
        rows.append(values)
        kg.append(weights[stem])

    if rows:
        dataset = HerdDataset(ids=list(first_of), features=np.vstack(rows), weights=np.asarray(kg))
        save_dataset_csv(dataset, out / "dataset.csv")
    else:
        (out / "dataset.csv").unlink(missing_ok=True)
    write_resolved_config(config, out)
    _report(failures)
    return 1 if failures else 0


def _parse_sweep(text: str, n_specs: int) -> list[int]:
    try:
        lo_str, hi_str = text.split("..")
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise ConfigError(f"--sweep expects LO..HI, got {text!r}") from None
    if not 1 <= lo <= hi <= n_specs:
        raise ConfigError(f"--sweep range must satisfy 1 <= LO <= HI <= {n_specs}, got {text!r}")
    return list(range(lo, hi + 1))


def _write_ranking_csv(ranking, path: Path) -> None:
    write_csv(path, ["rank", "model", "r2", "mae_kg", "mape_pct"],
              ([i, e.name, _float_repr(e.r2), _float_repr(e.mae), _float_repr(e.mape)]
               for i, e in enumerate(ranking.entries, start=1)))


def cmd_cv(args) -> int:
    config = _config(args)
    m_values = _parse_sweep(args.sweep, len(config.specs)) if args.sweep else []
    dataset = load_dataset_csv(args.dataset)
    X, y = dataset.matrices()
    out = _prepare_out(args)

    # One nested pass: the report, the ranking and the sweep all read it.
    cv = nested_cv(X, y, config.specs, k=config.k, inner_k=config.inner_k, seed=config.seed,
                   audit=args.audit, jobs=args.jobs)
    audit = cv.audit() if args.audit else None
    report = {
        "n_samples": len(dataset),
        "k": config.k,
        "inner_k": config.inner_k,
        "seed": config.seed,
        "m_top": config.m_top,
        "metrics": cv.metrics(config.m_top, config.alpha).to_json_dict(),
    }
    if audit is not None:
        report["audit"] = {"n_fits": audit.n_fits, "violations": list(audit.violations)}
    write_json(out / "report.json", report)
    _write_ranking_csv(cv.ranking(), out / "ranking.csv")
    if m_values:
        sweep = cv.sweep(m_values, config.alpha)
        write_csv(out / "sweep.csv", [f.name for f in fields(SweepRow)],
                  ([r.m, *map(_float_repr, astuple(r)[1:])] for r in sweep))
    else:
        (out / "sweep.csv").unlink(missing_ok=True)
    write_resolved_config(config, out)
    if audit is not None and not audit.ok:
        for v in audit.violations:
            print(f"leakage: {v}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    config = _config(args)
    dataset = load_dataset_csv(args.dataset)
    X, y = dataset.matrices()
    out = _prepare_out(args)
    inner = inner_pass(X, y, config.specs, kfold_split(len(y), config.inner_k, config.seed))
    ensemble = fit_stack(X, y, config.specs, inner, m_top=config.m_top, alpha=config.alpha)
    payload = ensemble_to_dict(ensemble)
    payload["n_features"] = X.shape[1]
    payload["tool_version"] = __version__
    write_json(out / "model.json", payload)
    _write_ranking_csv(inner.ranking, out / "ranking.csv")
    write_resolved_config(config, out)
    return 0


def _load_model(path: str) -> StackedEnsemble:
    """The ensemble in a model.json; any malformed content is a ParseError."""
    payload = read_json(path, "model", ParseError)
    try:
        return ensemble_from_dict(payload)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        # missing, mistyped or invalid fields
        raise ParseError(f"{path}: not a valid model file ({type(exc).__name__}: {exc})") from None


def cmd_predict(args) -> int:
    config = _config(args)
    ensemble = _load_model(args.model)
    ids, X = load_features_csv(args.features)
    out = _prepare_out(args)
    preds = predict_stack(ensemble, X)
    write_csv(out / "predictions.csv", ["animal_id", "predicted_weight_kg"],
              ([animal_id, _float_repr(p)] for animal_id, p in zip(ids, preds)))
    write_resolved_config(config, out)
    return 0


def cmd_fuse_sim(args) -> int:
    config = _config(args)
    out = _prepare_out(args)
    trace = simulate_trajectory(config.simulation)
    trace.write_csv(out / "trace.csv")
    write_resolved_config(config, out)
    return 0


def _add_config_out(parser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")


def _add_settings(parser, *settings) -> None:
    """One flag per (flag, dotted config key, type) that overrides that
    config value; --help shows the key as the flag's metavar."""
    for flag, key, kind in settings:
        parser.add_argument(flag, dest=key, metavar=key, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdweight",
        description="Estimate animal live weight from 3D point-cloud scans.")
    parser.add_argument("--version", action="version", version=f"herdweight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="strip planar background from scans")
    p.add_argument("input", help="directory or glob of point cloud files")
    _add_config_out(p)
    _add_settings(p, ("--threshold", "cleaning.inlier_threshold", float))
    p.add_argument("--absolute", dest="cleaning.threshold_is_relative", action="store_const",
                   const=False, help="threshold in metres, not relative")
    _add_settings(p, ("--max-iterations", "cleaning.max_iterations", int),
                  ("--min-plane-fraction", "cleaning.min_plane_fraction", float),
                  ("--max-planes", "cleaning.max_planes", int), ("--seed", "cleaning.seed", int))
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("features", help="extract feature vectors into a dataset CSV")
    p.add_argument("input", help="directory or glob of cleaned point cloud files")
    p.add_argument("weights", help="CSV of animal_id,weight_kg")
    _add_config_out(p)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_features)

    for name, help_text, func in (("cv", "cross-validated evaluation", cmd_cv),
                                  ("sweep", "cv with an ensemble-size sweep", cmd_cv),
                                  ("train", "fit and serialise a stacked ensemble", cmd_train)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset", help="dataset CSV from the features command")
        _add_config_out(p)
        if name != "train":
            _add_settings(p, ("--k", "evaluation.k", int))
        _add_settings(p, ("--inner-k", "evaluation.inner_k", int),
                      ("--seed", "evaluation.seed", int), ("--m-top", "stacking.m_top", int),
                      ("--alpha", "stacking.alpha", float))
        if name != "train":
            p.add_argument("--sweep", default="2..11" if name == "sweep" else None,
                           help="ensemble sizes LO..HI")
            p.add_argument("--audit", action="store_true", help="run the leakage audit")
            p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=func)

    p = sub.add_parser("predict", help="predict weights with a trained model")
    p.add_argument("model", help="model.json from the train command")
    p.add_argument("features", help="feature CSV (weight column optional)")
    _add_config_out(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fuse-sim", help="run the fusion trajectory simulator")
    _add_config_out(p)
    _add_settings(p, ("--views", "simulation.views", int), ("--steps", "simulation.steps", int),
                  ("--seed", "simulation.seed", int), ("--beta", "fusion.beta", float),
                  ("--epsilon", "fusion.epsilon", float))
    p.set_defaults(func=cmd_fuse_sim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
