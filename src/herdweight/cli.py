"""Batch command-line interface.

Subcommands: clean, features, cv, train, predict, fuse-sim, and sweep
(an alias for cv --sweep). Every run is deterministic given its inputs,
config and seed, writes the resolved config next to its outputs, and
exits 0 on success, 1 on partial/data failure, 2 on usage or config
errors.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import sys
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
from .evaluation import kfold_split, nested_cv
from .features import extract_feature_vector
from .files import open_fresh
from .fusion import simulate_trajectory
from .pointcloud import detect_format, load_point_cloud, save_point_cloud
from .stacking import (
    StackedEnsemble,
    ensemble_from_dict,
    ensemble_to_dict,
    fit_stack,
    oof_predictions,
    predict_stack,
    rank_base_models,
)

_CLOUD_SUFFIXES = (".xyz", ".txt", ".csv", ".ply")


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


def _write_json(payload: dict, path: Path) -> None:
    with open_fresh(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    config = load_config(args.config, {
        "cleaning.inlier_threshold": args.threshold,
        "cleaning.threshold_is_relative": (False if args.absolute else None),
        "cleaning.max_iterations": args.max_iterations,
        "cleaning.min_plane_fraction": args.min_plane_fraction,
        "cleaning.max_planes": args.max_planes,
        "cleaning.seed": args.seed,
    })
    files = _gather_inputs(args.input)
    if not files:
        print(f"error: no input files match {args.input!r}", file=sys.stderr)
        return 2
    out = _prepare_out(args)
    cleaned_dir = out / "cleaned"
    cleaned_dir.mkdir(exist_ok=True)

    tasks = [(str(f), config.cleaning, str(cleaned_dir)) for f in files]
    rows = []
    failures = []
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_clean_one, t) for t in tasks]
            for f, fut in zip(files, futures):
                try:
                    rows.append(fut.result())
                except (HerdWeightError, FileNotFoundError) as exc:
                    failures.append((f, exc))
    else:
        for f, t in zip(files, tasks):
            try:
                rows.append(_clean_one(t))
            except (HerdWeightError, FileNotFoundError) as exc:
                failures.append((f, exc))

    with open_fresh(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["animal_id", "points_before", "points_after", "planes_removed"])
        writer.writerows(rows)
    write_resolved_config(config, out)
    for f, exc in failures:
        print(f"error: {f}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _features_one(path_str: str) -> tuple[str, list]:
    path = Path(path_str)
    cloud = load_point_cloud(path, detect_format(path))
    return path.stem, extract_feature_vector(cloud).values.tolist()


def cmd_features(args) -> int:
    config = load_config(args.config, {})
    files = _gather_inputs(args.input)
    if not files:
        print(f"error: no input files match {args.input!r}", file=sys.stderr)
        return 2
    out = _prepare_out(args)
    try:
        weights = load_weights_csv(args.weights)
    except (HerdWeightError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ids, rows, kg = [], [], []
    failures = []
    extracted: list = [None] * len(files)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_features_one, str(f)) for f in files]
            for i, fut in enumerate(futures):
                try:
                    extracted[i] = fut.result()
                except (HerdWeightError, FileNotFoundError) as exc:
                    extracted[i] = exc
    else:
        for i, f in enumerate(files):
            try:
                extracted[i] = _features_one(str(f))
            except (HerdWeightError, FileNotFoundError) as exc:
                extracted[i] = exc
    for f, item in zip(files, extracted):
        if isinstance(item, Exception):
            failures.append((f, item))
            continue
        stem, values = item
        if stem not in weights:
            failures.append((f, MissingWeight(f"no weight row for id {stem!r}")))
            continue
        ids.append(stem)
        rows.append(values)
        kg.append(weights[stem])

    if ids:
        dataset = HerdDataset(ids=ids, features=np.vstack(rows), weights=np.asarray(kg))
        save_dataset_csv(dataset, out / "dataset.csv")
    write_resolved_config(config, out)
    for f, exc in failures:
        print(f"error: {f}: {exc}", file=sys.stderr)
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


def _write_sweep_csv(rows, path: Path) -> None:
    with open_fresh(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "r2_mean", "r2_std", "mae_mean", "mae_std", "mape_mean", "mape_std"])
        for r in rows:
            writer.writerow([r.m, *(_float_repr(v) for v in
                             (r.r2_mean, r.r2_std, r.mae_mean, r.mae_std, r.mape_mean, r.mape_std))])


def _write_ranking_csv(ranking, path: Path) -> None:
    with open_fresh(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "model", "r2", "mae_kg", "mape_pct"])
        for i, e in enumerate(ranking.entries, start=1):
            writer.writerow([i, e.name, _float_repr(e.r2), _float_repr(e.mae), _float_repr(e.mape)])


def cmd_cv(args) -> int:
    config = load_config(args.config, {
        "evaluation.k": args.k,
        "evaluation.inner_k": args.inner_k,
        "evaluation.seed": args.seed,
        "stacking.m_top": args.m_top,
        "stacking.alpha": args.alpha,
    })
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
    _write_json(report, out / "report.json")
    _write_ranking_csv(cv.ranking(), out / "ranking.csv")
    if m_values:
        _write_sweep_csv(cv.sweep(m_values, config.alpha), out / "sweep.csv")
    write_resolved_config(config, out)
    if audit is not None and not audit.ok:
        for v in audit.violations:
            print(f"leakage: {v}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, {
        "evaluation.inner_k": args.inner_k,
        "evaluation.seed": args.seed,
        "stacking.m_top": args.m_top,
        "stacking.alpha": args.alpha,
    })
    dataset = load_dataset_csv(args.dataset)
    X, y = dataset.matrices()
    out = _prepare_out(args)
    folds = kfold_split(len(y), config.inner_k, config.seed)
    oof = oof_predictions(X, y, config.specs, folds)
    ranking = rank_base_models(X, y, config.specs, folds=folds, oof=oof)
    ensemble = fit_stack(X, y, config.specs, ranking, m_top=config.m_top, folds=folds, oof=oof,
                         alpha=config.alpha)
    payload = ensemble_to_dict(ensemble)
    payload["n_features"] = X.shape[1]
    payload["tool_version"] = __version__
    _write_json(payload, out / "model.json")
    _write_ranking_csv(ranking, out / "ranking.csv")
    write_resolved_config(config, out)
    return 0


def _load_model(path: str) -> StackedEnsemble:
    """The ensemble in a model.json; any malformed content is a ParseError."""
    try:
        return ensemble_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        # ValueError covers invalid JSON and UTF-8; the rest are missing or mistyped fields.
        raise ParseError(f"{path}: not a valid model file ({type(exc).__name__}: {exc})") from None


def cmd_predict(args) -> int:
    config = load_config(args.config, {})
    ensemble = _load_model(args.model)
    ids, X = load_features_csv(args.features)
    out = _prepare_out(args)
    preds = predict_stack(ensemble, X)
    with open_fresh(out / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["animal_id", "predicted_weight_kg"])
        for animal_id, p in zip(ids, preds):
            writer.writerow([animal_id, _float_repr(p)])
    write_resolved_config(config, out)
    return 0


def cmd_fuse_sim(args) -> int:
    config = load_config(args.config, {
        "simulation.views": args.views,
        "simulation.steps": args.steps,
        "simulation.seed": args.seed,
        "fusion.beta": args.beta,
        "fusion.epsilon": args.epsilon,
    })
    out = _prepare_out(args)
    trace = simulate_trajectory(config.simulation)
    trace.write_csv(out / "trace.csv")
    write_resolved_config(config, out)
    return 0


def _add_config_out(parser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdweight",
        description="Estimate animal live weight from 3D point-cloud scans.")
    parser.add_argument("--version", action="version", version=f"herdweight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="strip planar background from scans")
    p.add_argument("input", help="directory or glob of point cloud files")
    _add_config_out(p)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--absolute", action="store_true", help="threshold in metres, not relative")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--min-plane-fraction", type=float, default=None)
    p.add_argument("--max-planes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("features", help="extract feature vectors into a dataset CSV")
    p.add_argument("input", help="directory or glob of cleaned point cloud files")
    p.add_argument("weights", help="CSV of animal_id,weight_kg")
    _add_config_out(p)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_features)

    for name, sweep_default in (("cv", None), ("sweep", "2..11")):
        p = sub.add_parser(name, help="cross-validated evaluation" if name == "cv"
                           else "cv with an ensemble-size sweep")
        p.add_argument("dataset", help="dataset CSV from the features command")
        _add_config_out(p)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--inner-k", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--m-top", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--sweep", default=sweep_default, help="ensemble sizes LO..HI")
        p.add_argument("--audit", action="store_true", help="run the leakage audit")
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=cmd_cv)

    p = sub.add_parser("train", help="fit and serialise a stacked ensemble")
    p.add_argument("dataset")
    _add_config_out(p)
    p.add_argument("--inner-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m-top", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict weights with a trained model")
    p.add_argument("model", help="model.json from the train command")
    p.add_argument("features", help="feature CSV (weight column optional)")
    _add_config_out(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fuse-sim", help="run the fusion trajectory simulator")
    _add_config_out(p)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
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
    except (HerdWeightError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
