"""The benchmark workloads: set-up, one closed-loop operation, output checks.

Every operation waits for the one before it. The CLI is driven in-process
through `herdweight.cli.main`; the scoring path of `chute` calls the public
API. Functions are looked up on their modules at call time (`hw.name`,
`cli.main`), so the tracing wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generate as gen
import herdweight as hw
from herdweight import cli
from herdweight.config import load_config
from herdweight.errors import HerdWeightError
from herdweight.pointcloud import PLY_BINARY_LE

CV_MAPE_BOUND = 3.0     # the A4 acceptance bound on nested-CV MAPE, %
RETENTION_BOUND = 0.99  # the A6 bound on plane recall and animal retention


@dataclass
class OpResult:
    seconds: float
    stages: dict[str, float] = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0
    digest: str = ""
    values: dict[str, float] = field(default_factory=dict)


def run_cli(*argv) -> tuple[int, float]:
    """Exit code and wall time of one in-process CLI command. A traceback
    out of the CLI breaks its exit-code contract; it counts as exit code -1
    so that the run goes on and reports the failure."""
    start = time.perf_counter()
    try:
        code = cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def passes(check, *args) -> bool:
    """Run an output check; missing or malformed outputs fail it."""
    try:
        return bool(check(*args))
    except (OSError, ValueError, IndexError, KeyError, HerdWeightError):
        return False


def digest_dirs(root: Path, *dirs: Path) -> str:
    """SHA-256 over every file below `dirs`, keyed by its path under root."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(d.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def a6_rule(scene: gen.Scene, cleaned: np.ndarray) -> bool:
    """The A6 acceptance rule: >= 0.99 of plane points removed and of
    animal points kept, matching points by exact coordinates."""
    kept = set(map(tuple, cleaned.tolist()))
    removed = np.fromiter((tuple(p) not in kept for p in scene.points.tolist()),
                          dtype=bool, count=len(scene.points))
    recall = removed[scene.labels > 0].mean()
    retention = 1.0 - removed[scene.labels == 0].mean()
    return bool(recall >= RETENTION_BOUND and retention >= RETENTION_BOUND)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def all_finite(rows: list[list[str]]) -> bool:
    try:
        return all(math.isfinite(float(v)) for row in rows for v in row)
    except ValueError:
        return False


def cleaning_ok(scenes: list[gen.Scene], out: Path) -> bool:
    """Three planes per scene, and the A6 rule on every cleaned file."""
    rows = read_csv(out / "summary.csv")[1:]
    if len(rows) != len(scenes) or any(r[3] != "3" for r in rows):
        return False
    return all(a6_rule(s, hw.load_point_cloud(out / "cleaned" / s.path.name, s.fmt).points)
               for s in scenes)


def dataset_ok(path: Path, n_rows: int) -> bool:
    rows = read_csv(path)[1:]
    return len(rows) == n_rows and all_finite([r[1:] for r in rows])


def sweep_ok(path: Path, mape: float) -> bool:
    """Nested-CV MAPE within the A4 bound; sweep rows m = 2..11, all finite."""
    rows = read_csv(path)[1:]
    return (mape <= CV_MAPE_BOUND and [r[0] for r in rows] == [str(m) for m in range(2, 12)]
            and all_finite(rows))


def run_steps(steps) -> tuple[float, dict[str, float], set[str]]:
    """Run named CLI commands in order: total seconds, seconds per step,
    and the steps that exited non-zero."""
    start = time.perf_counter()
    stages, failed = {}, set()
    for name, argv in steps:
        code, stages[name] = run_cli(*argv)
        if code != 0:
            failed.add(name)
    return time.perf_counter() - start, stages, failed


def failed_checks(checks: dict) -> set[str]:
    """Names whose (check, *args) entry does not pass."""
    return {name for name, (fn, *args) in checks.items() if not passes(fn, *args)}


class Workload:
    """One workload. `setup` writes the inputs (idempotent); `run_op(i)`
    runs operation i of the op set, with output checks when `check`."""

    name = ""
    config: Path | None = None

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> tuple[int, int]:
        """Write inputs; return (attempted, failed) program calls."""
        raise NotImplementedError

    def op_count(self) -> int:
        return 1

    def run_op(self, i: int, check: bool) -> OpResult:
        raise NotImplementedError

    def traced_prelude(self) -> tuple[int, int]:
        """Program work done once before a traced op set; (attempted, failed)."""
        return 0, 0

    def metrics(self, results: list[OpResult]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def model_json_bytes(self) -> int:
        return 0

    def _cfg(self) -> list:
        return ["--config", self.config] if self.config else []


def _stage_medians(results: list[OpResult], names) -> dict[str, tuple[float, str]]:
    return {n: (statistics.median(r.stages[n] for r in results), "s") for n in names}


class HerdModel(Workload):
    """clean -> features -> cv --sweep 2..11 -> train -> predict on a herd."""

    name = "herd_model"
    N_ANIMALS = 60
    ANIMAL_POINTS, FLOOR_POINTS, WALL_POINTS = 400, 340, 170
    STAGES = ("clean_s", "features_s", "cv_sweep_s", "train_s", "predict_s")

    def setup(self):
        w = self.work
        self.scenes = gen.herd_scans(w / "scans", self.seed, self.N_ANIMALS, self.ANIMAL_POINTS,
                                     self.FLOOR_POINTS, self.WALL_POINTS)
        gen.write_weights(w / "weights.csv", self.scenes)
        self.config = gen.write_config(w / "config.json", self.seed)
        return 0, 0

    def run_op(self, i, check):
        w, cfg = self.work, self._cfg()
        dataset = w / "features" / "dataset.csv"
        steps = [
            ("clean_s", ("clean", w / "scans", "--out", w / "clean", "--jobs", 1, *cfg)),
            ("features_s", ("features", w / "clean" / "cleaned", w / "weights.csv",
                            "--out", w / "features", "--jobs", 1, *cfg)),
            ("cv_sweep_s", ("cv", dataset, "--out", w / "cv", "--sweep", "2..11", "--jobs", 1, *cfg)),
            ("train_s", ("train", dataset, "--out", w / "model", *cfg)),
            ("predict_s", ("predict", w / "model" / "model.json", dataset, "--out", w / "predict", *cfg)),
        ]
        seconds, stages, failed = run_steps(steps)
        try:
            report = json.loads((w / "cv" / "report.json").read_text(encoding="utf-8"))
            mape = float(report["metrics"]["mape_pct"]["mean"])
        except (OSError, ValueError, KeyError):
            mape = math.nan
        if check:
            failed |= failed_checks({
                "clean_s": (cleaning_ok, self.scenes, w / "clean"),
                "features_s": (dataset_ok, dataset, self.N_ANIMALS),
                "cv_sweep_s": (sweep_ok, w / "cv" / "sweep.csv", mape),
                "predict_s": (dataset_ok, w / "predict" / "predictions.csv", self.N_ANIMALS)})
        digest = digest_dirs(w, *(w / d for d in ("clean", "features", "cv", "model", "predict")))
        return OpResult(seconds, stages, attempted=len(steps), failed=len(failed), digest=digest,
                        values={"cv_mape_pct": mape})

    def metrics(self, results):
        out = _stage_medians(results, self.STAGES)
        out["cv_mape_pct"] = (results[0].values["cv_mape_pct"], "%")
        return out

    def model_json_bytes(self):
        path = self.work / "model" / "model.json"
        return path.stat().st_size if path.exists() else 0


class StallIngest(Workload):
    """clean -> features on large stall scenes, two per format."""

    name = "stall_ingest"
    # 5k to 40k points, geometric; scene i is written in format i % 4.
    SIZES = [round(5000 * 2 ** (3 * i / 7)) for i in range(8)]
    STAGES = ("clean_s", "features_s")

    def setup(self):
        self.scenes = gen.stall_scans(self.work / "scans", self.seed, self.SIZES)
        gen.write_weights(self.work / "weights.csv", self.scenes)
        return 0, 0

    def run_op(self, i, check):
        w = self.work
        seconds, stages, failed = run_steps([
            ("clean_s", ("clean", w / "scans", "--out", w / "clean", "--jobs", 1)),
            ("features_s", ("features", w / "clean" / "cleaned", w / "weights.csv",
                            "--out", w / "features", "--jobs", 1)),
        ])
        if check:
            failed |= failed_checks({
                "clean_s": (cleaning_ok, self.scenes, w / "clean"),
                "features_s": (dataset_ok, w / "features" / "dataset.csv", len(self.scenes))})
        return OpResult(seconds, stages, attempted=2, failed=len(failed),
                        digest=digest_dirs(w, w / "clean", w / "features"))

    def metrics(self, results):
        return _stage_medians(results, self.STAGES)


class Chute(Workload):
    """Score single binary-PLY scans with a model trained in set-up."""

    name = "chute"
    N_TRAIN, N_SCANS = 44, 120
    ANIMAL_POINTS, FLOOR_POINTS, WALL_POINTS = 1400, 1190, 595

    def setup(self):
        w = self.work
        train_seed, scan_seed = np.random.SeedSequence([self.seed, 7]).generate_state(2).tolist()
        self.config = gen.write_config(w / "config.json", self.seed)
        train = gen.herd_scans(w / "train", train_seed, self.N_TRAIN, self.ANIMAL_POINTS, 0, 0,
                               formats=(PLY_BINARY_LE,))
        gen.write_weights(w / "train_weights.csv", train)
        failed = self._train()
        self.scenes = gen.herd_scans(w / "scans", scan_seed, self.N_SCANS, self.ANIMAL_POINTS,
                                     self.FLOOR_POINTS, self.WALL_POINTS, formats=(PLY_BINARY_LE,),
                                     prefix="scan")
        self.params = load_config(self.config).cleaning
        return 2, failed

    def _train(self) -> int:
        """Train through the CLI and load the model; return failed commands."""
        w, cfg = self.work, self._cfg()
        codes = [run_cli("features", w / "train", w / "train_weights.csv", "--out", w / "train_features",
                         "--jobs", 1, *cfg)[0],
                 run_cli("train", w / "train_features" / "dataset.csv", "--out", w / "model", *cfg)[0]]
        model = json.loads((w / "model" / "model.json").read_text(encoding="utf-8"))
        self.ensemble = hw.stacking.ensemble_from_dict(model)
        return sum(c != 0 for c in codes)

    def traced_prelude(self):
        return 2, self._train()

    def op_count(self):
        return self.N_SCANS

    def run_op(self, i, check):
        scene = self.scenes[i % self.N_SCANS]
        start = time.perf_counter()
        try:
            cloud = hw.load_point_cloud(scene.path, hw.detect_format(scene.path))
            cleaned, planes = hw.segment_planes(cloud, self.params)
            features = hw.extract_feature_vector(cleaned)
            pred = float(hw.predict_stack(self.ensemble, features.values[None, :])[0])
        except Exception:
            traceback.print_exc()
            return OpResult(time.perf_counter() - start, failed=1, values={"ape_pct": math.nan})
        seconds = time.perf_counter() - start
        ok = math.isfinite(pred)
        if check:
            ok = ok and len(planes) == 3 and a6_rule(scene, cleaned.points)
        return OpResult(seconds, failed=int(not ok), digest=repr(pred),
                        values={"ape_pct": 100.0 * abs(pred - scene.weight_kg) / scene.weight_kg})

    def metrics(self, results):
        ms = [1000.0 * r.seconds for r in results]
        scored = results[: self.N_SCANS]
        return {
            "scan_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "scan_p90_ms": (float(np.percentile(ms, 90)), "ms"),
            "scan_samples": (float(len(ms)), "count"),
            "scan_mape_pct": (statistics.fmean(r.values["ape_pct"] for r in scored), "%"),
        }

    def model_json_bytes(self):
        return (self.work / "model" / "model.json").stat().st_size


class FusionSim(Workload):
    """fuse-sim at V=8 views, L=4096 locations, D=64 channels, 30 steps."""

    name = "fusion_sim"
    VIEWS, LOCATIONS, CHANNELS, STEPS = 8, 4096, 64, 30

    def setup(self):
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "simulation": {"views": self.VIEWS, "locations": self.LOCATIONS,
                           "channels": self.CHANNELS, "steps": self.STEPS, "seed": self.seed},
        }, indent=2) + "\n", encoding="utf-8")
        return 0, 0

    def run_op(self, i, check):
        out = self.work / "sim"
        code, seconds = run_cli("fuse-sim", "--out", out, *self._cfg())
        ok = code == 0 and (not check or passes(self._trace_ok, out / "trace.csv"))
        return OpResult(seconds, {"fuse_sim_s": seconds}, failed=int(not ok),
                        digest=digest_dirs(self.work, out))

    def _trace_ok(self, path: Path) -> bool:
        """One finite row per (step, view); view weights sum to 1 per step."""
        rows = read_csv(path)[1:]
        sums: dict[str, float] = {}
        for step, _, _, weight in rows:
            sums[step] = sums.get(step, 0.0) + float(weight)
        return (len(rows) == self.VIEWS * self.STEPS and all_finite(rows)
                and all(abs(s - 1.0) <= 1e-9 for s in sums.values()))

    def metrics(self, results):
        return _stage_medians(results, ("fuse_sim_s",))


WORKLOADS = {w.name: w for w in (HerdModel, StallIngest, Chute, FusionSim)}
