"""Re-measure the ROADMAP Baseline figures with the benchmark's tracer.

    python3 perfbench/reconcile.py

Run from the root of a checkout (about two minutes, one core, ~1.2 GB at
peak). It measures, with spans installed exactly as in a traced benchmark
run and the package's default configuration:

- `segment_planes` on a 160k-point `stall_scene` (time, tracemalloc peak);
- one default extra_trees fit on 64 rows of the A4 herd (100 animals,
  2000 points each, seed 2024);
- `train` on that herd, the size of the `model.json` it writes, and
  `predict_stack` latency for 1 and for 100 rows (median of 5 calls).

It prints one JSON object; perfbench/NOTES.md compares it with the
Baseline. This script is not part of the timed benchmark.
"""

from __future__ import annotations

import os

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import herdweight as hw  # noqa: E402
import spans  # noqa: E402
from herdweight import cli  # noqa: E402
from herdweight.dataset import HerdDataset  # noqa: E402
from herdweight.synthetic import make_herd, stall_scene  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_work" / f"reconcile-{os.getpid()}"
    work.mkdir(parents=True)
    out: dict = {}
    try:
        cloud, _ = stall_scene(seed=0, n_floor=60_000, n_wall=30_000, n_blob=40_000)
        tracer = spans.Tracer("reconcile-ransac")
        with spans.install(tracer):
            hw.segment_planes(cloud, hw.RansacParams())
        layer = tracer.layer_metrics(0.0, 0)
        out["ransac_points"] = cloud.n_points
        out["ransac_segment_s"] = layer["cleaning.segment_s"]
        out["ransac_peak_gb"] = layer["cleaning.peak_mb"] / 1024

        ids, clouds, weights = make_herd(n_animals=100, points_per_animal=2000, seed=2024)
        X = np.vstack([hw.extract_feature_vector(c).values for c in clouds])
        tracer = spans.Tracer("reconcile-fit")
        with spans.install(tracer):
            hw.fit(hw.ModelSpec("extra_trees", "extra_trees"), X[:64], weights[:64])
        out["extra_trees_fit_64_rows_s"] = tracer.layer_metrics(0.0, 0)["regressors.fit_s.extra_trees"]

        hw.save_dataset_csv(HerdDataset(ids=ids, features=X, weights=weights), work / "dataset.csv")
        start = time.perf_counter()
        code = cli.main(["train", str(work / "dataset.csv"), "--out", str(work / "model")])
        out["train_100_animals_s"] = time.perf_counter() - start
        out["train_exit_code"] = code
        model_json = work / "model" / "model.json"
        out["model_json_mb"] = model_json.stat().st_size / 1e6
        payload = json.loads(model_json.read_text(encoding="utf-8"))
        ensemble = hw.stacking.ensemble_from_dict(payload)
        out["model_trees"] = sum(len(m.get("state", {}).get("trees", [])) for m in payload["models"])
        for rows in (1, 100):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                hw.predict_stack(ensemble, X[:rows])
                times.append(time.perf_counter() - start)
            out[f"predict_{rows}_rows_ms"] = 1000 * statistics.median(times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
