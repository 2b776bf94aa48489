"""herdweight benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload herd_model --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The run sets up the workload three times (set-up time is their
median), then runs its operations in a closed loop for --seconds, checks
the outputs, and prints every workload metric by name and unit followed by
the result line. With --trace 1 it then runs the op set once more with
spans recorded around every layer and reports the per-layer metrics.
Details (environment, digests, every sample) go to .perfbench_out/;
perfbench/NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_import() -> None:
    """Import the CLI in a fresh interpreter, as every command-line call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import herdweight.cli"], cwd=ROOT, env=env, check=True)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "blas_threads": BLAS_THREADS,
    }


def source_digest() -> str:
    """SHA-256 of the package sources, which names the code under test
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for p in sorted((SRC / "herdweight").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_checked(workload, k: int, checked: set, digests: dict):
    """Run operation k. Its first run is checked; every later run, traced
    or not, must reproduce the first run's output digest."""
    r = workload.run_op(k, check=k not in checked)
    checked.add(k)
    if digests.setdefault(k, r.digest) != r.digest:
        r.failed = max(r.failed, 1)
    return r


def measure(workload, seconds: float, checked: set, digests: dict) -> list:
    """Closed loop over the op set until `seconds` have passed."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_checked(workload, len(results) % workload.op_count(), checked, digests))
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "herdweight" / "__init__.py").is_file():
        print(f"error: no herdweight sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import herdweight

    if Path(herdweight.__file__).resolve().parent != (SRC / "herdweight").resolve():
        print(f"error: imported herdweight from {herdweight.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return run(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, out_dir: Path) -> int:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    attempted = failed = 0
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cold_import()
        a, f = wl.setup()
        setup_times.append(time.perf_counter() - start)
        attempted, failed = attempted + a, failed + f

    checked: set = set()
    digests: dict = {}
    results = measure(wl, args.seconds, checked, digests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_ms = [1000.0 * r.seconds for r in results]

    e2e = {"setup_s": (statistics.median(setup_times), "s"),
           "op_p50_ms": (statistics.median(op_ms), "ms"),
           "peak_rss_mb": (peak_rss_mb, "MB")}
    detail = dict(wl.metrics(results))
    detail.update(e2e)
    detail["ops"] = (float(len(results)), "count")

    layer = None
    traced = []
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        with spans.install(tracer):
            with tracer.span("bench.prelude"):
                a, f = wl.traced_prelude()
            attempted, failed = attempted + a, failed + f
            for k in range(wl.op_count()):
                with tracer.span("bench.op"):
                    traced.append(run_checked(wl, k, checked, digests))
        overhead = 100.0 * (statistics.median(1000.0 * r.seconds for r in traced)
                            / statistics.median(op_ms) - 1.0)
        layer = tracer.layer_metrics(overhead, wl.model_json_bytes())
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")

    attempted += sum(r.attempted for r in results + traced)
    failed += sum(r.failed for r in results + traced)
    detail["failed_share"] = (failed / attempted if attempted else 1.0, "ratio")
    correct = failed == 0
    outputs_sha256 = hashlib.sha256("\n".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "per_layer": layer,
        "outputs_sha256": outputs_sha256,
        "op_digests": digests,
        "setup_samples_s": setup_times,
        "op_samples_ms": op_ms,
        "stage_samples_s": [r.stages for r in results],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"correct={correct} attempted={attempted} failed={failed} outputs_sha256={outputs_sha256}")
    for name, (value, unit) in detail.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    if layer is not None:
        units = {n: u for n, u, _ in spans.PER_LAYER}
        for name, value in layer.items():
            print(f"{name:<40} {value:>14.6g} {units[name]}")
        metrics = {n: {"value": layer[n], "unit": units[n]} for n in units}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
