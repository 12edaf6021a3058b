"""Benchmark for the parasnet toolkit.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
its src/ directory. BLAS is pinned to one thread before numpy loads.
Each run sets the workload up SETUP_REPEATS times (setup_s is their
median) and then repeats the workload's closed loop for --seconds.

--trace 0 prints the end-to-end metrics. --trace 1 sets up once with
tracing on, runs half of --seconds untraced and half traced, writes the
spans to perfbench/out/, and prints the per-layer metrics together with
the tracing overhead (the untraced throughput over the traced one).

The second-to-last line of output is a JSON report: environment, input
sizes, each workload's own metrics with unit and sample count, and the
failure counts. The last line is the JSON result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def _pin_blas() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_package() -> None:
    if not (SRC / "parasnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no parasnet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """Hash of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "parasnet").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _loop(workload, ops, seconds: float) -> None:
    """Repeat the workload's cycle until `seconds` have passed (at least once)."""
    started = time.perf_counter()
    while True:
        workload.cycle(ops)
        if time.perf_counter() - started >= seconds:
            return


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple:
    """Run one workload; returns (report, result) as printed."""
    import workloads
    from tracing import Tracer, layer_metrics

    from parasnet import batched, evaluation

    sizes = workloads.SIZES[scale][name]
    tracer = Tracer()
    ops = workloads.Ops(tracer)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    workload = workloads.WORKLOADS[name](seed, sizes, workdir)
    metrics = {}
    named = {}
    try:
        if trace:
            tracer.install()
            with tracer.op("setup"):
                workload.setup()
            tracer.uninstall()
            _loop(workload, ops, seconds / 2)
            untraced = workload.throughput()
            workload.reset()
            tracer.install()
            _loop(workload, ops, seconds / 2)
            tracer.uninstall()
            traced = workload.throughput()
            eval_batch = evaluation.CnnClassifier(None).batch_size
            for key, (value, unit) in layer_metrics(
                tracer, workloads.TRAIN_BATCH, eval_batch
            ).items():
                metrics[key] = {"value": value, "unit": unit}
            metrics["batched.scratch_mb"] = {
                "value": sum(a.nbytes for a in batched._scratch.values()) / 2**20,
                "unit": "MB",
            }
            metrics["batched.scratch_buffers"] = {
                "value": len(batched._scratch), "unit": "count"}
            metrics["trace.overhead_pct"] = {
                "value": (untraced / traced - 1.0) * 100.0, "unit": "%"}
        else:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                workload.setup()
                setup_s.append(time.perf_counter() - started)
            _loop(workload, ops, seconds)
            named = workload.named()
            named["setup_s"] = (workloads.median(setup_s), "s", len(setup_s))
            metrics = {
                "throughput_per_s": {"value": workload.throughput(), "unit": "1/s"},
                "latency_ms_p50": {"value": workload.latency_ms(), "unit": "ms"},
                "setup_s": {"value": named["setup_s"][0], "unit": "s"},
            }
        rss = _peak_rss_mb()
        named["peak_rss_mb"] = (rss, "MB", 1)
        named["failed_share"] = (ops.failed / max(ops.attempted, 1), "share", ops.attempted)
        if not trace:
            metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()

    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "env": environment(seed),
        "sizes": sizes,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in named.items()},
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
    }
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_file))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
        report["self_time_by_span"] = tracer.self_time_table()
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer", "dataset", "baseline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny only checks that the workload runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _pin_blas()
    _import_package()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.scale)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
