"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COMMON = {"peak_rss_mb", "failed_share"}
NAMED = {
    "train": {"train_images_per_s", "train_step_ms_p50"},
    "infer": {"infer_latency_ms_p50", "infer_latency_ms_p99", "eval_images_per_s", "embed_s"},
    "dataset": {"gen_images_per_s", "load_images_per_s"},
    "baseline": {"baseline_latency_ms_p50", "baseline_latency_ms_p90"},
}


def _run(capsys, workload, trace=0):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.1",
            "--trace", str(trace), "--scale", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0
    named = report["metrics"]
    assert set(named) == (COMMON if trace else COMMON | {"setup_s"} | NAMED[workload])
    for entry in named.values():
        assert set(entry) == {"value", "unit", "samples"}
    assert named["failed_share"]["value"] == 0
    assert report["env"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_run_writes_spans(capsys):
    report, _ = _run(capsys, "train", trace=1)
    lines = (HERE.parent / report["spans_file"]).read_text().splitlines()
    assert len(lines) == report["spans"] > 0
    span = json.loads(lines[-1])
    assert {"name", "start", "end", "parent", "run"} <= set(span)
    assert report["self_time_by_span"]["batched.conv_forward"]["self_ms"] > 0


def test_wrong_prediction_counts_as_failed(capsys, monkeypatch):
    run._import_package()
    from parasnet import evaluation

    right = evaluation.CnnClassifier.predict_one
    monkeypatch.setattr(evaluation.CnnClassifier, "predict_one",
                        lambda self, image: (right(self, image) + 1) % 3)
    report, result = _run(capsys, "infer")
    assert result["correct"] is False
    assert result["failed"] >= report["sizes"]["predict_one_calls"]
    share = report["metrics"]["failed_share"]
    assert share["value"] == result["failed"] / result["attempted"] > 0
    assert share["samples"] == result["attempted"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
