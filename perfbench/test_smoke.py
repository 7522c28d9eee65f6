"""The harness's own test: smoke runs emit every workload and metric BENCHMARK.json names.

Run from the repository root with ``python -m pytest -q perfbench``. Each
case starts ``run.py --smoke`` in its own process (toy sizes, one round),
with the same arguments as a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args, timeout=180):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        assert record["absent"] == []
        assert set(record["tracing_overhead_pct"]) >= {"train_samples_per_s",
                                                        "predict_ms_p50"}
    env = record["environment"]
    assert env["blas_threads"] == 1 and env["seed"] == 3


def _import_path():
    for path in (str(ROOT / "src"), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def test_tracer_reports_absent_targets_and_restores_the_rest():
    _import_path()
    from sentigraph import autodiff, encoders
    from tracer import Tracer

    original = encoders.bilstm_encode
    tracer = Tracer({"encoders.bilstm_encode": None, "encoders.fused_bilstm": None,
                     "no_such_module.f": None}, ["autodiff.matmul", "autodiff.no_such_op"])
    tracer.install()
    try:
        assert encoders.bilstm_encode is not original
        with tracer.span("outer"):
            autodiff.matmul(autodiff.Tensor([[1.0, 2.0]]), autodiff.Tensor([[1.0], [1.0]]))
    finally:
        tracer.uninstall()
    assert encoders.bilstm_encode is original
    assert sorted(tracer.absent) == ["autodiff.no_such_op", "encoders.fused_bilstm",
                                     "no_such_module.f"]
    assert tracer.get("outer").ops == {"autodiff.matmul": 1}


def test_same_seed_gives_same_inputs():
    _import_path()
    from workloads import WORKLOADS as RECIPES
    from workloads import smoke_variant, write_workload_files

    texts = []
    for sub in ("a", "b"):
        out = BENCH_DIR / ".work" / f"test-{sub}"
        out.mkdir(parents=True, exist_ok=True)
        try:
            files = write_workload_files(smoke_variant(RECIPES["train_full"]), 7, str(out))
            texts.append([Path(p).read_text() for p in (files.train, files.dev, files.test)])
        finally:
            shutil.rmtree(out, ignore_errors=True)
    assert texts[0] == texts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
