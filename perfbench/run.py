#!/usr/bin/env python3
"""Benchmark harness for sentigraph: one workload per run, or every workload.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from the repository root. With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics, and the line before it records the tracing
overhead. ``--workload all`` runs every workload in its own process, traced
and untraced, and prints every metric by name and unit. ``--smoke`` runs
the same code at toy sizes. See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads: the steadiest choice on a
# shared machine, and recorded in every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRACED_SHARE = 0.8  # of a traced run: alternating rounds; the rest goes to the probes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train_full, train_desk, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and one repeat per phase")
    return parser.parse_args(argv)


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' elsewhere."""
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


def _environment(args) -> dict:
    import platform

    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"commit": _git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def _metric_block(names_units: list[tuple[str, str]], values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def run_one(args) -> int:
    import resource

    import layers
    import pipeline
    from workloads import WORKLOADS, smoke_variant, write_workload_files

    spec = _benchmark_spec()
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_variant(workload)
    with open(BENCH_DIR / "fingerprints.json", encoding="utf-8") as f:
        fingerprints = json.load(f)
    kind = "smoke" if args.smoke else ("desk" if workload.corpus == "desk" else "full")

    seconds = 0.0 if args.smoke else args.seconds  # no budget: one round
    ledger = pipeline.Ledger()
    record = {"environment": _environment(args)}
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    metrics = {}
    try:
        files = write_workload_files(workload, args.seed, workdir)
        record["fingerprint"] = pipeline.check_fingerprint(kind, fingerprints, workdir, ledger)
        if args.trace == 0:
            values, _, _model = pipeline.run_pipeline(workload, files, args.seed, seconds,
                                                      workdir, ledger)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record["measurements"] = values
            metrics = _metric_block([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                                    values)
        else:
            tracer = layers.make_tracer()
            untraced, traced, model = pipeline.run_pipeline(
                workload, files, args.seed, TRACED_SHARE * seconds, workdir, ledger,
                tracer=tracer, min_predictions=0)
            probes, probe_absent = layers.probe(workload, model, files,
                                                (1 - TRACED_SHARE) * seconds)
            values = layers.per_layer_values(tracer, probes, traced)
            record["tracing_overhead_pct"] = layers.overhead(untraced, traced)
            record["untraced"], record["traced"] = untraced, traced
            record["absent"] = tracer.absent + probe_absent
            record["spans"] = tracer.summary()
            metrics = _metric_block([(m["name"], m["unit"]) for m in spec["per_layer"]],
                                    values)
    except Exception:  # reported below as a failed run, never as a result
        traceback.print_exc(file=sys.stderr)
        ledger.check("run completes", False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            WORK_DIR.rmdir()
    record["error_rate"] = ledger.failed / ledger.attempted
    record["failures"] = ledger.failures
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if metrics else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    spec = _benchmark_spec()
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            print(f"\n== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"error_rate={record['error_rate']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
            if trace:
                print(f"  tracing overhead (%): {record['tracing_overhead_pct']}")
                if record["absent"]:
                    print(f"  absent: {record['absent']}")
            status |= 0 if result["correct"] else 1
            sys.stdout.flush()
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "sentigraph" / "__init__.py").is_file() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"benchmark: no sentigraph sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
