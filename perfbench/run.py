#!/usr/bin/env python3
"""Runs one workload of the serving benchmark and prints its result.

Builds the benchmark program (perfbench/CMakeLists.txt compiles the library
sources under src/ with it) into .bench_build/perfbench, runs it, and in a
traced run reduces the span file to per-layer self times
(perfbench/spans.py). The last line of stdout is the result JSON:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:
  python3 perfbench/run.py --workload scan-closed --seed 1 --seconds 15 --trace 0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
import spans  # noqa: E402  (the span reducer beside this file)


def build():
    """Configures and builds the benchmark program; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "index", "search_engine.h")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def add_span_metrics(spans_path, record, metrics):
    """Adds the per-layer metrics the span file gives; False when a query's
    stage spans do not add up to its query span."""
    loaded = spans.load(spans_path)
    print(spans.format_table(loaded))
    check = spans.check_stage_sums(loaded)
    print(json.dumps({"stage_sum_check": check}))
    layer = spans.layer_metrics(loaded)
    for name, (value, unit) in layer.items():
        metrics[name] = {"value": value, "unit": unit}
    # Thread-time per scored pair: the score stage's wall time times the
    # engine threads that share it, over the pairs it scored.
    pairs = metrics["engine.pairs_per_query"]["value"]
    score_ms = metrics["engine.score_ms"]["value"]
    metrics["engine.score_us_per_pair"] = {
        "value": score_ms * 1e3 * record["engine_threads"] / max(pairs, 1.0),
        "unit": "us"}
    return check["violations"] == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".bench_build", "runs",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"perfbench: benchmark program exited {proc.returncode}", file=sys.stderr)
            print(proc.stdout, file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        if args.trace:
            stages_ok = add_span_metrics(os.path.join(work_dir, "spans.jsonl"),
                                         record, result["metrics"])
            result["correct"] = result["correct"] and stages_ok
    except subprocess.TimeoutExpired:
        print(f"perfbench: benchmark program exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
