#!/usr/bin/env python3
"""Self-test of the benchmark itself.

1. The span reducer's own checks (spans.py --self-test).
2. For each workload: two runs with the same seed report exactly the same
   prec_at_k, ndcg_at_k and recall_at_k, and both are correct.
3. For each workload: a run with another seed is correct too.

  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("prec_at_k", "ndcg_at_k", "recall_at_k")
WORKLOADS = ("scan-closed", "hybrid-async")
SECONDS = 3.0
SEED = 7


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    failures = []
    if subprocess.run([sys.executable, os.path.join(HERE, "spans.py"),
                       "--self-test"]).returncode != 0:
        failures.append("spans.py self-test")
    for workload in WORKLOADS:
        a = run(workload, SEED, SECONDS)
        b = run(workload, SEED, SECONDS)
        c = run(workload, SEED + 1, SECONDS)
        for label, r in (("first", a), ("repeat", b), ("second seed", c)):
            if r is None or not r["correct"]:
                failures.append(f"{workload}: {label} run failed")
        if a is None or b is None:
            continue
        for name in DETERMINISTIC:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            status = "ok" if va == vb else "DIFFERS"
            print(f"{workload:<14} {name:<12} {va!r:<22} {vb!r:<22} {status}")
            if va != vb:
                failures.append(f"{workload}: {name} {va} != {vb}")
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
