#!/usr/bin/env python3
"""Steadiness tool: runs workloads repeatedly and reports each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

The spread is (Q3 - Q1) / median over one set of runs, one seed per run,
with the quartiles from statistics.quantiles(values, n=4). With --sets 2
the same seeds run twice and the second set's median is compared with the
first's in the metric's worse direction.

  python3 perfbench/steady.py --workloads hybrid-async --seeds 5
  python3 perfbench/steady.py --seeds 10 --sets 2 --out runs.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    record = None
    for line in lines:
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": round(time.time() - t0, 2), "result": result,
            "record": record}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def report(runs, bench):
    ok = True
    sets = sorted({r.get("set", 0) for r in runs})
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        bad = [r for r in mine if r["result"] is None or
               not r["result"]["correct"]]
        walls = [r["wall_s"] for r in mine]
        print(f"\n== {workload}: {len(mine)} runs, {len(bad)} failed, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        ok &= not bad
        print(f"{'metric':<24}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            medians = []
            for s in sets:
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in mine if r.get("set", 0) == s and
                        r["result"] is not None]
                if len(vals) < 2:
                    continue
                q1, med, q3, sp = spread(vals)
                medians.append(med)
                if sp <= m["bound"] / 3:
                    verdict = "steady (< bound/3)"
                elif sp <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict, ok = "TOO NOISY", False
                print(f"{m['name']:<24}{s:>4}{med:>12.5g}{q1:>12.5g}"
                      f"{q3:>12.5g}{sp:>9.3f}{m['bound']:>7.3g}  {verdict}")
            if len(medians) >= 2:
                first, last = medians[0], medians[-1]
                worse = ((last - first) / first if m["better"] == "lower"
                         else (first - last) / first) if first else 0.0
                verdict = "ok" if worse <= m["bound"] else "MEDIAN SHIFT"
                ok &= worse <= m["bound"]
                print(f"{'':<24}{'':>4}  second vs first median: "
                      f"{worse:+.3f} worse (bound {m['bound']})  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per set, seeds 1..N")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="save every run's result here")
    args = parser.parse_args()
    bench = load_benchmark()

    names = (args.workloads.split(",") if args.workloads else
             [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    runs = []
    for s in range(args.sets):
        for name in names:
            for seed in range(1, args.seeds + 1):
                run = run_once(name, seed, seconds)
                run["set"] = s
                runs.append(run)
                rec = run["record"] or {}
                machine = rec.get("machine", {})
                print(f"set {s} {name} seed {seed}: exit {run['exit']} "
                      f"{run['wall_s']} s load "
                      f"{machine.get('loadavg_start')} steal "
                      f"{machine.get('cpu_steal_pct')}%", flush=True)
                if args.out:
                    with open(args.out, "w") as f:
                        json.dump(runs, f, indent=1)
    return 0 if report(runs, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
