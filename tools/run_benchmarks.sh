#!/usr/bin/env bash
# Builds Release, runs the throughput bench suite, and writes
# BENCH_<date>.json at the repo root — the perf trajectory consumed by
# future performance PRs (schema: docs/BENCHMARKS.md). The JSON's "simd"
# section records the active kernel dispatch target plus per-target
# GFLOP/s; set FCM_SIMD (scalar|avx2|neon|auto) to override the dispatch
# for a run. The "async" section records the serving phases — closed- and
# open-loop, each at a zero and a static coalesce window; the service runs
# with block-mode backpressure in every phase, so any dropped (rejected or cancelled)
# request is a bug and fails this script loudly. The "faults" section
# records the fault-injection phase (keyed failpoint poisoning a known
# request subset); its isolation/recovery verdicts also gate this script,
# and the whole file must parse as JSON before anything trusts it. The
# "ingest" section records serving QPS/p99 while a writer appends tables
# at a fixed cadence with background + forced compaction; its
# epoch-determinism verdict (post-append rankings bit-identical to a
# from-scratch build) gates the run. A "machine" section records what
# hardware served the numbers.
#
# The batching knobs are passed as CLI flags so a BENCH json names the
# exact command that reproduces it; override via env:
#   FCM_BENCH_ASYNC_QUEUE      request-queue capacity       (default 64)
#   FCM_BENCH_MAX_BATCH        micro-batch size cap         (default 16)
#   FCM_BENCH_MAX_DELAY_MS     static coalesce window       (default 2)
# Usage: tools/run_benchmarks.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-"$REPO_ROOT/build"}"
OUT="$REPO_ROOT/BENCH_$(date +%Y-%m-%d).json"

ASYNC_QUEUE="${FCM_BENCH_ASYNC_QUEUE:-64}"
MAX_BATCH="${FCM_BENCH_MAX_BATCH:-16}"
MAX_DELAY_MS="${FCM_BENCH_MAX_DELAY_MS:-2}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_search_throughput -j"$(nproc)"

BIN="$BUILD_DIR/bench_search_throughput"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN is missing or not executable (build failed or the" \
       "target was disabled); no benchmark JSON written" >&2
  exit 1
fi

"$BIN" --out="$OUT" --async-queue="$ASYNC_QUEUE" \
       --async-max-batch="$MAX_BATCH" --async-max-delay-ms="$MAX_DELAY_MS"

# The trajectory file is consumed programmatically by future perf PRs, so
# an output that does not parse as JSON is an error here, not a surprise
# there. (The bench assembles the report by hand; a truncated snprintf or
# a misplaced comma would otherwise slip through.)
if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$OUT"; then
  echo "error: $OUT is not parseable JSON (truncated or malformed bench" \
       "output); fix bench_search_throughput before trusting this run" >&2
  exit 1
fi
# Block-mode backpressure means no request may ever be dropped; a nonzero
# rejected/cancelled count in any async phase is a serving bug. A json
# without an async section means a stale bench binary served the run —
# also an error, not a silent pass.
if ! grep -q '"async": {' "$OUT"; then
  echo "error: $OUT has no \"async\" section (stale bench_search_throughput" \
       "binary in $BUILD_DIR?)" >&2
  exit 1
fi
# Same staleness guard for the fault-injection phase, and its correctness
# verdicts (blast-radius isolation + post-fault recovery) fail the run.
if ! grep -q '"faults": {' "$OUT"; then
  echo "error: $OUT has no \"faults\" section (stale bench binary?)" >&2
  exit 1
fi
if ! python3 -c '
import json, sys
f = json.load(open(sys.argv[1]))["faults"]
sys.exit(0 if f["isolation_ok"] and f["recovered_clean"] and f["clean"]
         else 1)' "$OUT"; then
  echo "error: fault-injection phase failed isolation or recovery (see" \
       "the \"faults\" section of $OUT)" >&2
  exit 1
fi
# Staleness guard for the snapshot phase, then its gates: save/open must
# succeed, snapshot-served rankings must be bit-identical across every
# strategy, and opening a snapshot must beat rebuilding the engine — the
# whole point of frozen columnar storage (see docs/BENCHMARKS.md).
if ! grep -q '"snapshot": {' "$OUT"; then
  echo "error: $OUT has no \"snapshot\" section (stale bench binary?)" >&2
  exit 1
fi
if ! python3 -c '
import json, sys
s = json.load(open(sys.argv[1]))["snapshot"]
ok = s["save_open_ok"] and s["identical_topk"]
ok = ok and s["open_seconds"] < s["rebuild_seconds"]
sys.exit(0 if ok else 1)' "$OUT"; then
  echo "error: snapshot phase failed (save/open error, non-identical" \
       "rankings, or open slower than rebuild; see the \"snapshot\"" \
       "section of $OUT)" >&2
  exit 1
fi
# Staleness guard for the machine section.
if ! grep -q '"machine": {' "$OUT"; then
  echo "error: $OUT has no \"machine\" section (stale bench binary?)" >&2
  exit 1
fi
# Staleness guard for the ingest section, then its gate: the
# epoch-determinism verdict (the post-append engine must rank
# bit-identically to a from-scratch build over the same tables) and a
# clean serving run (every future resolved with hits, every append and
# compaction succeeded).
if ! grep -q '"ingest": {' "$OUT"; then
  echo "error: $OUT has no \"ingest\" section (stale bench binary?)" >&2
  exit 1
fi
if ! python3 -c '
import json, sys
g = json.load(open(sys.argv[1]))["ingest"]
sys.exit(0 if g["epoch_determinism_ok"] and g["clean"] else 1)' "$OUT"; then
  echo "error: ingest phase failed the epoch-determinism verdict or" \
       "dropped work under live appends (see the \"ingest\" section of" \
       "$OUT)" >&2
  exit 1
fi
# `|| true`: under pipefail a no-match grep would otherwise kill the
# script silently; awk still prints 0 on empty input.
DROPPED=$(grep -oE '"(rejected|cancelled|failed)": [0-9]+' "$OUT" \
          | awk '{sum += $2} END {print sum + 0}' || true)
if [[ "$DROPPED" -ne 0 ]]; then
  echo "error: async serving phases dropped $DROPPED request(s) in block" \
       "mode (see the \"async\" section of $OUT)" >&2
  exit 1
fi

echo "wrote $OUT (simd dispatch: $(grep -o '"active": "[a-z0-9]*"' "$OUT" \
     | head -1 | cut -d'"' -f4))"
# The async section's legacy summary line (closed-loop delay-0 phase) is
# the first line carrying qps_speedup_vs_serial; p50/p99 head -1 are the
# same phase's.
QPS=$(grep -m1 '"qps_speedup_vs_serial"' "$OUT" \
      | grep -o '"qps": [0-9.]*' | cut -d' ' -f2)
echo "async serving (closed-loop, delay 0): $QPS qps, p50/p99 $(grep -o \
     '"p50_ms": [0-9.]*' "$OUT" | head -1 | cut -d' ' -f2)/$(grep -o \
     '"p99_ms": [0-9.]*' "$OUT" | head -1 | cut -d' ' -f2) ms, 0 dropped"
echo "faults: $(grep -o '"injected": [0-9]*' "$OUT" | cut -d' ' -f2)" \
     "injected, fault/healthy qps ratio $(grep -o \
     '"fault_qps_ratio_vs_healthy": [0-9.]*' "$OUT" | cut -d' ' -f2)," \
     "isolation+recovery clean"
echo "snapshot: open $(grep -o '"open_seconds": [0-9.]*' "$OUT" \
     | cut -d' ' -f2)s vs rebuild $(grep -o '"rebuild_seconds": [0-9.]*' \
     "$OUT" | cut -d' ' -f2)s ($(grep -o \
     '"open_speedup_vs_rebuild": [0-9.]*' "$OUT" | cut -d' ' -f2)x)," \
     "rankings identical"
echo "ingest: $(grep -o '"serving_qps": [0-9.]*' "$OUT" \
     | cut -d' ' -f2) qps under live appends, mid-stream compact pause" \
     "$(grep -o '"mid_compact_pause_ms": [0-9.]*' "$OUT" \
     | cut -d' ' -f2) ms, epoch determinism verified"
