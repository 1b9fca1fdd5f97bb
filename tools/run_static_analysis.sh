#!/usr/bin/env bash
# Drives the full static-analysis & hygiene gauntlet (docs/ARCHITECTURE.md
# "Static analysis & invariant enforcement"):
#
#   1. fcm_lint         repo-invariant linter, tree must be clean
#   2. fcm_lint --self-test   every rule still fires on its fixtures
#   3. thread-safety    clang -Wthread-safety probes + whole-tree analysis
#                       (skipped loudly when no clang++ is on PATH)
#   4. warn-clean       full tree configured with -DFCM_WERROR=ON: -Wall
#                       -Wextra promoted to errors, plus
#                       -Werror=thread-safety under clang; suite must pass
#   5. sanitizers       one build + full ctest run per FCM_SANITIZE value
#                       (undefined runs with -fno-sanitize-recover, so any
#                       UB aborts the offending test)
#
# Each stage fails loudly and independently; the script stops at the first
# failure so the log ends at the culprit. Build trees are kept under
# build-sa-* so re-runs are incremental.
#
# Env knobs:
#   FCM_SA_SANITIZERS   space-separated subset of "undefined address
#                       thread" (default: all three)
#   FCM_SA_JOBS         parallel build jobs (default: nproc)
# Usage: tools/run_static_analysis.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${FCM_SA_JOBS:-$(nproc)}"
SANITIZERS="${FCM_SA_SANITIZERS:-undefined address thread}"

stage() { echo; echo "==== [$1] $2 ===="; }

fail() {
  echo "run_static_analysis: FAILED at stage [$1] — $2" >&2
  exit 1
}

stage lint "fcm_lint over src/"
python3 "$REPO_ROOT/tools/fcm_lint.py" "$REPO_ROOT" \
  || fail lint "repo-invariant violations above"

stage lint-selftest "fcm_lint fixtures still fire"
python3 "$REPO_ROOT/tools/fcm_lint.py" --self-test \
  || fail lint-selftest "a lint rule or suppression regressed"

stage thread-safety "clang -Wthread-safety annotation check"
rc=0
bash "$REPO_ROOT/tools/check_thread_safety.sh" "$REPO_ROOT" || rc=$?
if [[ "$rc" -ne 0 && "$rc" -ne 77 ]]; then
  fail thread-safety "annotation analysis failed (rc=$rc)"
fi
# Exit 77 means no clang++: the annotations were not verified, and the
# summary must not read as if they were.
THREAD_SAFETY="thread-safety: OK"
if [[ "$rc" -eq 77 ]]; then
  THREAD_SAFETY="thread-safety: SKIPPED (no clang++)"
fi

stage warn-clean "full build + suite under -DFCM_WERROR=ON"
WARN_DIR="$REPO_ROOT/build-sa-werror"
cmake -B "$WARN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DFCM_WERROR=ON >/dev/null \
  || fail warn-clean "configure failed"
cmake --build "$WARN_DIR" -j "$JOBS" \
  || fail warn-clean "-Wall -Wextra is not warning-clean (see errors above)"
(cd "$WARN_DIR" && ctest --output-on-failure) \
  || fail warn-clean "suite failed under the -Werror build"

for san in $SANITIZERS; do
  stage "san-$san" "full suite under FCM_SANITIZE=$san"
  SAN_DIR="$REPO_ROOT/build-sa-$san"
  cmake -B "$SAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFCM_SANITIZE="$san" >/dev/null \
    || fail "san-$san" "configure failed"
  cmake --build "$SAN_DIR" -j "$JOBS" \
    || fail "san-$san" "build failed"
  (cd "$SAN_DIR" && ctest --output-on-failure) \
    || fail "san-$san" "sanitizer findings above"
done

echo
echo "run_static_analysis: OK — lint clean, warning-clean under -Werror," \
     "suite green under: $SANITIZERS; $THREAD_SAFETY"
