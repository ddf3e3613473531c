#!/usr/bin/env bash
# Full CI gate in one command:
#   1. release build + complete test suite, then the same suite against
#      the scalar SIMD fallback (F3D_SIMD=OFF). Every test carries a
#      TIMEOUT property, so a wedged solve fails loudly here.
#   2. thread-scaling bench of the exec-layer kernels (writes
#      BENCH_threading.json; also re-verifies bit-identity across thread
#      counts and exits nonzero on any mismatch), then the SIMD +
#      mixed-precision three-way A/B (writes BENCH_simd.json; exits
#      nonzero when the mixed solve misses the double solve's
#      tolerance), then the SDC injection
#      campaign (writes BENCH_sdc.json; exits nonzero when exponent-flip
#      detection coverage drops below 90%, a clean run false-positives,
#      or guard overhead exceeds 10%), then the fail-slow mitigation
#      sweep (writes BENCH_failslow.json; exits nonzero when the ladder
#      recovers < 50% of a 4x straggler's tax or the detector
#      false-positives on a clean campaign), then the deadline oracle
#      campaign (writes BENCH_deadline.json; exits nonzero when the
#      degradation ladder's on-time rate drops below 95%, the stall
#      watchdog false-positives on a clean scenario or misses the stall
#      scenario, or p99 cancellation latency exceeds the documented
#      work-unit bound at 1/2/4 threads), then the self-tuning A/B (writes
#      BENCH_tune.json + build/tune_db.json; exits nonzero when the tuned
#      config is worse than the compiled defaults or the DB round-trip is
#      not bit-identical), then the scenario-fleet storm campaign (writes
#      BENCH_fleet.json; exits nonzero when the retry ladder misses a
#      non-poison scenario, poison escapes quarantine, kill-and-restart
#      loses or double-commits a scenario, clean-lane overhead exceeds
#      10%, or a re-run is not bit-identical)
#   3. docs gate: a traced quickstart run must produce a schema-valid
#      Chrome trace whose phase spans cover >=90% of the solve, every
#      committed BENCH_*.json must carry the f3d-bench-v1 envelope, the
#      tuning DB must match f3d-tunedb-v1, every registered knob (dumped
#      via tuned_solve -dump-knobs) must be documented in docs/TUNING.md
#      (with a negative control proving the cross-check can fail), and
#      the markdown must have no dead relative links
#   4. ASan+UBSan build + the resilience-, sdc-, failslow-, tune-, fleet-
#      and simd-labelled tests (fault injection, recovery, checkpoints,
#      journals and the SIMD pack loads: where memory bugs would hide
#      behind error handling)
#   5. TSan build + the threaded-labelled tests (the exec pool, colored
#      scatters, level-scheduled solves) with a 4-thread pool
#
# Usage: scripts/ci.sh [-j N]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

echo "=== release build + full test suite ==="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --preset release -j "$JOBS"

# Scalar-fallback lane: the same suite must pass with the explicit SIMD
# kernels compiled out (F3D_SIMD=OFF) — the portable configuration every
# non-x86 or older-compiler build lands on, and the "scalar-double" leg
# of the bench_simd A/B.
echo "=== scalar-fallback build (F3D_SIMD=OFF) + full test suite ==="
cmake --preset release-scalar
cmake --build --preset release-scalar -j "$JOBS"
ctest --preset release-scalar -j "$JOBS"

echo "=== thread-scaling bench (BENCH_threading.json) ==="
./build/bench/bench_threading -vertices 8000 -reps 3 -out BENCH_threading.json

echo "=== SIMD + mixed-precision A/B (BENCH_simd.json) ==="
./build/bench/bench_simd -vertices 8000 -reps 3 -solve-steps 6 -out BENCH_simd.json

echo "=== SDC injection campaign (BENCH_sdc.json) ==="
./build/bench/bench_sdc -out BENCH_sdc.json

echo "=== fail-slow mitigation sweep (BENCH_failslow.json) ==="
./build/bench/bench_failslow -out BENCH_failslow.json

echo "=== deadline oracle campaign (BENCH_deadline.json) ==="
./build/bench/bench_deadline -out BENCH_deadline.json

echo "=== self-tuning A/B (BENCH_tune.json + build/tune_db.json) ==="
./build/bench/bench_tune -small 2500 -medium 6000 -width 8 -rungs 2 \
  -db build/tune_db.json -out BENCH_tune.json

echo "=== scenario-fleet storm campaign (BENCH_fleet.json) ==="
./build/bench/bench_fleet -out BENCH_fleet.json

echo "=== docs gate: trace schema + bench envelopes + markdown links ==="
F3D_TRACE=1 F3D_TRACE_OUT=build/ci_trace.json ./build/examples/quickstart
./build/examples/tuned_solve -dump-knobs > build/knobs.json
python3 scripts/check_docs.py --trace build/ci_trace.json --min-coverage 0.9 \
  --tunedb build/tune_db.json --knobs build/knobs.json

# Negative control for the knob-catalog cross-check: strip one knob from
# a copy of the tuning doc and demand the gate notices. A gate that
# cannot fail is not a gate.
echo "=== docs gate negative control (deliberately undocumented knob) ==="
grep -v 'ptc\.cfl0' docs/TUNING.md > build/TUNING_missing.md
if python3 scripts/check_docs.py --knobs build/knobs.json \
     --tuning-md build/TUNING_missing.md >/dev/null 2>&1; then
  echo "ERROR: check_docs.py accepted a tuning doc missing ptc.cfl0" >&2
  exit 1
fi

# Negative control for the unknown-experiment registry: a schema-valid
# BENCH artifact whose experiment has no registered validator must fail
# the docs gate rather than slide through envelope-only.
echo "=== docs gate negative control (unregistered BENCH experiment) ==="
mkdir -p build/docs_negctl
cat > build/docs_negctl/BENCH_mystery.json <<'EOF'
{"meta": {"schema": "f3d-bench-v1", "experiment": "mystery",
          "host_isa": {"isa": "none", "arch": "x86_64",
                       "double_lanes": 1, "simd_compiled": false}},
 "series": {}}
EOF
if python3 scripts/check_docs.py --repo build/docs_negctl >/dev/null 2>&1; then
  echo "ERROR: check_docs.py accepted an unregistered BENCH experiment" >&2
  exit 1
fi

echo "=== asan build + resilience/sdc/failslow/tune/fleet/simd-labelled tests ==="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"

echo "=== tsan build + threaded-labelled tests ==="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan-threaded -j "$JOBS"

echo "=== CI green ==="
