#!/usr/bin/env bash
# Full CI gate in one command:
#   1. release build + complete test suite, then the same suite against
#      the scalar SIMD fallback (F3D_SIMD=OFF). Both presets build with
#      -Werror (F3D_WERROR=ON). Every test carries a TIMEOUT property, so
#      a wedged solve fails loudly here. Between the two, a seeded fault
#      storm's output must name no source location (file.cpp:line): a
#      recovery log, and the checkpoint that embeds it, must not depend
#      on where the tree was built or on line numbers in the sources
#   2. the gated benches, in order: thread scaling, SIMD + mixed-precision
#      A/B, SDC injection campaign, fail-slow mitigation sweep, deadline
#      oracle campaign, self-tuning A/B (also writes build/tune_db.json),
#      scenario-fleet storm campaign. Each writes its BENCH_*.json with
#      its gates in series.gates, prints its gate table, and exits
#      nonzero when a required gate fails.
#   3. repository benchmark self-test (perfbench/run.py --self-test): the
#      unshuffled compwing-6k and incomp2-20k solves must reproduce their
#      reference step / linear-iteration / residual-evaluation counts, and
#      the traced run's layer ledger must account for the solve
#   4. docs gate: a traced quickstart run must produce a schema-valid
#      Chrome trace whose phase spans cover >=90% of the solve, every
#      committed BENCH_*.json must carry the f3d-bench-v1 envelope and
#      pass its recomputed series.gates, the tuning DB must match
#      f3d-tunedb-v1, every registered knob (dumped via tuned_solve
#      -dump-knobs) must have a row in docs/TUNING.md's knob tables and
#      every row must name a registered knob, and the markdown must
#      have no dead relative links; negative controls prove both
#      directions of the knob cross-check and the gate checker can fail
#   5. ASan+UBSan build (-Werror, as are the TSan build and both release
#      builds) + the resilience-, sdc-, failslow-, tune-, fleet-,
#      simd-, obs-, guard-, linear- and cfd-labelled tests (fault injection,
#      recovery, checkpoints, journals, budgets and cancellation, the SIMD
#      pack loads, the strict JSON parser: where memory bugs would hide
#      behind error handling; the sparse, Krylov, Schwarz, SSOR and
#      ILU/Schwarz edge-case tests (test_sparse, test_solver, test_solver2,
#      test_coarse, test_edgecases), whose factors gather A through index
#      maps or have it assembled straight into their storage, and are
#      refactored in place in reused buffers; the default-configuration
#      ψNKS solves end to end (test_integration: the second-order solve
#      with VTK dump, the renumbering-invariant force); the dense block
#      kernels and SpMV dispatch (test_kernels), including the rejection
#      of a block size above the kernels' row buffers; and the cfd
#      kernels' index-heavy loops over edges and stencil rows)
#   6. TSan build + the threaded-, obs-, simd-, fleet-, guard- and
#      cfd-labelled tests (the exec pool, colored scatters, the per-vertex
#      limiter pass, level-scheduled solves, span/counter merges, and the
#      suites that sweep pool sizes) with a 4-thread pool
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

echo "=== recovery log names no source location (fault_storm) ==="
storm_log="$(./build/examples/fault_storm -seed 42 -storm 3)"
if grep -E '\.[ch]pp:[0-9]' <<<"$storm_log"; then
  echo "ERROR: fault_storm output names a source location" >&2
  exit 1
fi

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

echo "=== repository benchmark self-test (perfbench/run.py --self-test) ==="
python3 perfbench/run.py --self-test

echo "=== docs gate: trace schema + bench gates + markdown links ==="
F3D_TRACE=1 F3D_TRACE_OUT=build/ci_trace.json ./build/examples/quickstart
./build/examples/tuned_solve -dump-knobs > build/knobs.json
python3 scripts/check_docs.py --trace build/ci_trace.json --min-coverage 0.9 \
  --tunedb build/tune_db.json --knobs build/knobs.json

# Negative controls for the knob-catalog cross-check, one per direction:
# strip one knob from a copy of the tuning doc, and add a table row for a
# knob that is not registered to another, and demand the gate notices
# each. A gate that cannot fail is not a gate.
echo "=== docs gate negative controls (undocumented knob, unregistered row) ==="
grep -v 'ptc\.cfl0' docs/TUNING.md > build/TUNING_missing.md
if python3 scripts/check_docs.py --knobs build/knobs.json \
     --tuning-md build/TUNING_missing.md >/dev/null 2>&1; then
  echo "ERROR: check_docs.py accepted a tuning doc missing ptc.cfl0" >&2
  exit 1
fi
awk '{ print } /^\| `ptc\.cfl0` \|/ { print "| `ptc.bogus` | double | [0, 1] | 0 | §2.4.1 |" }' \
  docs/TUNING.md > build/TUNING_extra.md
if python3 scripts/check_docs.py --knobs build/knobs.json \
     --tuning-md build/TUNING_extra.md >/dev/null 2>&1; then
  echo "ERROR: check_docs.py accepted a tuning doc row for ptc.bogus" >&2
  exit 1
fi

# Negative controls for the gate checker: synthetic artifacts that differ
# from an accepted one only in their gates, one defect each.
echo "=== docs gate negative controls (malformed series.gates) ==="
negctl_artifact() {  # <name> <series JSON>: one artifact in its own repo dir
  mkdir -p "build/docs_negctl/$1"
  cat > "build/docs_negctl/$1/BENCH_negctl.json" <<EOF
{"meta": {"schema": "f3d-bench-v1", "experiment": "negctl",
          "host_isa": {"isa": "none", "arch": "x86_64",
                       "double_lanes": 1, "simd_compiled": false}},
 "series": $2}
EOF
}
negctl_artifact accepted '{"gates": [{"name": "fp", "value": 0, "op": "==",
  "threshold": 0, "pass": true}]}'
python3 scripts/check_docs.py --repo build/docs_negctl/accepted >/dev/null
negctl_artifact no-gates '{"fp": 0}'
negctl_artifact failed-required-gate '{"gates": [{"name": "fp", "value": 1,
  "op": "==", "threshold": 0, "pass": false}]}'
negctl_artifact contradicted-pass '{"gates": [{"name": "fp", "value": 1,
  "op": "==", "threshold": 0, "pass": true}]}'
negctl_artifact advisory-miss-without-note '{"gates": [{"name": "fp",
  "value": 1, "op": "==", "threshold": 0, "pass": false, "advisory": true}]}'
for defect in no-gates failed-required-gate contradicted-pass \
              advisory-miss-without-note; do
  if python3 scripts/check_docs.py --repo "build/docs_negctl/$defect" \
       >/dev/null 2>&1; then
    echo "ERROR: check_docs.py accepted an artifact with $defect" >&2
    exit 1
  fi
done

echo "=== asan build + resilience/sdc/failslow/tune/fleet/simd/obs/guard/linear/cfd-labelled tests ==="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"

echo "=== tsan build + threaded/obs/simd/fleet/guard/cfd-labelled tests ==="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan-threaded -j "$JOBS"

echo "=== CI green ==="
