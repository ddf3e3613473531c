#!/usr/bin/env python3
"""The repository benchmark: canonical psi-NKS solves, end to end and per layer.

    python3 perfbench/run.py --workload incomp2-20k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (which builds the library from ../src) into
.bench_build/perfbench, runs one workload, checks every solve, and prints
as the last stdout line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. Build output and diagnostics go to stderr. See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("incomp2-20k", "compwing-6k", "rasm64-1st-20k")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ACCOUNTED_TOL = 0.01  # traced layer self times vs traced solve wall
# Exclusive-time layers of the traced solve (perfbench/ledger.cpp).
LAYERS = (
    "cfd.gradient_s", "cfd.limiter_s", "cfd.flux_scatter_s",
    "cfd.jacobian_assembly_s", "cfd.other_s", "sparse.ilu_factor_s",
    "solver.factor_setup_s", "solver.precond_apply_s", "solver.krylov_self_s",
    "solver.partition_s", "solver.driver_self_s",
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: expected src/ beside perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if p.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def run_binary(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError("perfbench exited with %d" % p.returncode)
    return json.loads(p.stdout)


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


# --- checks -----------------------------------------------------------------

COUNTS = ("steps", "linear_its", "residual_evals", "work_units")


def check_solve(s, rtol, ref):
    """Failures of one solve: verdict, residual drop, wall force."""
    bad = []
    if s["verdict"] != "converged":
        bad.append("verdict %s" % s["verdict"])
    if not s["final_residual"] <= rtol * s["initial_residual"]:
        bad.append("residual ratio %.3e > rtol %.1e"
                   % (s["final_residual"] / s["initial_residual"], rtol))
    want = ref["force"]
    scale = math.sqrt(sum(f * f for f in want))
    err = max(abs(a - b) for a, b in zip(s["force"], want))
    if not err <= ref["force_rel_tol"] * scale:
        bad.append("wall force %s differs from reference %s by %.3e"
                   % (s["force"], want, err))
    return bad


def check_run(raw):
    """Run-level failures of a traced run: tracing must not change the
    solve, the ledger fold must pass its self-test, and the layer self
    times must account for the traced solve."""
    bad = []
    if raw["trace"]:
        by_round = {}
        for s in raw["solves"]:
            by_round.setdefault(s["round"], []).append(s)
        for pair in by_round.values():
            for k in COUNTS:
                if len({s[k] for s in pair}) != 1:
                    bad.append("%s differs between the untraced and traced solve" % k)
        if raw["fold_error"]:
            bad.append("ledger fold self-test: " + raw["fold_error"])
        for s in raw["solves"]:
            if not s["traced"]:
                continue
            if s["spans_dropped"] or "unmapped" in s["layers"]:
                bad.append("spans dropped or outside ptc_solve")
            frac = sum(s["layers"].values()) / s["wall_s"]
            if abs(frac - 1.0) > ACCOUNTED_TOL:
                bad.append("layer self times account for %.4f of the traced solve"
                           % frac)
    return bad


# --- metrics ----------------------------------------------------------------


def end_to_end(raw):
    walls = [s["wall_s"] for s in raw["solves"] if not s["traced"]]
    return {
        "solve_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(s["total_s"] for s in raw["setups"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    """Per-solve means: span self times and span counts over the traced
    solves, everything the solve itself reports over the untraced ones."""
    untraced = [s for s in raw["solves"] if not s["traced"]]
    traced = [s for s in raw["solves"] if s["traced"]]
    probe, triad = raw["probe"], raw["stream_triad_gbs"]

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    def mean(get, rows):
        return statistics.fmean(get(r) for r in rows)

    def layer(name):
        return mean(lambda s: s["layers"].get(name, 0.0), traced)

    def span_count(name):
        return mean(lambda s: s["span_counts"].get(name, 0), traced)

    def count(key):
        return mean(lambda s: s[key], untraced)

    def tally(call, key):
        return mean(lambda s: s[call][key], untraced)

    solve_untraced = med("wall_s", untraced)
    solve_traced = med("wall_s", traced)
    spmv_gbs = probe["spmv_bytes"] / probe["spmv_s"] * 1e-9
    apply_gbs = probe["schwarz_apply_bytes"] / probe["schwarz_apply_s"] * 1e-9
    m = {
        "mesh.generate_s": (med("generate_s", raw["setups"]), "s"),
        "mesh.ordering_s": (med("ordering_s", raw["setups"]), "s"),
        "cfd.geometry_s": (med("geometry_s", raw["setups"]), "s"),
        "cfd.residual_s": (tally("residual", "seconds"), "s"),
        "cfd.residual_calls": (tally("residual", "calls"), "count"),
        "cfd.jacobian_s": (tally("jacobian", "seconds"), "s"),
        "cfd.jacobian_calls": (tally("jacobian", "calls"), "count"),
        "cfd.timestep_scale_s": (tally("timestep_scale", "seconds"), "s"),
        "sparse.ilu_factors": (span_count("ilu.factor"), "count"),
        "solver.precond_applies": (span_count("precond"), "count"),
        "solver.steps": (count("steps"), "count"),
        "solver.linear_its": (count("linear_its"), "count"),
        "solver.residual_evals": (count("residual_evals"), "count"),
        "solver.work_units": (count("work_units"), "count"),
        "cfd.residual_ms": (probe["residual_s"] * 1e3, "ms"),
        "cfd.residual_ns_per_edge": (probe["residual_s"] * 1e9 / probe["edges"], "ns"),
        "sparse.spmv_ms": (probe["spmv_s"] * 1e3, "ms"),
        "sparse.spmv_bytes": (probe["spmv_bytes"], "B"),
        "sparse.spmv_gbs": (spmv_gbs, "GB/s"),
        "sparse.spmv_stream_frac": (spmv_gbs / triad, "ratio"),
        "sparse.schwarz_apply_ms": (probe["schwarz_apply_s"] * 1e3, "ms"),
        "sparse.schwarz_apply_bytes": (probe["schwarz_apply_bytes"], "B"),
        "sparse.schwarz_apply_gbs": (apply_gbs, "GB/s"),
        "sparse.schwarz_apply_stream_frac": (apply_gbs / triad, "ratio"),
        "sparse.factor_bytes": (probe["factor_bytes"], "B"),
        "perf.stream_triad_gbs": (triad, "GB/s"),
        "host.effective_parallelism": (raw["host"]["effective_parallelism"], "ratio"),
        "obs.trace_overhead_frac": (solve_traced / solve_untraced - 1.0, "ratio"),
        "obs.accounted_frac": (
            mean(lambda s: sum(s["layers"].values()) / s["wall_s"], traced), "ratio"),
    }
    for name in LAYERS:
        m[name] = (layer(name), "s")
    return m


def measure(exe, workload, seed, seconds, trace):
    ref = load_reference()
    raw = run_binary(exe, workload, seed, seconds, trace)
    failed = 0
    for i, s in enumerate(raw["solves"]):
        bad = check_solve(s, raw["rtol"], ref["workloads"][workload])
        for b in bad:
            log("solve %d: %s" % (i, b))
        failed += bool(bad)
    run_bad = check_run(raw)
    for b in run_bad:
        log("run: " + b)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    print(json.dumps({"workload": workload, "seed": seed, "host": raw["host"]}))
    return {
        "correct": failed == 0 and not run_bad,
        "attempted": len(raw["solves"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_test(exe):
    """The benchmark's checks of itself; returns the number of failures."""
    ref = load_reference()
    failures = 0
    # Unshuffled mesh order: the solver counts of the example binaries. The
    # compressible run is traced, so it also checks the ledger fold and that
    # layer self times account for the traced solve.
    for workload, trace in (("compwing-6k", 1), ("incomp2-20k", 0)):
        raw = run_binary(exe, workload, -1, 0, trace)
        bad = check_run(raw)
        for s in raw["solves"]:
            bad += check_solve(s, raw["rtol"], ref["workloads"][workload])
        want = ref["unshuffled_counts"][workload]
        got = {k: raw["solves"][0][k] for k in want}
        if got != want:
            bad.append("unshuffled counts %s, want %s" % (got, want))
        for b in bad:
            log("FAIL %s: %s" % (workload, b))
        if not bad:
            log("ok   %s: counts %s%s" % (workload, got,
                                          ", ledger accounts for the solve" if trace else ""))
        failures += len(bad)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if not 0 <= a.seed < 2**63:
        ap.error("--seed must be in [0, 2**63)")
    try:
        exe = build()
        if a.self_test:
            return 1 if self_test(exe) else 0
        result = measure(exe, a.workload, a.seed, a.seconds, a.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
