#pragma once
// Sinks for the observability layer: Chrome trace_event JSON (loadable in
// chrome://tracing and https://ui.perfetto.dev) and the unified
// BENCH_*.json report schema every benchmark artifact uses. Schemas are
// documented in docs/OBSERVABILITY.md.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace f3d::obs {

inline constexpr const char* kBenchSchema = "f3d-bench-v1";
inline constexpr const char* kTraceSchema = "f3d-trace-v1";

// --- unified BENCH_*.json schema ------------------------------------------

/// Wrap an experiment's payload in the common envelope:
///   { "meta": { "schema": "f3d-bench-v1", "experiment": <name> },
///     "series": <series> }
Json make_bench_report(const std::string& experiment, Json series);

// --- Chrome trace_event sink ----------------------------------------------

/// Object-format Chrome trace: {"traceEvents": [...], "displayTimeUnit":
/// "ms", "meta": {"schema": "f3d-trace-v1", ...}}. Every span becomes one
/// complete ("ph":"X") event with microsecond ts/dur; per-tracer thread
/// ids map to trace tids. A non-null registry snapshot is embedded under
/// meta.counters/meta.gauges.
Json chrome_trace_json(const std::vector<SpanEvent>& events,
                       const Snapshot* registry = nullptr);

/// Serialize chrome_trace_json to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& events,
                        const Snapshot* registry = nullptr);

// --- env-driven flush ------------------------------------------------------

/// If the process was started with F3D_TRACE set: drain the global tracer
/// and write a Chrome trace (with the global registry embedded) to
/// F3D_TRACE_OUT (default "trace.json"). Called by ptc_solve at the end
/// of every solve — the file always holds the most recent solve.
/// Best-effort: an unwritable path warns on stderr instead of throwing.
void flush_env_trace();

}  // namespace f3d::obs
