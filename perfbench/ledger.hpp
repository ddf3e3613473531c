#pragma once
// The benchmark's layer ledger: folds the obs spans of a traced solve
// into exclusive ("self") time per layer.
//
// A span's self time is its duration minus the durations of its direct
// children. Each span name maps to one ledger layer; a span whose name is
// not in the map (exec.chunk, or a span added to the library later) is
// charged to the layer of its nearest mapped ancestor. Every nanosecond of
// a root span therefore lands in exactly one layer, and the layer totals
// sum to the root durations.

#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

struct Ledger {
  std::map<std::string, double> self_s;        ///< layer -> exclusive seconds
  std::map<std::string, long long> span_count; ///< span name -> occurrences
  double root_s = 0;  ///< summed duration of the depth-0 spans
  int roots = 0;      ///< number of depth-0 spans
  /// Layer a depth-0 span with an unmapped name is charged to.
  static constexpr const char* kUnmappedRoot = "unmapped";
};

/// Span name -> layer metric name used by the benchmark.
const std::map<std::string, std::string>& layer_map();

/// Fold `events` (as returned by obs::Tracer::drain: sorted by t0, tid,
/// depth) into `ledger`, accumulating across calls.
void fold_exclusive(const std::vector<f3d::obs::SpanEvent>& events,
                    const std::map<std::string, std::string>& layers,
                    Ledger& ledger);

/// Folding on a synthetic span list with known answers. Returns an empty
/// string on success, else a description of the first mismatch.
std::string self_test_fold();

}  // namespace perfbench
