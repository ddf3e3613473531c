#pragma once
// Progress watchdog: detects livelock-style stalls the per-rung solver
// watchdogs miss — the outer PTC loop cycling (accept, reject, recover)
// while the nonlinear residual goes nowhere. Deliberately deterministic:
// it observes only the accepted-step residual history, never the wall
// clock, so a clean converging solve can never false-positive because a
// machine was slow that day, and a fired verdict reproduces exactly under
// any thread count. bench_deadline gates "zero false positives on clean
// scenarios" against this property.

#include <cstddef>
#include <vector>

namespace f3d::guard {

/// Accepted steps in the comparison window. The watchdog can only fire
/// after this many accepted steps have been observed.
inline constexpr int kWatchdogWindow = 10;
/// Fire when rnorm_now >= kWatchdogStallRatio * rnorm_window_ago, i.e. the
/// residual improved by less than 10% across the whole window.
inline constexpr double kWatchdogStallRatio = 0.9;

/// Ring buffer over accepted-step residual norms. observe() returns true
/// the first time a stall is detected; callers map that to
/// SolveVerdict::kStagnated.
class ProgressWatchdog {
 public:
  explicit ProgressWatchdog(bool enabled);

  /// Record one accepted step's residual norm; returns true when the
  /// stall condition fires (at most once per watchdog instance).
  bool observe(double rnorm);

 private:
  bool enabled_;
  std::vector<double> ring_;
  long long observed_ = 0;
  bool fired_ = false;
};

}  // namespace f3d::guard
