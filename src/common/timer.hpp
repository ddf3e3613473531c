#pragma once
// Wall-clock timing utilities.

#include <chrono>

namespace f3d {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
  Timer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace f3d
