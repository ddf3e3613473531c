#include "guard/watchdog.hpp"

namespace f3d::guard {

ProgressWatchdog::ProgressWatchdog(bool enabled) : enabled_(enabled) {
  if (enabled_) ring_.assign(static_cast<size_t>(kWatchdogWindow), 0.0);
}

bool ProgressWatchdog::observe(double rnorm) {
  if (!enabled_ || fired_) return false;
  const size_t slot = static_cast<size_t>(observed_ % kWatchdogWindow);
  if (observed_ >= kWatchdogWindow) {
    // ring_[slot] currently holds the residual from exactly
    // kWatchdogWindow accepted steps ago.
    const double old = ring_[slot];
    if (old > 0 && rnorm >= kWatchdogStallRatio * old) {
      fired_ = true;
      ring_[slot] = rnorm;
      ++observed_;
      return true;
    }
  }
  ring_[slot] = rnorm;
  ++observed_;
  return false;
}

}  // namespace f3d::guard
