#include "guard/guard.hpp"

#include "obs/obs.hpp"

namespace f3d::guard {

const char* trip_reason_name(TripReason reason) {
  switch (reason) {
    case TripReason::kNone: return "none";
    case TripReason::kCancelled: return "cancelled";
    case TripReason::kDeadline: return "deadline";
    case TripReason::kWorkExhausted: return "work-exhausted";
  }
  return "unknown";
}

const char* verdict_name(SolveVerdict verdict) {
  switch (verdict) {
    case SolveVerdict::kConverged: return "converged";
    case SolveVerdict::kMaxIters: return "max-iters";
    case SolveVerdict::kStagnated: return "stagnated";
    case SolveVerdict::kDeadline: return "deadline";
    case SolveVerdict::kCancelled: return "cancelled";
    case SolveVerdict::kFaultUnrecoverable: return "fault-unrecoverable";
  }
  return "unknown";
}

TripReason SolveGuard::charge(long long units) {
  units_ += units;
  obs::Registry::global().count("guard.work_units", units);

  TripReason current = tripped();
  if (current != TripReason::kNone) return current;

  // Cancel flag and armed work-unit trip: re-read on every charge, so the
  // latency from request to observation is at most one charge's units.
  if (budget_.cancel != nullptr) {
    const long long armed = budget_.cancel->armed_at();
    if (budget_.cancel->requested() || (armed >= 0 && units_ >= armed)) {
      trip(TripReason::kCancelled);
      return TripReason::kCancelled;
    }
  }
  if (budget_.max_work_units > 0 && units_ >= budget_.max_work_units) {
    trip(TripReason::kWorkExhausted);
    return TripReason::kWorkExhausted;
  }
  // Wall clock: checked every kCheckEvery units, bounding both the clock
  // read rate and the deadline-observation latency.
  if (budget_.wall_deadline_s > 0) {
    since_clock_check_ += units;
    if (since_clock_check_ >= kCheckEvery) {
      since_clock_check_ = 0;
      if (elapsed_s() >= budget_.wall_deadline_s) {
        trip(TripReason::kDeadline);
        return TripReason::kDeadline;
      }
    }
  }
  return TripReason::kNone;
}

double SolveGuard::pressure() const {
  double p = 0;
  if (budget_.max_work_units > 0) {
    p = static_cast<double>(units_) /
        static_cast<double>(budget_.max_work_units);
  }
  if (budget_.wall_deadline_s > 0) {
    const double t = elapsed_s() / budget_.wall_deadline_s;
    if (t > p) p = t;
  }
  return p < 1.0 ? p : 1.0;
}

void SolveGuard::trip(TripReason reason) {
  int expected = static_cast<int>(TripReason::kNone);
  if (tripped_.compare_exchange_strong(expected, static_cast<int>(reason),
                                       std::memory_order_relaxed)) {
    tripped_at_.store(units_, std::memory_order_relaxed);
    obs::Registry::global().count("guard.trips");
    switch (reason) {
      case TripReason::kCancelled:
        obs::Registry::global().count("guard.trip.cancelled");
        break;
      case TripReason::kDeadline:
        obs::Registry::global().count("guard.trip.deadline");
        break;
      case TripReason::kWorkExhausted:
        obs::Registry::global().count("guard.trip.work_exhausted");
        break;
      case TripReason::kNone: break;
    }
  }
}

namespace {
// Thread-local, so concurrent guarded solves (the fleet layer runs one
// scenario per worker thread) each see only their own guard — a budget
// trip in scenario A must never cancel scenario B, and the pointer
// itself must not be a data race. A solve that fans its kernels out
// across the exec pool is still one logical operation: the pool captures
// the dispatching thread's active guard and installs it on each worker
// for the duration of the chunk (exec/pool.cpp), so pool workers observe
// the driver's guard exactly as they did when this was process-global.
thread_local SolveGuard* tl_active_guard = nullptr;
}  // namespace

SolveGuard* active_guard() { return tl_active_guard; }

SolveGuard* set_active_guard(SolveGuard* g) {
  SolveGuard* previous = tl_active_guard;
  tl_active_guard = g;
  return previous;
}

}  // namespace f3d::guard
