#pragma once
// f3d::guard — run-to-completion guarantees for the solve stack: per-solve
// budgets (wall-clock deadline + deterministic work units), cooperative
// cancellation, and the verdict taxonomy every exit maps onto. The fleet
// north star (thousands of Mach x AoA solves through one resident
// service) needs every solve to terminate on time with a usable answer;
// this layer is the contract that makes that true.
//
// Design constraints, in order:
//  * Deterministic trip points. Work units are charged by the psi-NKS
//    driver and the Krylov solvers at points whose order is independent
//    of thread count (residual evaluations, Krylov iterations, Jacobian
//    and factorization events — never exec chunk boundaries). A budget
//    or armed-cancel trip therefore lands at the same work unit at any
//    thread count, and the best committed state the driver returns is
//    bit-identical. Only the wall-clock deadline is inherently timing
//    dependent; it is still *observed* only at charge points, so the
//    returned state is always a consistently committed iterate.
//  * Bounded cancellation latency. charge() re-reads the cancel flag on
//    every call and the deadline clock every kCheckEvery units, so a
//    trip is honored within kCancelLatencyBoundUnits work units — the
//    documented bound bench_deadline measures p99 against.
//  * Near-zero cost when idle. With no guard registered, the poll at an
//    exec chunk boundary is one relaxed atomic load; a charge against an
//    unbounded budget is integer arithmetic plus one relaxed load.
//
// Layering: guard sits directly above f3d_common (it uses f3d::Error and
// tallies into obs::Registry); exec, solver, cfd and par all poll it.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/error.hpp"

namespace f3d::guard {

/// Why a guarded computation stopped early. kNone = still running.
enum class TripReason : int {
  kNone = 0,
  kCancelled,      ///< cooperative CancelToken honored
  kDeadline,       ///< wall-clock deadline exceeded
  kWorkExhausted,  ///< work-unit budget exhausted
};
[[nodiscard]] const char* trip_reason_name(TripReason reason);

/// Structured exit taxonomy of a guarded solve — every PtcResult and
/// CampaignResult carries one, so a fleet scheduler can triage thousands
/// of runs without parsing logs.
enum class SolveVerdict : int {
  kConverged = 0,        ///< residual target met
  kMaxIters,             ///< outer iteration cap exhausted, still improving
  kStagnated,            ///< progress watchdog detected a livelock-style stall
  kDeadline,             ///< budget (wall clock or work units) exhausted
  kCancelled,            ///< cooperative cancel honored
  /// Unrecoverable fault: a campaign lost its state, or a fleet attempt
  /// threw. ptc_solve never returns it: an exhausted recovery ladder
  /// throws NumericalError.
  kFaultUnrecoverable,
};
[[nodiscard]] const char* verdict_name(SolveVerdict verdict);

/// Cooperative cancellation handle. cancel() may be called from any
/// thread (a fleet scheduler, a signal handler trampoline); the guarded
/// solve observes it at its next charge or poll point. cancel_at_work()
/// arms a *deterministic* trip at an exact work-unit count — the handle
/// tests and benches use to reproduce a mid-Krylov cancel bit-identically
/// at any thread count.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool requested() const {
    return flag_.load(std::memory_order_relaxed);
  }
  /// Trip automatically when the guarded solve's work counter reaches
  /// `unit` (< 0 disarms). Deterministic: work units are charged at
  /// thread-count-independent points.
  void cancel_at_work(long long unit) {
    at_.store(unit, std::memory_order_relaxed);
  }
  [[nodiscard]] long long armed_at() const {
    return at_.load(std::memory_order_relaxed);
  }
  void reset() {
    flag_.store(false, std::memory_order_relaxed);
    at_.store(-1, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
  std::atomic<long long> at_{-1};
};

/// Deterministic cost model the solve stack charges in. The weights are
/// relative flop-count classes, not wall time — chosen so the degradation
/// ladder's "freeze Jacobian" rung genuinely saves budget.
inline constexpr long long kUnitsResidual = 1;    ///< flux/spectral-radius pass
inline constexpr long long kUnitsKrylovIter = 1;  ///< one Krylov iteration
inline constexpr long long kUnitsJacobian = 4;    ///< analytic assembly
inline constexpr long long kUnitsFactor = 6;      ///< preconditioner refactor

/// Per-solve budget. Default-constructed = unbounded (never trips).
///
/// Work units are the solver's deterministic cost model: kUnitsResidual
/// per residual evaluation / matrix-free action, kUnitsKrylovIter per
/// Krylov iteration, kUnitsJacobian per analytic Jacobian assembly,
/// kUnitsFactor per preconditioner refactorization. The same solve
/// charges the same units at any thread count.
struct SolveBudget {
  double wall_deadline_s = 0;    ///< 0 = no wall-clock deadline
  long long max_work_units = 0;  ///< 0 = no work budget
  CancelToken* cancel = nullptr; ///< optional cooperative cancel handle

  [[nodiscard]] bool bounded() const {
    return wall_deadline_s > 0 || max_work_units > 0 || cancel != nullptr;
  }
};

/// Deadline-clock check cadence in work units. Smaller = tighter
/// cancellation latency, more clock reads.
inline constexpr long long kCheckEvery = 8;

/// Documented bound on how many work units may elapse between a trip
/// (cancel request, armed unit reached, deadline passed) and the solve
/// honoring it. bench_deadline gates measured p99 latency against this.
inline constexpr long long kCancelLatencyBoundUnits = kCheckEvery;

/// Live budget enforcement for one solve. charge() is driver-thread-only
/// (work units are deterministic, so no atomics on the counter); the trip
/// state is atomic so pool workers and Schwarz subdomain loops can
/// observe it via poll points.
class SolveGuard {
 public:
  explicit SolveGuard(const SolveBudget& budget)
      : budget_(budget), t0_(std::chrono::steady_clock::now()) {}
  SolveGuard(const SolveGuard&) = delete;
  SolveGuard& operator=(const SolveGuard&) = delete;

  /// Charge `units` of deterministic work; returns the trip state after
  /// the charge. Call only from the solve's driver thread.
  TripReason charge(long long units);

  /// Current trip state (relaxed loads only; safe from any thread).
  [[nodiscard]] TripReason tripped() const {
    return static_cast<TripReason>(tripped_.load(std::memory_order_relaxed));
  }
  /// True when a poll point should abandon work: tripped and not yet
  /// disarmed for the exit path.
  [[nodiscard]] bool should_abandon() const {
    return tripped() != TripReason::kNone &&
           !disarmed_.load(std::memory_order_relaxed);
  }
  /// The driver calls this the moment it decides to exit: subsequent
  /// polls become no-ops so the exit path (quality grading, trace flush)
  /// can still use the exec pool without being cancelled itself.
  void disarm() { disarmed_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] long long work_units() const { return units_; }
  /// Work units charged after the trip was first observable (0 when not
  /// tripped) — the measured cancellation latency.
  [[nodiscard]] long long latency_units() const {
    const long long at = tripped_at_.load(std::memory_order_relaxed);
    return at >= 0 ? units_ - at : 0;
  }
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  /// Budget pressure in [0, 1]: the larger of work spent / work budget
  /// and wall elapsed / wall deadline (0 when unbounded). The degradation
  /// ladder keys its rungs off this.
  [[nodiscard]] double pressure() const;
  [[nodiscard]] const SolveBudget& budget() const { return budget_; }

 private:
  void trip(TripReason reason);

  SolveBudget budget_;
  std::chrono::steady_clock::time_point t0_;
  long long units_ = 0;              ///< driver thread only
  long long since_clock_check_ = 0;  ///< driver thread only
  std::atomic<int> tripped_{static_cast<int>(TripReason::kNone)};
  std::atomic<long long> tripped_at_{-1};
  std::atomic<bool> disarmed_{false};
};

/// Thrown from cooperative poll points (exec chunk boundaries, Schwarz
/// subdomain application, cfd kernels) when the active guard has tripped.
/// The psi-NKS driver catches it, restores the last committed state, and
/// returns with the trip's verdict — callers outside a guarded solve
/// never see it (poll points are no-ops with no guard registered).
class CancelledError : public Error {
 public:
  explicit CancelledError(TripReason reason)
      : Error(std::string("solve cancelled (") + trip_reason_name(reason) +
              ")"),
        reason_(reason) {}
  [[nodiscard]] TripReason reason() const { return reason_; }

 private:
  TripReason reason_;
};

/// Thread-local active guard, registered for a solve's duration so deep
/// layers (exec chunks, ILU application, flux kernels) see it without
/// threading it through every signature. Thread-local (not process-wide)
/// so concurrent guarded solves on different threads — the fleet layer's
/// scenario workers — are fully isolated from each other; the exec pool
/// propagates the dispatching thread's guard to its workers for the
/// duration of each parallel_for, so a threaded solve still behaves as
/// one guarded operation.
[[nodiscard]] SolveGuard* active_guard();
SolveGuard* set_active_guard(SolveGuard* g);

class GuardScope {
 public:
  explicit GuardScope(SolveGuard* g) : previous_(set_active_guard(g)) {}
  ~GuardScope() { set_active_guard(previous_); }
  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;

 private:
  SolveGuard* previous_;
};

/// Cooperative poll point: one relaxed load when no guard is active;
/// throws CancelledError when the active guard has tripped (and has not
/// been disarmed for the exit path). Cheap enough for chunk boundaries.
inline void poll_cancellation() {
  SolveGuard* g = active_guard();
  if (g != nullptr && g->should_abandon()) throw CancelledError(g->tripped());
}

}  // namespace f3d::guard
