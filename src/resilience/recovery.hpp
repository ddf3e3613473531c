#pragma once
// Structured record of every failure detection and recovery action the
// resilient solver stack takes. The psi-NKS driver attaches a RecoveryLog
// to its PtcResult so tests and benches can assert on exactly what
// happened ("the zero pivot at step 7 was absorbed by a 1e-6 shift")
// instead of grepping stderr.

#include <string>
#include <utility>
#include <vector>

namespace f3d::resilience {

enum class RecoveryAction : int {
  kDetectNanResidual = 0,  ///< non-finite residual evaluation observed
  kDetectDivergence,       ///< residual blew up past the divergence factor
  kDetectBreakdown,        ///< Krylov breakdown flagged by the inner solver
  kDetectStagnation,       ///< GMRES restart cycles made no progress
  kDetectSingularFactor,   ///< zero pivot / singular block in factorization
  kStepRejected,           ///< pseudo-timestep rolled back to its start state
  kCflBacktrack,           ///< CFL relaxation multiplier reduced
  kPrecRefresh,            ///< preconditioner rebuild forced out of schedule
  kPivotShift,             ///< Manteuffel-style diagonal shift absorbed a pivot
  kKrylovSwap,             ///< BiCGStab swapped for GMRES after breakdown
  kRestartEscalation,      ///< GMRES restart length escalated
  kCoarseDisabled,         ///< singular coarse operator dropped for this refresh
  kCheckpointWrite,        ///< PTC state serialized to disk
  kResume,                 ///< PTC state restored from a checkpoint
  // Distributed campaign events (par::simulate_campaign). Appended at the
  // end: the enum value is serialized as an integer in checkpoints.
  kDetectRankFail,         ///< fail-stop rank loss observed
  kSpareSubstitution,      ///< dead rank replaced from the spare pool
  kShrinkRepartition,      ///< dead rank's vertices reassigned to survivors
  kBuddyCheckpoint,        ///< diskless neighbor checkpoint written
  kBuddyRestore,           ///< state recovered from a buddy copy
  // Silent-data-corruption defense (ABFT + numerical health watchdog).
  // Appended at the end: the enum value is serialized in checkpoints.
  kDetectSdc,              ///< finite-value corruption flagged by a guard
  kSdcRecompute,           ///< recompute-and-verify rung (transient flips)
  kSdcRollback,            ///< state restored from the in-memory snapshot
  // Fail-slow tolerance (par::simulate_campaign's mitigation ladder).
  // Appended at the end: the enum value is serialized in checkpoints.
  kDetectSlowRank,         ///< outlier detector confirmed a degraded rank
  kWeightedRepartition,    ///< load shifted away from a slow-but-alive rank
  kQuarantineSlowRank,     ///< confirmed-slow rank migrated to a spare
  kCheckpointRetune,       ///< checkpoint interval adapted to the fault rate
  // Run-to-completion guard (f3d::guard; deadlines, cancellation,
  // degradation). Appended at the end: the value is serialized in
  // checkpoints.
  kGuardTrip,              ///< budget/cancel trip ended the solve
  kDetectStall,            ///< progress watchdog fired (livelock-style stall)
  kDegradeRung,            ///< degradation ladder traded accuracy for time
};

/// One past the last RecoveryAction: a serialized action outside
/// [0, kNumRecoveryActions) is rejected.
inline constexpr int kNumRecoveryActions =
    static_cast<int>(RecoveryAction::kDegradeRung) + 1;

[[nodiscard]] const char* recovery_action_name(RecoveryAction action);

struct RecoveryEvent {
  int step = 0;  ///< pseudo-timestep index the event happened in
  RecoveryAction action = RecoveryAction::kStepRejected;
  std::string detail;
};

class RecoveryLog {
public:
  RecoveryLog() = default;
  /// Restores events an earlier process logged (a checkpoint's log)
  /// without tallying them: the registry counts what this process did.
  explicit RecoveryLog(std::vector<RecoveryEvent> restored)
      : events_(std::move(restored)) {}

  /// Appends the event and tallies it into the process-wide observability
  /// registry as "resilience.<action-name>" (defined in recovery.cpp).
  void add(int step, RecoveryAction action, std::string detail = {});

  [[nodiscard]] const std::vector<RecoveryEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  [[nodiscard]] int count(RecoveryAction action) const {
    int n = 0;
    for (const auto& e : events_)
      if (e.action == action) ++n;
    return n;
  }
  /// Detections only (the "what went wrong" half of the log).
  [[nodiscard]] int detections() const {
    return count(RecoveryAction::kDetectNanResidual) +
           count(RecoveryAction::kDetectDivergence) +
           count(RecoveryAction::kDetectBreakdown) +
           count(RecoveryAction::kDetectStagnation) +
           count(RecoveryAction::kDetectSingularFactor) +
           count(RecoveryAction::kDetectSdc);
  }

  /// One line per event: "step 7: pivot-shift (shift=1e-06)".
  [[nodiscard]] std::string to_string() const;

private:
  std::vector<RecoveryEvent> events_;
};

/// Outcome of a status-returning (non-throwing) factorization attempt,
/// including any diagonal-shift ladder the Schwarz layer climbed.
struct FactorReport {
  bool ok = true;
  int shift_attempts = 0;   ///< ladder rungs climbed across all subdomains
  double shift_used = 0;    ///< largest shift that made a factorization pass
  bool coarse_disabled = false;  ///< two-level only: coarse solve dropped
  std::string detail;
};

}  // namespace f3d::resilience
