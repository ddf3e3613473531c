#pragma once
// Distributed resilience for the virtual parallel machine: a fail-stop
// rank-failure process (FaultSite::kRankFail, one seeded opportunity per
// alive rank per modeled step), two recovery policies — spare-rank
// substitution and shrink-and-repartition — buddy (diskless neighbor)
// checkpointing with rework/restore accounting charged into
// StepBreakdown::t_recovery, and the Young/Daly availability model that
// bench_availability validates the simulator against. This is the paper's
// analytic-modeling spirit extended from performance to availability: the
// machine model predicts not just how fast a step runs but how much of a
// campaign's wall clock survives failures.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "guard/guard.hpp"
#include "mesh/graph.hpp"
#include "par/failslow.hpp"
#include "par/loadmodel.hpp"
#include "par/stepmodel.hpp"
#include "partition/partition.hpp"
#include "perf/machine.hpp"
#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"

namespace f3d::par {

/// What replaces a dead rank.
enum class RecoveryPolicy {
  /// A spare node takes over the logical rank: the decomposition (and so
  /// the step time) is unchanged, at the price of idle spares and a boot
  /// + state-transfer delay per failure.
  kSpareRank,
  /// The survivors absorb the dead rank's subdomain
  /// (part::repartition_after_failure): no spares needed, but the
  /// PartitionLoad degrades — the receivers' extra load shows up as
  /// implicit-synchronization time in every subsequent step.
  kShrinkRepartition,
};

/// The domain a campaign runs on: a real graph + partition (required for
/// real shrink repartitioning) or just a synthesized load (spare-rank
/// campaigns and large-P availability sweeps; shrink then falls back to
/// the analytic shrink_load transform).
struct CampaignDomain {
  const mesh::Graph* graph = nullptr;
  part::Partition partition;
  PartitionLoad load;
};
CampaignDomain make_domain(const mesh::Graph& g, part::Partition p);
CampaignDomain make_domain(PartitionLoad synthesized);

/// Analytic one-rank shrink of a load with no mesh to repartition: the
/// dead rank's subdomain spreads over its ~avg_neighbors neighbors, so
/// the average per-survivor load rises by 1/(P-1) of a subdomain and the
/// critical path gains a neighbor's share of a full subdomain.
PartitionLoad shrink_load(const PartitionLoad& in);

struct CampaignOptions {
  RecoveryPolicy policy = RecoveryPolicy::kSpareRank;
  int spare_ranks = 2;         ///< spare pool (kSpareRank; falls back to
                               ///< shrink when exhausted)
  int checkpoint_interval = 10;  ///< steps between buddy checkpoints
                                 ///< (0 = only the initial one)
  std::optional<CommReliability> comm;  ///< lossy-interconnect model

  // Recovery cost knobs (modeled seconds). Campaigns model one MPI rank
  // per node (NodeMode::kMpi1); the shrink repartition's compute cost is
  // a constant in distres.cpp.
  double spare_boot_s = 2.0;  ///< spare wake + join barrier
  /// Checkpoint payload size per owned vertex, in doubles. 0 = just the
  /// state vector (work.nb). A full warm-restart image also carries the
  /// residual, the Jacobian and ILU blocks (~2*nb^2) and the Krylov
  /// basis (~restart*nb) — O(100) doubles/vertex, which is what makes
  /// the Daly checkpoint-interval tradeoff non-trivial.
  double checkpoint_doubles_per_vertex = 0;

  // Silent halo corruption (FaultSite::kBitFlip with FlipTarget::kHalo,
  // one opportunity per alive rank per clean step). The kMessage CRC
  // models LINK corruption — a payload flipped in memory before packing
  // (or after unpacking) checksums as valid on the wire and sails through
  // retransmission. It can only be caught downstream, by the receiving
  // rank's ABFT / admissibility guards, which is what this knob models:
  // with sdc_guards on, a flip in a high bit (kSdcCaughtMinBit in
  // distres.cpp) perturbs the solve enough for a guard to fire (roll back
  // to the last buddy checkpoint and re-execute); lower bits — and every
  // flip with guards off — escape silently into the campaign's answer.
  bool sdc_guards = true;

  // Fail-slow tolerance (FaultSite::kSlowRank / kJitter / kDegradedLink,
  // one opportunity each per alive rank per step — drawn on every step
  // whether armed or not, so fault sequences stay comparable across
  // mitigation policies). The campaign synthesizes share-normalized
  // per-rank telemetry from the perturbed step model, feeds it to a
  // SlowRankDetector, and climbs the mitigation ladder up to
  // `slow_mitigation` when a rank is confirmed slow:
  //   kRetry       — halo timeout + capped-backoff re-post (armed in the
  //                  comm model; auto-derived when halo_timeout_us is 0)
  //   kRepartition — part::repartition_for_imbalance with speeds measured
  //                  from the telemetry (never from the injected truth)
  //   kQuarantine  — migrate the slow rank to a spare (sharing the
  //                  fail-stop spare pool) and retune the checkpoint
  //                  interval for the observed fault escalation
  // The detector's thresholds are the kDetector* constants; its MAD
  // floor is at least the machine's jitter amplitude.
  SlowMitigation slow_mitigation = SlowMitigation::kNone;

  /// Drives kRankFail (fail-stop), kMessage (lossy interconnect) and
  /// kBitFlip/kHalo (silent halo corruption). Required; the campaign
  /// registers it for the simulation's duration.
  resilience::FaultInjector* injector = nullptr;

  // Run-to-completion guard. The budget is on *modeled* seconds, checked
  // at every step boundary — deterministic by construction (same domain,
  // options and seed trip at the same step, whatever the host machine).
  // The cancel token is cooperative with one-modeled-step latency.
  double budget_modeled_s = 0;           ///< 0 = unbounded
  guard::CancelToken* cancel = nullptr;  ///< optional cancel handle
};

struct CampaignResult {
  SolveSimulation sim;  ///< per-step model; failure charges in t_recovery
  /// False when state was unrecoverable: a rank and its buddy died before
  /// a re-mirror (the diskless double-failure window), no rank survived,
  /// or the run-to-completion guard ended the campaign early (see
  /// verdict). The simulation stops at that step.
  bool completed = true;
  int steps_executed = 0;

  /// Exit taxonomy: kConverged (all steps executed), kDeadline (modeled
  /// budget exhausted), kCancelled (cooperative cancel honored), or
  /// kFaultUnrecoverable (state lost).
  guard::SolveVerdict verdict = guard::SolveVerdict::kConverged;

  int rank_failures = 0;
  int spares_used = 0;
  int shrink_events = 0;

  // Silent halo corruption accounting.
  int sdc_injected = 0;  ///< halo flips delivered past the wire CRC
  int sdc_caught = 0;    ///< caught downstream by the receiving guards
  int sdc_escaped = 0;   ///< reached the campaign's answer undetected

  // Fail-slow accounting.
  int slow_suspected = 0;      ///< (rank, step) outlier flags raised
  int slow_confirmed = 0;      ///< ranks confirmed slow by the detector
  int slow_quarantined = 0;    ///< confirmed ranks migrated to spares
  int weighted_repartitions = 0;  ///< kWeightedRepartition events
  int checkpoint_retunes = 0;  ///< checkpoint-interval adaptations
  /// Largest first-suspicion-to-confirmation latency, in steps (0 when
  /// nothing was confirmed).
  int slow_detect_latency_steps = 0;

  // Availability accounting (all modeled seconds).
  double t_checkpoint = 0;  ///< buddy checkpoint overhead
  double t_rework = 0;      ///< re-executed work since the last checkpoint
  double t_restore = 0;     ///< buddy pull + spare boot / repartition cost
  double checkpoint_cost_s = 0;  ///< per-event buddy checkpoint cost
  [[nodiscard]] double total_seconds() const {
    return sim.total_seconds + t_checkpoint;
  }
  [[nodiscard]] double useful_seconds() const {
    return sim.total_seconds - sim.aggregate.t_recovery;
  }
  /// Fraction of wall clock doing useful work (1 = fault-free).
  [[nodiscard]] double availability() const {
    return total_seconds() > 0 ? useful_seconds() / total_seconds() : 0;
  }

  PartitionLoad final_load;
  std::vector<std::uint8_t> rank_alive;
  resilience::RecoveryLog log;  ///< every failure/recovery event
};

/// Simulate a psi-NKS campaign of `steps` pseudo-timesteps on the virtual
/// machine with fail-stop rank faults armed. Deterministic: the same
/// (domain, options, injector seed) reproduces the identical result
/// bit-for-bit.
CampaignResult simulate_campaign(const perf::MachineModel& machine,
                                 const CampaignDomain& domain,
                                 const WorkCoefficients& work,
                                 const std::vector<StepCounts>& steps,
                                 const CampaignOptions& opts);

// --- Young/Daly availability model ----------------------------------------

/// First-order optimal checkpoint interval sqrt(2 * delta * MTBF)
/// (Young 1974; Daly 2006's leading term), delta = per-checkpoint cost.
double daly_optimal_interval(double checkpoint_cost_s, double mtbf_s);

/// Modeled overhead fraction of checkpointing every `interval_s` of work:
/// delta/tau (checkpoint tax) + (tau/2 + restart)/MTBF (expected rework
/// plus restart per failure). The U-curve bench_availability sweeps.
double daly_overhead(double interval_s, double checkpoint_cost_s,
                     double restart_s, double mtbf_s);

}  // namespace f3d::par
