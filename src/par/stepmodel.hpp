#pragma once
// Virtual-machine time model for one psi-NKS pseudo-timestep — the engine
// behind the reproduction of Figures 1, 2, 4 and Tables 3, 5.
//
// Inputs: a machine model (perf::MachineModel), the per-processor load of
// a decomposition (PartitionLoad — measured or surface-law-synthesized),
// per-vertex/per-edge work coefficients calibrated from the real kernels,
// and the *measured* solver counts (linear iterations per step, etc.).
// Output: a per-step time decomposition in the same categories the paper
// reports: flux compute, sparse (memory-bandwidth-bound) compute, global
// reductions, ghost-point scatters, and "implicit synchronizations"
// (idle time from load imbalance at communication events).

#include "par/loadmodel.hpp"
#include "perf/machine.hpp"

namespace f3d::par {

/// Work per unit of mesh, calibrated from the discretization.
struct WorkCoefficients {
  int nb = 4;                       ///< unknowns per vertex
  double flux_flops_per_edge = 75;  ///< one flux evaluation
  /// Memory streamed per edge by the flux loop (edge indices, normals,
  /// state gathers, residual updates). The flux phase is usually
  /// instruction-bound, but colocated MPI ranks share the node bus and
  /// can tip it over (the §2.5 contrast).
  double flux_bytes_per_edge = 60;
  /// Memory traffic of the linear kernels per owned vertex per Krylov
  /// iteration (SpMV on the Jacobian block row + ILU triangular solve).
  double sparse_bytes_per_vertex_it = 0;
  double sparse_flops_per_vertex_it = 0;
  /// Bytes per scalar in the halo payload: 8 for double ghosts, 4 when
  /// the exchange carries single-precision state (the paper's Table 2
  /// observation applied to the wire — float halos halve the beta term
  /// of every ghost scatter while the owned arithmetic stays double).
  double halo_scalar_bytes = 8.0;
};

/// Measured per-pseudo-timestep solver activity.
struct StepCounts {
  double linear_its = 20;     ///< Krylov iterations
  double flux_evals = 0;      ///< residual evaluations (incl. matrix-free
                              ///< matvecs); if 0, derived as
                              ///< linear_its + 3
  double dots_per_linear_it = 4;      ///< global reductions per iteration
  double scatters_per_linear_it = 2;  ///< ghost exchanges per iteration
};

/// Fail-slow perturbation of one modeled step. The campaign driver
/// (par::simulate_campaign) derives it from its per-rank health state —
/// persistent kSlowRank factors, this step's transient kJitter draws,
/// and kDegradedLink bandwidth cuts — and model_step folds it into the
/// alpha-beta machine model:
///   * compute:  the critical-path load stretches by `crit_slowdown`
///     (the slowest rank gates every implicit synchronization) while the
///     average busy time stretches by `avg_slowdown`, so the max-avg gap
///     — the imbalance wait — grows with the straggler's severity;
///   * contention: every halo message to or from the degraded rank's
///     links moves at `link_factor * beta`; bulk-synchronous scatters
///     put that stretched transfer on the global critical path, and the
///     sick rank's `max_neighbors` peers all queue behind it (the
///     contention term of the extended model);
///   * jitter: `jitter` adds a transient OS-noise wait proportional to
///     busy time on top of the machine's baseline jitter.
struct StepPerturbation {
  double crit_slowdown = 1.0;  ///< critical-path compute stretch (>= 1)
  double avg_slowdown = 1.0;   ///< mean compute stretch over ranks (>= 1)
  double link_factor = 1.0;    ///< worst halo-link bandwidth factor, (0, 1]
  double jitter = 0.0;         ///< extra per-step noise wait fraction (>= 0)

  [[nodiscard]] bool trivial() const {
    return crit_slowdown == 1.0 && avg_slowdown == 1.0 &&
           link_factor == 1.0 && jitter == 0.0;
  }
};

/// One pseudo-timestep's modeled time, split the way Table 3 splits it,
/// plus the availability category the distributed resilience model adds.
struct StepBreakdown {
  double t_flux = 0;        ///< busy time, flux phase
  double t_sparse = 0;      ///< busy time, memory-bound linear algebra
  double t_reductions = 0;  ///< global reduction latency
  double t_scatter = 0;     ///< ghost exchange wire+latency time
  double t_implicit_sync = 0;  ///< imbalance-induced wait time
  /// Fault-handling overhead: message retransmits (lossy interconnect
  /// model) plus, in simulate_campaign, the rework/restore charges of a
  /// rank failure absorbed during this step.
  double t_recovery = 0;

  [[nodiscard]] double total() const {
    return t_flux + t_sparse + t_reductions + t_scatter + t_implicit_sync +
           t_recovery;
  }
  [[nodiscard]] double pct(double part) const {
    return total() > 0 ? 100.0 * part / total() : 0;
  }

  /// An injected slow/failed rank (FaultSite::kRank) stretched this step:
  /// the critical-path load was scaled by the injector's magnitude, so the
  /// step shows the imbalance signature of a straggler processor.
  bool straggler = false;
  /// Messages retransmitted this step (FaultSite::kMessage fires under an
  /// armed CommReliability model); their latency is in t_recovery.
  int retransmits = 0;
  /// Halo sends that exceeded CommReliability::halo_timeout_us on a
  /// degraded link and were re-posted on the fallback path; the retry
  /// latency is in t_recovery and the transfer completes at healthy beta.
  int halo_timeouts = 0;
  // Fail-slow diagnostics: the perturbation actually applied (1/1/0 =
  // clean step). Already included in the phase buckets above, never added
  // to total() separately.
  double crit_slowdown = 1.0;
  double link_factor = 1.0;
  double jitter_extra = 0.0;

  double scatter_bytes_total = 0;  ///< data moved per step, all procs
  /// "Application level effective bandwidth per node" (Table 3's last
  /// column): data each node moved / time it spent in scatters.
  double effective_bw_per_node_mbs = 0;
  double flops_total = 0;  ///< all procs, per step
  [[nodiscard]] double gflops() const {
    return total() > 0 ? flops_total / total() * 1e-9 : 0;
  }
};

/// Threading mode of a node (Table 5).
enum class NodeMode {
  kMpi1,       ///< 1 MPI rank per node, second CPU idle
  kMpi2,       ///< 2 MPI ranks per node (decomposition has 2x parts)
  kHybridOmp2, ///< 1 rank per node, 2 OpenMP threads in the flux phase
};

/// Speed of a CRC pass as a fraction of memory bandwidth: the checksum
/// tax of the lossy-interconnect model and of buddy checkpoint transfers.
inline constexpr double kChecksumBwFraction = 0.5;

/// Reliability model of the interconnect: every halo-exchange and
/// reduction message carries a CRC (a per-message checksum tax on both
/// sides); a corrupted message — one FaultSite::kMessage opportunity per
/// scatter/reduction operation — is detected on receive and
/// retransmitted after an exponential backoff (doubling up to a cap; both
/// are constants in stepmodel.cpp), each retry drawing again at the same
/// site until it passes or `max_retries` is spent. The retry latency is
/// charged to StepBreakdown::t_recovery.
struct CommReliability {
  /// Per message; all attempts charged. With the backoff capped, a
  /// pathological loss rate (or a huge max_retries) charges at most
  /// max_retries * (backoff cap + resend) per episode instead of growing
  /// geometrically without bound.
  int max_retries = 4;
  /// Hard clamp on the retransmit/timeout recovery time charged to one
  /// step's StepBreakdown::t_recovery by the comm model (the campaign
  /// driver's rework/restore charges land on top and are not clamped).
  double step_recovery_cap_s = 30.0;
  /// Fail-slow mitigation rung 1: a halo send whose modeled transfer time
  /// on a degraded link exceeds this timeout is cancelled and re-posted on
  /// the fallback path (secondary NIC / alternate route) at healthy
  /// bandwidth, after a capped exponential backoff charged to t_recovery.
  /// 0 disables the timeout — the sender waits out the sick link.
  double halo_timeout_us = 0.0;
};

/// Model one pseudo-timestep. `load.procs` is the number of MPI ranks
/// (for kMpi2 that is 2x the node count). A non-null `comm` enables the
/// lossy-interconnect model (messages only corrupt when an injector arms
/// FaultSite::kMessage; the checksum tax applies regardless). A non-null
/// `perturb` applies a fail-slow perturbation (slow ranks, degraded
/// links, transient jitter) to the alpha-beta model.
StepBreakdown model_step(const perf::MachineModel& machine,
                         const PartitionLoad& load,
                         const WorkCoefficients& work, const StepCounts& counts,
                         NodeMode mode = NodeMode::kMpi1,
                         const CommReliability* comm = nullptr,
                         const StepPerturbation* perturb = nullptr);

/// Model only the flux (function-evaluation) phase — Table 5's object.
double model_flux_phase(const perf::MachineModel& machine,
                        const PartitionLoad& load,
                        const WorkCoefficients& work, NodeMode mode);

/// Aggregate model of a full psi-NKS solve: one StepCounts entry per
/// pseudo-timestep (e.g. taken from a real run's history, where early
/// steps solve easy systems and later steps at high CFL need more
/// iterations). Sums the per-step breakdowns.
struct SolveSimulation {
  double total_seconds = 0;
  std::vector<double> step_seconds;
  StepBreakdown aggregate;  ///< phase times summed over steps
  int straggler_steps = 0;  ///< steps stretched by an injected slow rank

  /// Fold one modeled step into the totals (used by simulate_solve and by
  /// the campaign driver, whose load changes between steps).
  void add_step(const StepBreakdown& b);
  /// Recompute the aggregate effective bandwidth for `procs` processors.
  void finalize(int procs);
};
SolveSimulation simulate_solve(const perf::MachineModel& machine,
                               const PartitionLoad& load,
                               const WorkCoefficients& work,
                               const std::vector<StepCounts>& steps,
                               NodeMode mode = NodeMode::kMpi1,
                               const CommReliability* comm = nullptr);

/// The paper's efficiency decomposition (Table 3):
///   eta_overall = (T0 * P0) / (T * P),  eta_alg = its0 / its,
///   eta_impl = eta_overall / eta_alg.
struct ScalingPoint {
  int procs = 0;
  double its = 0;       ///< linear iterations per step (or total)
  double time = 0;      ///< execution time
};
struct EfficiencyRow {
  int procs = 0;
  double speedup = 0;
  double eta_overall = 0;
  double eta_alg = 0;
  double eta_impl = 0;
};
std::vector<EfficiencyRow> efficiency_decomposition(
    const std::vector<ScalingPoint>& points);

}  // namespace f3d::par
