#pragma once
// Pseudo-transient Newton-Krylov-Schwarz (psi-NKS) — the paper's solution
// algorithm (§1.1, §2.4).
//
// Each pseudo-timestep l solves one inexact Newton correction of
//   g(x) = r(x) + D_l (x - x_l),   D_l = diag(V_i / dt_i) (x) I_nb,
// with dt_i = N_CFL^l * V_i / sr_i local timesteps and the SER power law
//   N_CFL^l = N_CFL^0 (||r(x_0)|| / ||r(x_{l-1})||)^p        (§2.4.1).
// The Jacobian action is matrix-free (FD of the residual; the paper: "the
// Jacobian itself is never explicitly needed"); the preconditioner is
// built from the analytic first-order Jacobian and refreshed at a
// configurable frequency (§2.4's "refresh frequency" knob).

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "guard/guard.hpp"
#include "partition/partition.hpp"
#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"
#include "solver/krylov.hpp"
#include "solver/precond.hpp"
#include "sparse/csr.hpp"

namespace f3d::tune {
class Registry;
}

namespace f3d::solver {

/// The nonlinear discretization the psi-NKS driver operates on. State
/// vectors are interlaced scalars of length num_vertices()*nb().
class NonlinearProblem {
public:
  virtual ~NonlinearProblem() = default;

  [[nodiscard]] virtual int num_vertices() const = 0;
  [[nodiscard]] virtual int nb() const = 0;
  [[nodiscard]] int num_unknowns() const { return num_vertices() * nb(); }

  /// Steady residual r(x).
  virtual void residual(const std::vector<double>& x,
                        std::vector<double>& r) = 0;

  /// Analytic first-order Jacobian for preconditioning.
  /// allocate_jacobian() returns its block sparsity (the stencil) with
  /// `val` empty. jacobian() fills any `jac` whose sparsity contains the
  /// stencil: it sizes jac.val to jac.nblocks() * nb()^2 (in place when it
  /// already has that size), writes the stencil's blocks and leaves the
  /// others +0.0. So the driver can assemble straight into an ILU factor's
  /// pattern, fill included, where nothing else reads A.
  [[nodiscard]] virtual sparse::Bcsr<double> allocate_jacobian() const = 0;
  virtual void jacobian(const std::vector<double>& x,
                        sparse::Bcsr<double>& jac) = 0;

  /// Per-vertex V_i / sr_i at state x (local timestep scale; the local
  /// pseudo-timestep is dt_i = N_CFL * V_i / sr_i).
  virtual void timestep_scale(const std::vector<double>& x,
                              std::vector<double>& vol_over_sr) = 0;

  /// Per-vertex dual control volumes V_i (the pseudo-time term of the
  /// implicit system is (V_i / dt_i) I = (sr_i / N_CFL) I).
  virtual void cell_volumes(std::vector<double>& vol) const = 0;

  /// Called at the start of each pseudo-timestep with the residual
  /// reduction so far; lets the problem switch discretization order etc.
  virtual void on_step(int step, double residual_ratio) {
    (void)step;
    (void)residual_ratio;
  }

  /// Physical-admissibility watchdog: is state x something the model could
  /// legitimately produce? Called after each accepted pseudo-timestep when
  /// the SDC guards are on. The base class only demands finiteness;
  /// physics problems override with real constraints (cfd::EulerProblem:
  /// positive density and pressure — see cfd/admissibility.hpp).
  [[nodiscard]] virtual bool admissible(const std::vector<double>& x) const {
    for (double v : x)
      if (!std::isfinite(v)) return false;
    return true;
  }
};

/// Knobs of the ψNKS breakdown recovery ladder (§2.4's safeguards, made
/// explicit). With `enabled == false` every numerical failure aborts via
/// an exception exactly as the plain driver always did; with it on, the
/// driver detects, recovers, logs, and keeps going:
///   NaN/diverged residual  -> reject the step, backtrack CFL, refresh prec
///                             (step rungs, newton.cpp)
///   Krylov breakdown       -> swap BiCGStab -> GMRES
///   GMRES stagnation       -> escalate the restart length; if escalation
///                             is exhausted, swap GMRES -> BiCGStab
///                             (krylov_solve, krylov.cpp)
///   zero pivot             -> escalating diagonal shift in the refactor
///                             (SchwarzPreconditioner, precond.cpp)
/// Each ladder's retry limits and factors are constants in its module.
struct PtcRecoveryOptions {
  bool enabled = false;

  // Checkpoint/restart (see resilience/checkpoint.hpp).
  std::string checkpoint_path;    ///< empty = no checkpointing; else one
                                  ///< write per accepted step
  bool resume = false;            ///< restore from checkpoint_path if present
};

/// Silent-data-corruption guards (detect finite wrong values no NaN check
/// can see) and the two ladder rungs that answer a detection. Requires
/// PtcRecoveryOptions::enabled — without the ladder a detection aborts
/// via NumericalError like every other plain-path failure.
///
/// Detection layers (all on once `enabled` is set; their tolerances are
/// constants in newton.cpp):
///  * ABFT checksum on every assembled-Jacobian SpMV (matrix_free=false
///    path only; see sparse/abft.hpp),
///  * Krylov invariant monitors (GMRES restart drift / BiCGStab periodic
///    true residual; see GmresOptions::sdc_drift_tol),
///  * NonlinearProblem::admissible() on each accepted step's state.
///
/// Recovery rungs, in escalation order:
///  1. recompute-and-verify: reject the step, force a Jacobian/checksum
///     rebuild, and re-run the attempt — clears transient flips (residual
///     or Krylov vectors) and matrix corruption;
///  2. rollback: restore the last state that passed every guard — the
///     only exit when the step-entry state itself is corrupted.
struct PtcSdcOptions {
  bool enabled = false;
};

/// Run-to-completion contract for one solve: budget + cancellation, the
/// livelock watchdog, and the degradation policy. Default-constructed =
/// unbounded, watchdog off, no degradation — byte-for-byte the historical
/// driver behavior.
struct PtcGuardOptions {
  guard::SolveBudget budget;  ///< deadline / work cap / cancel token
  /// Livelock-style stall detection (guard::ProgressWatchdog; its window
  /// and stall ratio are constants in guard/watchdog.hpp).
  bool watchdog = false;
  /// Graceful-degradation ladder: under budget pressure, trade accuracy
  /// for on-time completion instead of overrunning. Rungs fire once each,
  /// in order, as guard::SolveGuard::pressure() crosses their thresholds;
  /// the final rung — early-return the best committed state — is the
  /// budget trip itself. Every firing is logged as
  /// RecoveryAction::kDegradeRung. The thresholds and how far each rung
  /// loosens or shrinks are constants in newton.cpp.
  bool degrade = false;
};

struct PtcOptions {
  // Continuation (§2.4.1).
  double cfl0 = 10.0;      ///< initial CFL number
  double ser_exponent = 1.0;  ///< p in the SER power law (0.75 - 1.5)
  double cfl_max = 1e5;    ///< CFL cap (paper: CFL reaches 1e5)

  // Outer loop.
  int max_steps = 100;
  double rtol = 1e-8;      ///< steady residual reduction target

  // Krylov (§2.4.2).
  KrylovMethod krylov = KrylovMethod::kGmres;
  GmresOptions gmres{.rtol = 5e-3, .max_iters = 60, .restart = 20};

  // Schwarz (§2.4.3).
  SchwarzOptions schwarz{};
  int num_subdomains = 1;
  /// Partition supplied by the caller (e.g. from a specific partitioner
  /// for the Figure 4 experiment); if empty, kway_grow is used.
  part::Partition partition{};

  /// Rebuild+refactor the preconditioner every k pseudo-timesteps.
  int jacobian_refresh = 1;

  /// false = apply the *assembled* first-order Jacobian in GMRES instead
  /// of the matrix-free FD action. Cheaper per iteration but the Krylov
  /// operator is then only first-order accurate — the tradeoff behind the
  /// paper's matrix-free choice (ablated in bench_ablation_subsolver).
  bool matrix_free = true;

  /// With matrix_free == false: keep the Krylov operator's Jacobian in
  /// float storage (Bcsr<float>, arithmetic still double — the Table 2
  /// storage/accumulate split applied to the operator itself, halving its
  /// memory traffic). The ABFT guard, when on, checksums the float copy
  /// and widens its bound to FLT_EPSILON. Pair with
  /// schwarz.single_precision for float preconditioner factors too.
  bool matrix_single_precision = false;

  /// Breakdown recovery ladder + checkpoint/restart (off by default: the
  /// plain path aborts on numerical failure exactly as before).
  PtcRecoveryOptions recovery;

  /// Silent-data-corruption guards + recompute/rollback rungs (off by
  /// default; needs recovery.enabled for the recovery half).
  PtcSdcOptions sdc;

  /// Optional fault injector, registered process-wide for the duration of
  /// the solve (resilience test campaigns; see resilience/faults.hpp).
  resilience::FaultInjector* fault_injector = nullptr;

  /// Run-to-completion contract: budget, cancellation, stall watchdog,
  /// degradation ladder (defaults = unbounded, everything off).
  PtcGuardOptions guard;

  /// Register the driver's performance knobs (continuation, Krylov choice,
  /// refresh frequency, subdomain count, operator precision) plus the
  /// nested gmres/schwarz knobs into the flat tuning space under "ptc." /
  /// "gmres." / "schwarz." — see docs/TUNING.md.
  /// The registry borrows this struct: it must outlive the registry.
  void bind(tune::Registry& reg);
};

struct PtcStepRecord {
  int step = 0;
  double residual = 0;  ///< steady ||r(x)|| after the step
  double cfl = 0;
  int linear_iterations = 0;
  bool linear_converged = false;
  bool linear_breakdown = false;  ///< BiCGStab flagged rho/omega collapse
  bool linear_stagnated = false;  ///< GMRES stagnation watchdog fired
  int rejections = 0;             ///< attempts rolled back before acceptance
  double line_search_lambda = 1.0;
};

struct PtcResult {
  bool converged = false;
  int steps = 0;
  long long total_linear_iterations = 0;
  long long function_evaluations = 0;
  double initial_residual = 0;
  double final_residual = 0;
  std::vector<PtcStepRecord> history;
  SolveCounters counters;

  // Resilience bookkeeping. The recovery log is the one record of what
  // the ladders did: rejected steps, SDC detections and rungs, degrade
  // rungs, stalls and resumes are recovery_log.count(action). A resumed
  // solve restores the log, so its tallies span the kill like `steps`.
  resilience::RecoveryLog recovery_log;  ///< every detection/recovery action
  /// Breakdowns reported by the inner solver; the plain path keeps no log,
  /// so this is its only record of them.
  int krylov_breakdowns = 0;

  // Run-to-completion contract (f3d::guard). On any early exit x holds
  // the best committed iterate — the last accepted pseudo-timestep's
  // state, bit-identical at any thread count for deterministic trips.
  guard::SolveVerdict verdict = guard::SolveVerdict::kMaxIters;
  guard::TripReason trip = guard::TripReason::kNone;
  long long work_units = 0;           ///< deterministic cost-model total
  long long cancel_latency_units = 0; ///< units charged after the trip
  // Quality grade of the returned state.
  double residual_drop_orders = 0;    ///< log10(r0 / final_residual)
  bool best_state_admissible = true;  ///< admissibility scan of returned x
};

/// Run psi-NKS from initial state x (updated in place).
PtcResult ptc_solve(NonlinearProblem& problem, std::vector<double>& x,
                    const PtcOptions& opts);

}  // namespace f3d::solver
