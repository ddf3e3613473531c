#include "solver/newton.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "guard/watchdog.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/checkpoint.hpp"
#include "sparse/abft.hpp"
#include "sparse/vec.hpp"

namespace f3d::solver {

namespace {

using resilience::RecoveryAction;

// --- fixed ladder constants ---------------------------------------------
// No caller tunes these, so they are constants rather than options.

// Newton: one inexact correction per pseudo-timestep, globalized by a
// backtracking line search (§2.4's "line search" knob).
constexpr double kFdEps = 1e-7;    ///< relative FD step of the matrix-free action
constexpr int kMaxLineSearch = 3;  ///< line-search halvings (0 = plain Newton)

// Recovery ladder: step rejection.
constexpr int kMaxStepRetries = 6;         ///< attempts per pseudo-timestep
constexpr double kCflBacktrack = 0.25;     ///< CFL multiplier on a rejected step
constexpr double kCflRegrow = 2.0;         ///< relaxation recovery per accepted step
constexpr double kDivergenceFactor = 1e3;  ///< reject if ||r|| grows past this factor
/// Rungs of the preconditioner's zero-pivot shift ladder (x10 each).
constexpr int kPivotShiftAttempts = 8;

// SDC guards: PtcSdcOptions::enabled turns all of them on (the ABFT
// rounding-bound slack is sparse::AbftGuard's own default).
constexpr double kKrylovDriftTol = 1e-2;  ///< GmresOptions::sdc_drift_tol
/// Recompute-and-verify attempts per step before rolling back to the last
/// verified state.
constexpr int kMaxRecompute = 1;

// Degradation rungs: the budget pressure each fires at, and how far it
// loosens or shrinks.
constexpr double kDegradeLoosenAt = 0.35;    ///< loosen the linear tolerance
constexpr double kDegradeFreezeAt = 0.55;    ///< stop Jacobian/prec refreshes
constexpr double kDegradeShrinkAt = 0.75;    ///< shrink the Krylov effort
constexpr double kDegradeRtolFactor = 10.0;  ///< linear-rtol multiplier for the loosen rung
constexpr double kDegradeRtolMax = 0.3;      ///< cap on the loosened linear rtol
constexpr int kDegradeRestartMin = 8;        ///< floor for the shrunk GMRES restart
constexpr int kDegradeKrylovItersMin = 10;   ///< floor for the shrunk per-solve iterations

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// How one attempt at a pseudo-timestep ended.
enum class StepOutcome {
  kAccepted,     ///< x and rnorm hold the new state
  kNumericFail,  ///< non-finite values, divergence, or a singular factor
  kSdc,          ///< an SDC guard fired
  kGuardTrip,    ///< budget or cancel trip; x is untouched
};

/// What the recovery, SDC and degradation ladders carry across attempts
/// and steps. A checkpoint saves cfl_relax, linear.gmres.restart and
/// linear.method.
struct Ladder {
  double cfl_relax = 1.0;      ///< CFL backtrack multiplier (1 = no backtrack)
  bool force_refresh = false;  ///< rebuild the preconditioner next attempt
  KrylovLadder linear;         ///< Krylov settings after escalation/degradation
  int jacobian_refresh = 1;    ///< refresh cadence (the freeze rung stops it)
  int sdc_recomputes = 0;      ///< recompute rungs taken at the current step
  bool loosened = false, frozen = false, shrunk = false;  ///< degrade rungs fired
};

/// One psi-NKS solve: the plain pseudo-timestep (attempt_step) and the
/// ladders that map a failed attempt's outcome to an action.
struct Solve {
  Solve(NonlinearProblem& p, std::vector<double>& x0, const PtcOptions& o);
  PtcResult run();

  // Around the steps.
  void start();
  bool restore();
  bool take_step(int step, PtcStepRecord& rec);
  bool commit(int step, PtcStepRecord& rec);
  void checkpoint(int step);
  PtcResult finish();

  // The plain step: SER CFL -> Newton -> Krylov -> line search.
  StepOutcome attempt_step(int step, double cfl, PtcStepRecord& rec);
  bool refresh_preconditioner(int step, const std::vector<double>& diag);
  LinearOperator jacobian_operator(const std::vector<double>& diag,
                                   double xnorm, bool& abft_failed);
  void line_search(const std::vector<double>& diag, PtcStepRecord& rec);
  bool eval_residual(const std::vector<double>& xx, std::vector<double>& rr,
                     const char* what);

  // Ladders.
  void degrade(int step);
  void verify_entry_state(int step);
  void reject(int step, int attempt, PtcStepRecord& rec);
  void backtrack(int step);
  void recompute_or_rollback(int step, int attempt);
  void rollback(int step);
  void detect_sdc(const std::string& what);

  /// Outcome of an attempt that stopped early: a guard trip outranks
  /// every detection, and an SDC detection outranks a numerical failure
  /// seen in the same attempt.
  [[nodiscard]] StepOutcome failed() const {
    if (tripped()) return StepOutcome::kGuardTrip;
    return sdc_flagged ? StepOutcome::kSdc : StepOutcome::kNumericFail;
  }
  [[nodiscard]] bool tripped() const {
    return sguard.tripped() != guard::TripReason::kNone;
  }
  /// Budget charge with immediate honor: the throw lands in run()'s
  /// guard-exit handler before any of the charged work starts. So every
  /// trip either unwinds to that handler or fails the attempt through
  /// tripped(), and a tripped guard at finish() means a guard exit.
  void charge(long long units) {
    if (sguard.charge(units) != guard::TripReason::kNone)
      throw guard::CancelledError(sguard.tripped());
  }
  void record(int step, RecoveryAction action, std::string detail) {
    result.recovery_log.add(step, action, std::move(detail));
  }

  NonlinearProblem& problem;
  std::vector<double>& x;
  const PtcOptions& opts;
  const int n, nb, nv;
  const bool resilient;   ///< recovery ladder on; else failures throw
  const bool sdc_on;      ///< SDC guards on
  const bool mat_single;  ///< Krylov products read a float-storage copy
  /// Nothing but the one ILU factor reads A: it is assembled straight
  /// into the factor and never stored.
  const bool in_place;
  // Registered for the duration of the solve so the instrumented sites
  // deep in the stack (ILU factorization, Krylov inner loops) see the
  // injector without threading it through every signature.
  resilience::InjectorScope injector_scope;
  // Run-to-completion contract: the guard is always constructed (an
  // unbounded budget never trips, so the plain path is unchanged) and
  // registered so the Krylov iterations charge it and exec chunk
  // boundaries, Schwarz subdomain loops, and the cfd kernels can poll it.
  guard::SolveGuard sguard;
  guard::GuardScope guard_scope;
  guard::ProgressWatchdog stall_watchdog;

  PtcResult result;
  std::vector<double> r, g0, rhs, dx, scale, work, xw;
  Ladder lad;
  sparse::AbftGuard abft_guard;
  bool nan_seen = false;     ///< this attempt saw a non-finite residual
  bool sdc_flagged = false;  ///< this attempt tripped an SDC guard
  int cur_step = 0;
  int start_step = 0;
  double rnorm = 0, r0 = 1.0;
  // Best committed iterate: the state every guard exit restores and
  // returns, and the SDC rollback target. Updated only when x is set to
  // an accepted state that passed every active guard, so for
  // deterministic trips (work budget, armed cancel) the returned state is
  // bit-identical at any thread count.
  std::vector<double> x_commit;
  double rnorm_commit = std::numeric_limits<double>::infinity();
  // Step-entry iterate: a rejected attempt restores it exactly.
  std::vector<double> x_step;
  double rnorm_step = 0;
  // Jacobian + Schwarz preconditioner, built lazily on the first step.
  // jac_f is the float-storage copy the Krylov products read in
  // mixed-precision mode (refreshed with jac); the preconditioner keeps
  // factoring from the double assembly. In place, jac holds A's sparsity
  // and no values.
  sparse::Bcsr<double> jac;
  sparse::Bcsr<float> jac_f;
  part::Partition partition;
  std::unique_ptr<SchwarzPreconditioner> prec;
};

Solve::Solve(NonlinearProblem& p, std::vector<double>& x0, const PtcOptions& o)
    : problem(p),
      x(x0),
      opts(o),
      n(p.num_unknowns()),
      nb(p.nb()),
      nv(p.num_vertices()),
      resilient(o.recovery.enabled),
      sdc_on(o.sdc.enabled),
      mat_single(o.matrix_single_precision && !o.matrix_free),
      in_place(o.matrix_free && SchwarzPreconditioner::assembles_in_place(
                                    o.schwarz, o.num_subdomains)),
      injector_scope(o.fault_injector),
      sguard(o.guard.budget),
      guard_scope(&sguard),
      stall_watchdog(o.guard.watchdog),
      r(n), g0(n), rhs(n), dx(n), scale(nv), work(n), xw(n),
      x_commit(x0) {
  F3D_CHECK(static_cast<int>(x.size()) == n);
  F3D_CHECK(opts.num_subdomains >= 1);
  lad.linear.gmres = opts.gmres;
  if (sdc_on) lad.linear.gmres.sdc_drift_tol = kKrylovDriftTol;
  lad.linear.method = opts.krylov;
  lad.jacobian_refresh = opts.jacobian_refresh;
}

// The whole solve runs under the guard-exit handler: a CancelledError
// thrown from any charge or poll point (driver charges, exec chunk
// boundaries, Schwarz subdomain loops, cfd kernel entries) unwinds to it,
// the best committed state is restored, and the exit is mapped onto the
// verdict taxonomy — never propagated to the caller. A NumericalError
// (plain-path abort, exhausted recovery ladder) does propagate.
PtcResult Solve::run() {
  try {
    start();
    for (int step = start_step; step < opts.max_steps && rnorm / r0 > opts.rtol;
         ++step) {
      cur_step = step;
      degrade(step);
      problem.on_step(step, rnorm / r0);
      // SDC site: a silent flip in the committed state vector. Deliberately
      // before the entry scan and the rejection snapshot: the corruption
      // is persistent (recompute retries restart from the same poisoned
      // snapshot), so only the rollback rung can clear it.
      resilience::maybe_flip(resilience::FlipTarget::kState, x.data(), n);
      verify_entry_state(step);
      PtcStepRecord rec;
      rec.step = step;
      if (!take_step(step, rec) || !commit(step, rec)) break;
    }
  } catch (const guard::CancelledError&) {
    // Thrown from a charge or poll point anywhere in the stack. The
    // in-flight attempt is discarded; the best committed iterate is the
    // contract's return value.
    x = x_commit;
    rnorm = rnorm_commit;
  }
  return finish();
}

// Entry state, restored from the checkpoint or freshly evaluated. It is
// the first committed iterate: a trip before any accepted step returns it
// unchanged.
void Solve::start() {
  const bool restored = restore();
  if (!restored) {
    // The initial evaluation may itself be hit by a (transient) injected
    // fault; re-evaluating is the only recovery available before any step
    // state exists.
    for (int attempt = 0;; ++attempt) {
      nan_seen = sdc_flagged = false;
      eval_residual(x, r, "initial residual");
      if (!nan_seen && !sdc_flagged) break;
      F3D_NUMERIC_CHECK_MSG(attempt < 3, "non-finite initial residual");
    }
    rnorm = sparse::norm2(r);
    result.initial_residual = rnorm;
    r0 = rnorm > 0 ? rnorm : 1.0;
  }
  x_commit = x;
  rnorm_commit = rnorm;

  jac = problem.allocate_jacobian();
  partition = opts.partition;
  if (partition.nparts == 0) {
    F3D_OBS_SPAN("partition");
    partition = part::kway_grow(graph_from_bcsr(jac), opts.num_subdomains);
  }
  F3D_CHECK(partition.nparts == opts.num_subdomains);
}

// Resumes from the recovery checkpoint when asked to and one loads.
bool Solve::restore() {
  const PtcRecoveryOptions& ro = opts.recovery;
  if (!resilient || !ro.resume || ro.checkpoint_path.empty()) return false;
  std::string source;
  auto ck =
      resilience::load_checkpoint_with_fallback(ro.checkpoint_path, &source);
  if (!ck) return false;
  F3D_CHECK_MSG(static_cast<int>(ck->x.size()) == n,
                "checkpoint state size mismatch");
  // The ranges a solve writes; r0 divides, and the ladder keeps cfl_relax
  // in (0, 1].
  F3D_CHECK_MSG(ck->step >= 0 && ck->step <= std::numeric_limits<int>::max() &&
                    ck->function_evaluations >= 0 &&
                    ck->total_linear_iterations >= 0 && ck->r0 > 0 &&
                    std::isfinite(ck->r0) && ck->rnorm >= 0 &&
                    std::isfinite(ck->rnorm) && ck->cfl_relax > 0 &&
                    ck->cfl_relax <= 1,
                "checkpoint step, counter or continuation scalar out of range");
  F3D_CHECK_MSG(ck->krylov == static_cast<int>(KrylovMethod::kGmres) ||
                    ck->krylov == static_cast<int>(KrylovMethod::kBicgstab),
                "checkpoint names an unknown Krylov method");
  // 0 means unset; no rung of this solve writes more than this bound.
  F3D_CHECK_MSG(ck->gmres_restart >= 0 &&
                    ck->gmres_restart <=
                        std::max(opts.gmres.restart, kGmresRestartMax),
                "checkpoint GMRES restart length out of range");
  x = ck->x;
  start_step = static_cast<int>(ck->step);
  rnorm = ck->rnorm;
  r0 = ck->r0;
  lad.cfl_relax = ck->cfl_relax;
  // Steps and step index both start at 0 and commit() advances them
  // together, so the next step index is also the accepted-step count.
  result.steps = start_step;
  result.function_evaluations = ck->function_evaluations;
  result.total_linear_iterations = ck->total_linear_iterations;
  GmresOptions& go = lad.linear.gmres;
  if (ck->gmres_restart > 0) {
    go.restart = ck->gmres_restart;
    // The checkpoint stores the restart length alone. The escalation rung,
    // the only one that grows it, also keeps max_iters >= restart.
    if (go.restart > opts.gmres.restart)
      go.max_iters = std::max(go.max_iters, go.restart);
  }
  lad.linear.method = static_cast<KrylovMethod>(ck->krylov);
  result.recovery_log = ck->log;
  if (ck->injector && opts.fault_injector != nullptr)
    opts.fault_injector->restore(*ck->injector);
  result.initial_residual = r0;
  record(start_step, RecoveryAction::kResume, "restored from " + source);
  return true;
}

// Attempts pseudo-timestep `step` until one attempt is accepted; each
// failed attempt goes to the ladder its outcome selects. Returns false on
// a guard trip, which outranks the ladders (and the plain-path abort, so
// a budget trip works with recovery disabled too). The tripped attempt
// stopped before its line search, so x still holds the committed state.
bool Solve::take_step(int step, PtcStepRecord& rec) {
  x_step = x;
  rnorm_step = rnorm;
  lad.sdc_recomputes = 0;
  for (int attempt = 0;; ++attempt) {
    nan_seen = sdc_flagged = false;
    // SER continuation, scaled by the ladder's backtrack multiplier.
    const double cfl = std::min(
        opts.cfl_max,
        opts.cfl0 * std::pow(r0 / rnorm, opts.ser_exponent) * lad.cfl_relax);
    rec.cfl = cfl;
    const StepOutcome outcome = attempt_step(step, cfl, rec);
    if (outcome == StepOutcome::kAccepted) return true;
    if (outcome == StepOutcome::kGuardTrip) return false;
    reject(step, attempt, rec);
    if (outcome == StepOutcome::kSdc)
      recompute_or_rollback(step, attempt);
    else
      backtrack(step);
  }
}

// The accepted state becomes the committed iterate. Returns false when
// the progress watchdog ends the solve.
bool Solve::commit(int step, PtcStepRecord& rec) {
  rec.residual = rnorm;
  result.history.push_back(rec);
  ++result.steps;
  // Let the CFL relaxation recover toward 1 after accepted steps.
  if (resilient && lad.cfl_relax < 1.0)
    lad.cfl_relax = std::min(1.0, lad.cfl_relax * kCflRegrow);
  if (resilient && !opts.recovery.checkpoint_path.empty()) checkpoint(step);
  x_commit = x;
  rnorm_commit = rnorm;

  // Progress watchdog over accepted-step residuals: a window that ends no
  // lower than stall_ratio x where it began is a livelock-style stall the
  // per-rung watchdogs cannot see (every individual step looks healthy).
  // Deterministic — no wall clock involved.
  if (!stall_watchdog.observe(rnorm)) return true;
  record(step, RecoveryAction::kDetectStall,
         "residual stalled across " + std::to_string(guard::kWatchdogWindow) +
             " accepted step(s)");
  return false;
}

void Solve::checkpoint(int step) {
  F3D_OBS_SPAN("checkpoint");
  resilience::PtcCheckpoint ck;
  ck.step = step + 1;
  ck.x = x;
  ck.rnorm = rnorm;
  ck.r0 = r0;
  ck.cfl_relax = lad.cfl_relax;
  ck.function_evaluations = result.function_evaluations;
  ck.total_linear_iterations = result.total_linear_iterations;
  ck.gmres_restart = lad.linear.gmres.restart;
  ck.krylov = static_cast<std::int32_t>(lad.linear.method);
  if (opts.fault_injector != nullptr)
    ck.injector = opts.fault_injector->state();
  ck.log = result.recovery_log;
  const std::string& path = opts.recovery.checkpoint_path;
  if (resilience::save_checkpoint(path, ck))
    record(step, RecoveryAction::kCheckpointWrite, path);
}

// Exit taxonomy + quality grade. disarm() first: the grading scan below
// may fan out on the exec pool, whose poll points must not cancel the
// exit path itself.
PtcResult Solve::finish() {
  sguard.disarm();
  result.final_residual = rnorm;
  result.converged = rnorm / r0 <= opts.rtol;
  result.work_units = sguard.work_units();
  result.trip = sguard.tripped();
  result.cancel_latency_units = sguard.latency_units();
  if (result.trip != guard::TripReason::kNone)
    record(cur_step, RecoveryAction::kGuardTrip,
           std::string(guard::trip_reason_name(result.trip)) + " after " +
               std::to_string(result.work_units) + " work unit(s)");

  if (result.converged)
    result.verdict = guard::SolveVerdict::kConverged;
  else if (result.recovery_log.count(RecoveryAction::kDetectStall) > 0)
    result.verdict = guard::SolveVerdict::kStagnated;
  else if (result.trip == guard::TripReason::kCancelled)
    result.verdict = guard::SolveVerdict::kCancelled;
  else if (result.trip != guard::TripReason::kNone)
    result.verdict = guard::SolveVerdict::kDeadline;
  else
    result.verdict = guard::SolveVerdict::kMaxIters;

  result.residual_drop_orders =
      (r0 > 0 && rnorm > 0 && std::isfinite(rnorm)) ? std::log10(r0 / rnorm)
                                                    : 0.0;
  {
    F3D_OBS_SPAN("admissibility");
    result.best_state_admissible = problem.admissible(x);
  }
  return std::move(result);
}

// --- the plain step -----------------------------------------------------

// One attempt at pseudo-timestep `step`: one inexact Newton correction of
// g(x) = r(x) + D (x - x_step), solved by Schwarz-preconditioned Krylov
// and globalized by a line search. The plain path throws where it detects
// a failure; the resilient path returns the outcome instead.
StepOutcome Solve::attempt_step(int step, double cfl, PtcStepRecord& rec) {
  // D = diag over vertices of V_i / dt_i; with dt_i = cfl * V_i / sr_i
  // this is sr_i / cfl = V_i / (cfl * scale_i).
  charge(guard::kUnitsResidual);
  problem.timestep_scale(x, scale);
  ++result.function_evaluations;  // spectral radius pass ~ a flux pass
  std::vector<double> vols;
  problem.cell_volumes(vols);
  std::vector<double> diag(nv);
  for (int v = 0; v < nv; ++v) {
    F3D_CHECK(scale[v] > 0 && vols[v] > 0);
    diag[v] = vols[v] / (cfl * scale[v]);
  }

  // At the Newton iterate x = x_step the pseudo-time term vanishes, so
  // g(x) = r(x).
  if (!eval_residual(x, g0, "newton rhs")) return failed();
  if ((!prec || lad.force_refresh ||
       (step % std::max(1, lad.jacobian_refresh)) == 0) &&
      !refresh_preconditioner(step, diag))
    return failed();

  const double xnorm = sparse::norm2(x);
  bool abft_failed = false;
  const LinearOperator op = jacobian_operator(diag, xnorm, abft_failed);
  // J dx = -g through the Krylov escalation ladder, whose rungs only the
  // resilient path climbs.
  for (int i = 0; i < n; ++i) rhs[i] = -g0[i];
  const KrylovResult lin =
      krylov_solve(op, *prec, rhs, dx, lad.linear,
                   resilient ? &result.recovery_log : nullptr, step);
  rec.linear_iterations += lin.iterations;
  rec.linear_converged = lin.converged;
  rec.linear_breakdown = rec.linear_breakdown || lin.breakdown;
  rec.linear_stagnated = rec.linear_stagnated || lin.stagnated;
  result.total_linear_iterations += lin.iterations;
  result.counters += lin.counters;
  // One ladder call breaks down at most once: its method swap is the
  // only way past a breakdown, and it swaps at most once.
  if (lin.breakdown) ++result.krylov_breakdowns;
  // A trip inside the Krylov solve abandons the attempt before the line
  // search touches x.
  if (tripped() || nan_seen) return failed();
  if (sdc_on && (abft_failed || lin.sdc_suspected)) {
    detect_sdc(abft_failed ? "ABFT checksum violation in assembled SpMV"
                           : "Krylov recurrence/true-residual drift");
    return failed();
  }
  // A residual-checksum detection inside a matrix-free action lands here
  // (the operator returns a null action instead of failing).
  if (sdc_flagged) return failed();
  if (resilient && !all_finite(dx)) {
    record(step, RecoveryAction::kDetectDivergence,
           "non-finite Newton correction");
    return failed();
  }
  line_search(diag, rec);
  if (nan_seen || sdc_flagged) return failed();

  if (!eval_residual(x, r, "step residual")) return failed();
  const double rnorm_new = sparse::norm2(r);
  if (!std::isfinite(rnorm_new)) {
    F3D_NUMERIC_CHECK_MSG(resilient, "psi-NKS diverged (NaN residual)");
    record(step, RecoveryAction::kDetectNanResidual,
           "non-finite step residual norm");
    return failed();
  }
  if (resilient && rnorm_new > kDivergenceFactor * rnorm_step) {
    record(step, RecoveryAction::kDetectDivergence,
           "||r|| grew " + std::to_string(rnorm_new / rnorm_step) + "x");
    return failed();
  }
  // Numerical health watchdog: the step is numerically fine — is the state
  // physically possible? (Finite wrong values from a bit flip pass every
  // norm test above.)
  if (sdc_on) {
    bool ok;
    {
      F3D_OBS_SPAN("admissibility");
      ok = problem.admissible(x);
    }
    if (!ok) {
      detect_sdc("physically inadmissible state after step");
      return failed();
    }
  }
  rnorm = rnorm_new;
  return StepOutcome::kAccepted;
}

// Assembles the analytic first-order Jacobian plus the pseudo-time
// diagonal and builds or refactors the preconditioner from it: into jac,
// or, in place, into the factor's own storage. The plain path aborts on a
// singular factorization and on a disabled coarse level; the resilient
// path climbs the shift ladder, logs its rungs, and returns false on a
// singular factorization the ladder could not absorb.
bool Solve::refresh_preconditioner(int step, const std::vector<double>& diag) {
  charge(guard::kUnitsJacobian);
  // In place, the factor calls this once per build or refresh and once
  // more per shift-ladder rung, as A is gone: a rung's assembly re-applies
  // this refresh's flip to the same values and charges nothing.
  long long flipped = -1;
  bool assembled = false;
  const sparse::BlockAssembler assemble = [&](sparse::Bcsr<double>& m) {
    {
      F3D_OBS_SPAN("jacobian");
      problem.jacobian(x, m);
    }
    for (int v = 0; v < nv; ++v) {
      double* blk = m.find_block(v, v);
      F3D_CHECK(blk != nullptr);
      for (int c = 0; c < nb; ++c) blk[c * nb + c] += diag[v];
    }
    if (assembled) {
      if (flipped >= 0)
        m.val[flipped] = resilience::flip_bit(
            m.val[flipped], resilience::active_injector()->bit_flip().bit);
      return;
    }
    assembled = true;
    if (mat_single) jac_f = m.convert<float>();
    // ABFT checksums are a function of the values just assembled: rebuild
    // here, and only here — any flip landing after this point is exactly
    // what verify_spmv exists to catch. The guard checksums the matrix the
    // operator actually multiplies with (rebuild widens the bound to
    // FLT_EPSILON for the float copy).
    if (sdc_on && !opts.matrix_free) {
      if (mat_single)
        sparse::rebuild(abft_guard, jac_f);
      else
        sparse::rebuild(abft_guard, m);
    }
    // SDC site: a silent flip in the assembled operator (after the checksum
    // rebuild, so ABFT is the guard on the hook; with matrix_free on, the
    // flip only degrades the preconditioner — a measured escape path).
    // Strikes the storage the Krylov products read, or in place the
    // factor's values before the kFactorPivot draw.
    if (mat_single)
      resilience::maybe_flip(resilience::FlipTarget::kMatrix, jac_f.val.data(),
                             static_cast<long long>(jac_f.val.size()));
    else
      flipped = resilience::maybe_flip(resilience::FlipTarget::kMatrix,
                                       m.val.data(),
                                       static_cast<long long>(m.val.size()));
    charge(guard::kUnitsFactor);
  };
  if (!in_place) assemble(jac);

  F3D_OBS_SPAN("factor");
  const int shift_attempts = resilient ? kPivotShiftAttempts : 0;
  resilience::FactorReport report;
  if (prec) {
    report = in_place ? prec->refactor(assemble, shift_attempts)
                      : prec->refactor(jac, shift_attempts);
  } else {
    // The first build factors in the constructor, which throws on a
    // singular factorization.
    try {
      prec = in_place ? std::make_unique<SchwarzPreconditioner>(
                            jac, opts.schwarz, assemble)
                      : std::make_unique<SchwarzPreconditioner>(
                            jac, partition, opts.schwarz);
    } catch (const NumericalError& e) {
      if (!resilient) throw;
      record(step, RecoveryAction::kDetectSingularFactor, e.what());
      return false;
    }
  }
  F3D_NUMERIC_CHECK_MSG(resilient || (report.ok && !report.coarse_disabled),
                        report.detail);
  if (report.shift_attempts > 0) {
    record(step, RecoveryAction::kDetectSingularFactor,
           "zero pivot in preconditioner refresh");
    char shift_buf[32];
    std::snprintf(shift_buf, sizeof shift_buf, "%.3g", report.shift_used);
    record(step, RecoveryAction::kPivotShift,
           "shift=" + std::string(shift_buf) + " after " +
               std::to_string(report.shift_attempts) + " rung(s)");
  }
  if (report.coarse_disabled)
    record(step, RecoveryAction::kCoarseDisabled, report.detail);
  if (!report.ok) {
    record(step, RecoveryAction::kDetectSingularFactor,
           "shift ladder exhausted: " + report.detail);
    return false;
  }
  lad.force_refresh = false;
  return true;
}

// The action of J_g = dr/dx + D: finite differences of the residual
// (matrix-free), or the assembled first-order Jacobian, which carries D
// from the refresh (the float-storage copy in mixed-precision mode, with
// double accumulation). With the ABFT guard built, every assembled
// product is checksum-verified (an O(n) add-on to the O(nnz) product) and
// a violation sets `abft_failed`.
LinearOperator Solve::jacobian_operator(const std::vector<double>& diag,
                                        double xnorm, bool& abft_failed) {
  LinearOperator op;
  op.n = n;
  if (!opts.matrix_free) {
    op.apply = [this, &abft_failed](const double* v, double* y) {
      if (mat_single)
        jac_f.spmv(v, y);
      else
        jac.spmv(v, y);
      if (sdc_on && abft_guard.valid() &&
          !sparse::verify_spmv(abft_guard, v, y, n))
        abft_failed = true;
    };
    return op;
  }
  op.apply = [this, &diag, xnorm](const double* v, double* y) {
    double vnorm = 0;
    for (int i = 0; i < n; ++i) vnorm += v[i] * v[i];
    vnorm = std::sqrt(vnorm);
    if (vnorm == 0) {
      std::fill(y, y + n, 0.0);
      return;
    }
    const double eps = kFdEps * (1.0 + xnorm) / vnorm;
    for (int i = 0; i < n; ++i) xw[i] = x[i] + eps * v[i];
    if (!eval_residual(xw, work, "matrix-free action")) {
      // Corrupted evaluation: return a null action. The attempt's flags
      // already fail it; keep the Krylov arithmetic finite on the way down.
      std::fill(y, y + n, 0.0);
      return;
    }
    for (int i = 0; i < n; ++i) y[i] = (work[i] - g0[i]) / eps;
    for (int vtx = 0; vtx < nv; ++vtx)
      for (int c = 0; c < nb; ++c)
        y[static_cast<std::size_t>(vtx) * nb + c] +=
            diag[vtx] * v[static_cast<std::size_t>(vtx) * nb + c];
  };
  return op;
}

// Backtracking line search on ||g||; g at a trial x' keeps the same
// pseudo-time anchor. The last trial is taken whatever its norm. A
// corrupted trial evaluation fails the attempt afterwards, through the
// attempt flags.
void Solve::line_search(const std::vector<double>& diag, PtcStepRecord& rec) {
  double lambda = 1.0;
  const double gnorm0 = sparse::norm2(g0);
  for (int ls = 0; ls <= kMaxLineSearch; ++ls) {
    for (int i = 0; i < n; ++i) xw[i] = x[i] + lambda * dx[i];
    eval_residual(xw, work, "line search");
    for (int vtx = 0; vtx < nv; ++vtx)
      for (int c = 0; c < nb; ++c) {
        const std::size_t k = static_cast<std::size_t>(vtx) * nb + c;
        work[k] += diag[vtx] * (xw[k] - x[k]);
      }
    const double gnorm = sparse::norm2(work);
    if (gnorm <= (1.0 - 1e-4 * lambda) * gnorm0 || ls == kMaxLineSearch) {
      x = xw;
      rec.line_search_lambda = lambda;
      return;
    }
    lambda *= 0.5;
  }
}

// Every driver-side residual evaluation comes through here: it charges
// the budget, counts, hosts the NaN/Inf fault-injection site and the
// transport checksum, and detects non-finite output. The plain path
// aborts on corruption exactly where it happens; the resilient path notes
// it in the attempt flags and returns false.
bool Solve::eval_residual(const std::vector<double>& xx,
                          std::vector<double>& rr, const char* what) {
  // Charged before any work, so cancellation latency is zero extra units
  // at every residual-class charge point, whether or not the problem's
  // kernels have their own poll points.
  charge(guard::kUnitsResidual);
  {
    F3D_OBS_SPAN("flux");
    problem.residual(xx, rr);
  }
  ++result.function_evaluations;
  if (resilience::fault_fires(resilience::FaultSite::kResidual)) {
    const auto* inj = resilience::active_injector();
    rr[0] = (inj->fires(resilience::FaultSite::kResidual) % 2 == 0)
                ? std::numeric_limits<double>::infinity()
                : std::numeric_limits<double>::quiet_NaN();
  }
  // Transport checksum over the freshly evaluated residual. Both sums run
  // the same serial order over the same memory, so on a clean path they
  // are bit-identical — zero false positives by construction. A flip
  // whose contribution is swallowed by summation rounding (low mantissa
  // bits) stays invisible: that is the measured escape class.
  double sum_before = 0;
  if (sdc_on)
    for (int i = 0; i < n; ++i) sum_before += rr[i];
  // SDC site: a silent finite flip in the freshly evaluated residual —
  // transient corruption (the recompute-and-verify rung clears it).
  resilience::maybe_flip(resilience::FlipTarget::kResidual, rr.data(), n);
  const bool finite = all_finite(rr);
  if (!finite) {
    nan_seen = true;
    if (resilient)
      record(cur_step, RecoveryAction::kDetectNanResidual, what);
    else
      F3D_NUMERIC_CHECK_MSG(finite, std::string("non-finite residual (") +
                                        what + ")");
    return false;
  }
  if (sdc_on && std::isfinite(sum_before)) {
    double sum_after = 0;
    for (int i = 0; i < n; ++i) sum_after += rr[i];
    if (sum_after != sum_before) {
      detect_sdc(std::string("residual transport checksum mismatch (") +
                 what + ")");
      return false;
    }
  }
  return true;
}

// --- ladders ------------------------------------------------------------

// Graceful degradation under budget pressure: trade accuracy for on-time
// completion instead of overrunning. Each rung fires once and is logged;
// the final rung — early return of the best committed state — is the
// budget trip itself.
void Solve::degrade(int step) {
  if (!opts.guard.degrade || !opts.guard.budget.bounded()) return;
  const double pr = sguard.pressure();
  if (!lad.loosened && pr >= kDegradeLoosenAt) {
    lad.loosened = true;
    GmresOptions& go = lad.linear.gmres;
    go.rtol = std::min(kDegradeRtolMax, go.rtol * kDegradeRtolFactor);
    record(step, RecoveryAction::kDegradeRung,
           "loosen linear rtol -> " + std::to_string(go.rtol));
  }
  if (!lad.frozen && pr >= kDegradeFreezeAt) {
    lad.frozen = true;
    lad.jacobian_refresh = std::numeric_limits<int>::max();
    record(step, RecoveryAction::kDegradeRung,
           "freeze jacobian/preconditioner refresh");
  }
  if (!lad.shrunk && pr >= kDegradeShrinkAt) {
    lad.shrunk = true;
    GmresOptions& go = lad.linear.gmres;
    go.restart = std::max(kDegradeRestartMin, go.restart / 2);
    go.max_iters = std::max(kDegradeKrylovItersMin, go.max_iters / 2);
    record(step, RecoveryAction::kDegradeRung,
           "shrink krylov effort: restart -> " + std::to_string(go.restart) +
               ", max_iters -> " + std::to_string(go.max_iters));
  }
}

// Entry scan of the committed state. It must run BEFORE the Newton
// attempt: a corrupted-but-finite entry state is a legal (if terrible)
// initial guess, and Newton will often pull it back to an admissible
// commit — the flip would then silently cost extra iterations and a
// perturbed trajectory instead of being caught. Recompute cannot help (the
// committed vector itself is wrong), so detection goes straight to the
// rollback rung. Two guards stack here: the state must be byte-identical
// to the committed copy (nothing legitimate writes to x between steps),
// and it must be physically admissible (which also covers the very first
// step, where the committed copy is the unchecked initial state).
void Solve::verify_entry_state(int step) {
  if (!sdc_on) return;
  const bool mutated =
      std::memcmp(x.data(), x_commit.data(), sizeof(double) * x.size()) != 0;
  if (!mutated && problem.admissible(x)) return;
  detect_sdc(mutated ? "committed state changed between steps"
                     : "step-entry state is physically inadmissible");
  rollback(step);
}

// Every failed attempt: roll back to the step-entry state. The plain path
// only gets here through states it used to tolerate silently, so it keeps
// the historical abort.
void Solve::reject(int step, int attempt, PtcStepRecord& rec) {
  F3D_NUMERIC_CHECK_MSG(resilient, "psi-NKS diverged (NaN residual)");
  ++rec.rejections;
  x = x_step;
  rnorm = rnorm_step;
  record(step, RecoveryAction::kStepRejected,
         "attempt " + std::to_string(attempt + 1));
  F3D_NUMERIC_CHECK_MSG(
      attempt + 1 < kMaxStepRetries,
      "recovery ladder exhausted at step " + std::to_string(step));
}

// Numerical failure: shrink the pseudo-timestep and rebuild the
// preconditioner at the restored state.
void Solve::backtrack(int step) {
  lad.cfl_relax *= kCflBacktrack;
  record(step, RecoveryAction::kCflBacktrack,
         "cfl_relax=" + std::to_string(lad.cfl_relax));
  lad.force_refresh = true;
  record(step, RecoveryAction::kPrecRefresh, "forced by step rejection");
}

// SDC detection: the numerics were fine, the data was corrupt, so no CFL
// backtrack. force_refresh reassembles the Jacobian (and its checksums),
// which clears matrix corruption; a transient flip clears on recompute.
void Solve::recompute_or_rollback(int step, int attempt) {
  lad.force_refresh = true;
  if (lad.sdc_recomputes < kMaxRecompute) {
    ++lad.sdc_recomputes;
    record(step, RecoveryAction::kSdcRecompute,
           "reassemble and re-run attempt " + std::to_string(attempt + 1));
    return;
  }
  // Recompute didn't clear it: the step-entry state itself is corrupted.
  lad.sdc_recomputes = 0;
  rollback(step);
}

// Restores the committed state, the last one that passed every guard.
void Solve::rollback(int step) {
  x = x_commit;
  rnorm = rnorm_commit;
  record(step, RecoveryAction::kSdcRollback, "restored last verified state");
}

// Every SDC guard firing funnels through here: it either logs and hands
// the attempt to the ladder (resilient mode) or aborts.
void Solve::detect_sdc(const std::string& what) {
  F3D_NUMERIC_CHECK_MSG(resilient, "silent data corruption detected: " + what);
  record(cur_step, RecoveryAction::kDetectSdc, what);
  sdc_flagged = true;
}

}  // namespace

PtcResult ptc_solve(NonlinearProblem& problem, std::vector<double>& x,
                    const PtcOptions& opts) {
  PtcResult result;
  try {
    obs::Span root("ptc_solve");
    result = Solve(problem, x, opts).run();
  } catch (...) {
    // Abnormal exit (plain-path numerical abort, harness error): the
    // buffered spans and counters are exactly the postmortem evidence —
    // flush them before the exception leaves, or the trace dies with the
    // solve.
    obs::Registry::global().count("solver.ptc.aborts");
    obs::flush_env_trace();
    throw;
  }
  // Fold the solve's tallies into the process-wide registry so trace
  // files and bench reports can embed them next to the span timeline.
  // Ladder actions need no fold: RecoveryLog::add counts each one as
  // resilience.<action> when it happens.
  auto& reg = obs::Registry::global();
  reg.count("solver.ptc.steps", result.steps);
  reg.count("solver.ptc.function_evaluations", result.function_evaluations);
  reg.count("solver.krylov.iterations", result.total_linear_iterations);
  reg.count("solver.krylov.breakdowns", result.krylov_breakdowns);
  reg.count(std::string("guard.verdict.") +
            guard::verdict_name(result.verdict));
  if (result.cancel_latency_units > 0)
    reg.count("guard.cancel_latency_units", result.cancel_latency_units);
  // Writes the Chrome trace iff the F3D_TRACE environment variable asked
  // for one; a plain set_tracing(true) caller drains the tracer itself.
  obs::flush_env_trace();
  return result;
}

}  // namespace f3d::solver
