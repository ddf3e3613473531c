#pragma once
// The Krylov layer behind one contract (§2.4.2): both methods take
// GmresOptions and return a KrylovResult.
//  * gmres: restarted GMRES(m) with right preconditioning — the paper's
//    Krylov solver (GMRES(20) in Table 4; the restart dimension is one of
//    the §2.4.2 tuning parameters, typical range 10-30).
//  * bicgstab: preconditioned BiCGSTAB, the short-recurrence alternative
//    PETSc offers for nonsymmetric systems. Constant memory (no Krylov
//    basis to store, cf. §2.4.2's "Krylov subspace dimension depends
//    largely on the problem size and the available memory"), two matvecs
//    and two preconditioner applies per iteration; convergence is less
//    monotone than GMRES but needs no restart tuning.
// krylov_solve runs either one under the escalation ladder that retries a
// failed solve (restart escalation, method swap).

#include <string>
#include <vector>

#include "resilience/recovery.hpp"
#include "solver/linear.hpp"

namespace f3d::tune {
class Registry;
}

namespace f3d::solver {

enum class Orthogonalization {
  kModifiedGramSchmidt,   ///< numerically robust default
  kClassicalGramSchmidt,  ///< fewer synchronization points (one fused
                          ///< reduction per iteration on a parallel
                          ///< machine) — the paper's "orthogonalization
                          ///< mechanism" tuning knob
};

/// Inner Krylov method. The values are stored in checkpoints and named by
/// the `ptc.krylov` knob.
enum class KrylovMethod { kGmres = 0, kBicgstab = 1 };

/// Options of both methods. BiCGStab reads rtol, max_iters and
/// sdc_drift_tol; restart and orth are GMRES-only.
struct GmresOptions {
  double rtol = 1e-3;       ///< relative residual tolerance
  int max_iters = 200;      ///< total Krylov iterations across restarts
  int restart = 20;         ///< Krylov subspace dimension
  Orthogonalization orth = Orthogonalization::kModifiedGramSchmidt;

  // Krylov invariant monitor (SDC watchdog): in exact arithmetic the
  // recurrence's residual estimate equals the TRUE residual ||b - Ax||; a
  // silent bit flip in the basis, the Hessenberg, or x breaks that
  // identity. When sdc_drift_tol > 0 and the relative gap between the two
  // exceeds it, the result is flagged sdc_suspected (the solve still runs
  // to completion — the psi-NKS ladder decides what to do). 0 disables the
  // check. GMRES compares at each restart, reusing the matvec the cycle
  // does anyway; BiCGStab pays one extra matvec every few iterations. Both
  // check once more at exit.
  double sdc_drift_tol = 0;

  /// Register the §2.4.2 tuning parameters (restart length, inexactness
  /// tolerance, iteration cap, orthogonalization mechanism) into the flat
  /// tuning space under `prefix`. The registry borrows this struct: it
  /// must outlive the registry.
  void bind(tune::Registry& reg, const std::string& prefix = "gmres.");
};

struct KrylovResult {
  bool converged = false;
  bool breakdown = false;      ///< BiCGStab: rho or omega collapsed
  bool stagnated = false;      ///< GMRES: stopped by the stagnation watchdog
  bool sdc_suspected = false;  ///< recurrence/true-residual drift exceeded
                               ///< sdc_drift_tol (silent corruption likely)
  bool guard_tripped = false;  ///< budget/cancel trip ended the solve early
  int iterations = 0;          ///< BiCGStab: full iterations (2 matvecs each)
  double initial_residual = 0;
  double final_residual = 0;
  double sdc_drift = 0;        ///< worst relative recurrence drift observed
  std::string reason;          ///< GMRES: empty on success; why it stopped
  SolveCounters counters;
};

/// Solve A x = b; x holds the initial guess on entry and the solution on
/// exit. Right-preconditioned: residuals reported are true (unpreconditioned)
/// residual estimates from the Arnoldi recurrence.
/// Both methods charge guard::active_guard(), if any, kUnitsKrylovIter per
/// iteration: a budget/cancel trip ends the solve cleanly at the next
/// iteration boundary with guard_tripped set.
KrylovResult gmres(const LinearOperator& a, const Preconditioner& m,
                   const std::vector<double>& b, std::vector<double>& x,
                   const GmresOptions& opts);

/// Solve A x = b with right preconditioning; x carries the initial guess.
KrylovResult bicgstab(const LinearOperator& a, const Preconditioner& m,
                      const std::vector<double>& b, std::vector<double>& x,
                      const GmresOptions& opts);

/// What the escalation ladder carries from one solve to the next: the
/// options it escalates and the active method.
struct KrylovLadder {
  GmresOptions gmres;
  KrylovMethod method = KrylovMethod::kGmres;
};

/// Cap of the ladder's restart-length escalation.
constexpr int kGmresRestartMax = 120;

/// Solve A x = b from x = 0 with the ladder's active method. With a `log`,
/// a failed solve climbs the retry rungs, each logged at `step` and each
/// starting over from x = 0:
///   BiCGStab breakdown -> swap to GMRES;
///   GMRES stagnation   -> double the restart length (capped at
///                         kGmresRestartMax, at most twice), then swap to
///                         BiCGStab.
/// A swap happens at most once per call, and the swapped-to method stays
/// in `ladder` for later calls. Without a log this is the single solve.
/// Returns the result summed over the solves: iterations and counters add
/// up, the failure flags are those of any solve, and convergence and the
/// residuals are the last solve's.
KrylovResult krylov_solve(const LinearOperator& a, const Preconditioner& m,
                          const std::vector<double>& b, std::vector<double>& x,
                          KrylovLadder& ladder,
                          resilience::RecoveryLog* log = nullptr,
                          int step = 0);

namespace detail {

/// Absolute residual floor of both methods.
inline constexpr double kAtol = 1e-50;

/// r = b - A x; returns ||r||. Counts one matvec and one reduction.
double true_residual(const LinearOperator& a, const std::vector<double>& b,
                     const std::vector<double>& x, std::vector<double>& r,
                     SolveCounters& counters);

/// The invariant monitor's comparison: the relative gap between the
/// recurrence's residual `estimate` and the `truth` raises res.sdc_drift
/// and flags res.sdc_suspected past `tol` or on a non-finite truth.
void check_drift(double estimate, double truth, double tol, KrylovResult& res);

/// Exit check: recomputes the true residual at x (into scratch `r`) and
/// compares it with `estimate`, skipping residuals at rounding level
/// relative to res.initial_residual, where estimate and truth legitimately
/// part ways.
void check_drift_at_exit(const LinearOperator& a, const std::vector<double>& b,
                         const std::vector<double>& x, std::vector<double>& r,
                         double estimate, double tol, KrylovResult& res);

}  // namespace detail

}  // namespace f3d::solver
