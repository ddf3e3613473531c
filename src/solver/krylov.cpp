#include "solver/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hpp"
#include "sparse/vec.hpp"

namespace f3d::solver {

namespace {

using resilience::RecoveryAction;

constexpr int kMaxLinearRetries = 2;  ///< restart escalations per call

}  // namespace

namespace detail {

double true_residual(const LinearOperator& a, const std::vector<double>& b,
                     const std::vector<double>& x, std::vector<double>& r,
                     SolveCounters& counters) {
  a.apply(x.data(), r.data());
  ++counters.matvecs;
  for (int i = 0; i < a.n; ++i) r[i] = b[i] - r[i];
  const double norm = sparse::norm2(r);
  ++counters.dots;
  return norm;
}

void check_drift(double estimate, double truth, double tol, KrylovResult& res) {
  const double scale = std::max(estimate, truth);
  const double drift = scale > 0 ? std::abs(truth - estimate) / scale : 0.0;
  res.sdc_drift = std::max(res.sdc_drift, drift);
  if (drift > tol || !std::isfinite(truth)) res.sdc_suspected = true;
}

void check_drift_at_exit(const LinearOperator& a, const std::vector<double>& b,
                         const std::vector<double>& x, std::vector<double>& r,
                         double estimate, double tol, KrylovResult& res) {
  const double truth = true_residual(a, b, x, r, res.counters);
  if (std::max(estimate, truth) > 1e-14 * res.initial_residual)
    check_drift(estimate, truth, tol, res);
}

}  // namespace detail

KrylovResult krylov_solve(const LinearOperator& a, const Preconditioner& m,
                          const std::vector<double>& b, std::vector<double>& x,
                          KrylovLadder& ladder, resilience::RecoveryLog* log,
                          int step) {
  F3D_OBS_SPAN("krylov");
  GmresOptions& opts = ladder.gmres;
  KrylovResult total;
  int lin_retries = 0;
  bool swapped = false;
  for (;;) {
    std::fill(x.begin(), x.end(), 0.0);
    const bool bicg = ladder.method == KrylovMethod::kBicgstab;
    const KrylovResult res =
        bicg ? bicgstab(a, m, b, x, opts) : gmres(a, m, b, x, opts);
    total.converged = res.converged;
    total.breakdown = total.breakdown || res.breakdown;
    total.stagnated = total.stagnated || res.stagnated;
    total.sdc_suspected = total.sdc_suspected || res.sdc_suspected;
    total.guard_tripped = total.guard_tripped || res.guard_tripped;
    total.iterations += res.iterations;
    total.initial_residual = res.initial_residual;
    total.final_residual = res.final_residual;
    total.sdc_drift = std::max(total.sdc_drift, res.sdc_drift);
    total.reason = res.reason;
    total.counters += res.counters;
    if (log == nullptr) return total;

    if (res.breakdown) {
      log->add(step, RecoveryAction::kDetectBreakdown,
               "BiCGStab rho/omega collapse");
    } else if (res.stagnated) {
      log->add(step, RecoveryAction::kDetectStagnation, res.reason);
      if (opts.restart < kGmresRestartMax && lin_retries < kMaxLinearRetries) {
        opts.restart = std::min(kGmresRestartMax, opts.restart * 2);
        opts.max_iters = std::max(opts.max_iters, opts.restart);
        log->add(step, RecoveryAction::kRestartEscalation,
                 "restart -> " + std::to_string(opts.restart));
        ++lin_retries;
        continue;
      }
    } else {
      return total;
    }
    // The last rung is a method swap: a persistently poisoned method (e.g.
    // an injected fault in the Arnoldi process) is unrecoverable from
    // inside it.
    if (swapped) return total;
    swapped = true;
    ladder.method = bicg ? KrylovMethod::kGmres : KrylovMethod::kBicgstab;
    log->add(step, RecoveryAction::kKrylovSwap,
             bicg ? "BiCGStab -> GMRES(m=" + std::to_string(opts.restart) + ")"
                  : std::string("GMRES -> BiCGStab"));
  }
}

}  // namespace f3d::solver
