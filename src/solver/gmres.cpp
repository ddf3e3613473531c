#include "solver/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "guard/guard.hpp"
#include "obs/obs.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/faults.hpp"
#include "sparse/vec.hpp"

namespace f3d::solver {

namespace {
using sparse::Vec;

// Stagnation watchdog: a restart cycle that fails to reduce the residual
// below kStagnationFactor x (previous cycle's residual) counts as
// stagnant; after kMaxStagnantRestarts consecutive stagnant cycles the
// solve stops with converged=false and a reason string instead of
// silently burning the rest of max_iters.
constexpr double kStagnationFactor = 0.9999;
constexpr int kMaxStagnantRestarts = 2;

// One GMRES cycle of up to `m` iterations. Returns iterations done and
// updates x; sets `resid` to the estimated true residual norm and
// `guard_tripped` when the active guard trips.
// `entry_beta` (optional) receives the TRUE residual ||b - Ax|| computed
// at cycle entry — the outer loop compares it against the previous
// cycle's recurrence estimate for the SDC drift monitor.
int gmres_cycle(const LinearOperator& a, const Preconditioner& prec,
                const Vec& b, Vec& x, int m, double target, double* resid,
                Orthogonalization orth, SolveCounters& ctr,
                bool* guard_tripped, double* entry_beta = nullptr) {
  const int n = a.n;
  guard::SolveGuard* const sguard = guard::active_guard();
  Vec r(n), w(n), z(n);

  const double beta = detail::true_residual(a, b, x, r, ctr);
  if (entry_beta != nullptr) *entry_beta = beta;
  *resid = beta;
  if (beta <= target || beta == 0) return 0;

  std::vector<Vec> v;  // Krylov basis
  v.reserve(m + 1);
  v.push_back(r);
  sparse::scale(v[0], 1.0 / beta);

  // Hessenberg (column-major: h[j] has j+2 entries) + Givens rotations.
  std::vector<std::vector<double>> h(m);
  std::vector<double> cs(m), sn(m), g(m + 1, 0.0);
  g[0] = beta;

  int j = 0;
  for (; j < m; ++j) {
    // Budget charge at the iteration boundary: the deterministic trip
    // point the cancellation-latency bound is documented against. The
    // cycle ends cleanly (the basis built so far is still applied below)
    // and the caller stops restarting.
    if (sguard != nullptr &&
        sguard->charge(guard::kUnitsKrylovIter) != guard::TripReason::kNone) {
      *guard_tripped = true;
      break;
    }
    // w = A M^{-1} v_j.
    prec.apply(v[j].data(), z.data());
    ++ctr.prec_applies;
    a.apply(z.data(), w.data());
    ++ctr.matvecs;
    // Fault-injection site: a wiped Krylov direction (forced breakdown /
    // stagnation — the cycle ends with a zero Hessenberg column).
    if (resilience::fault_fires(resilience::FaultSite::kGmres))
      std::fill(w.begin(), w.end(), 0.0);
    // SDC site: a silent finite-value flip in the fresh Krylov direction
    // (caught by the restart drift monitor, not by any NaN guard).
    resilience::maybe_flip(resilience::FlipTarget::kKrylov, w.data(), n);

    h[j].assign(j + 2, 0.0);
    if (orth == Orthogonalization::kModifiedGramSchmidt) {
      for (int i = 0; i <= j; ++i) {
        const double hij = sparse::dot(w, v[i]);
        ++ctr.dots;
        h[j][i] = hij;
        sparse::axpy(-hij, v[i], w);
        ++ctr.axpys;
      }
    } else {
      // Classical GS: all projections from the same w (fusable into one
      // global reduction on a parallel machine).
      for (int i = 0; i <= j; ++i) {
        h[j][i] = sparse::dot(w, v[i]);
        ++ctr.dots;
      }
      for (int i = 0; i <= j; ++i) {
        sparse::axpy(-h[j][i], v[i], w);
        ++ctr.axpys;
      }
    }
    const double hnorm = sparse::norm2(w);
    ++ctr.dots;
    h[j][j + 1] = hnorm;

    // Apply previous Givens rotations to the new column.
    for (int i = 0; i < j; ++i) {
      const double t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
      h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
      h[j][i] = t;
    }
    // New rotation to annihilate h[j][j+1].
    {
      const double denom = std::hypot(h[j][j], h[j][j + 1]);
      if (denom == 0) {
        // Dead direction: the rotated column vanished entirely (w was
        // wiped — injected fault or exact breakdown with no component
        // left). The residual recurrence would report a bogus 0; the
        // direction contributed nothing, so keep the previous estimate
        // and end the cycle — the outer loop's stagnation watchdog reacts.
        ++j;
        break;
      }
      cs[j] = h[j][j] / denom;
      sn[j] = h[j][j + 1] / denom;
      h[j][j] = cs[j] * h[j][j] + sn[j] * h[j][j + 1];
      h[j][j + 1] = 0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];
    }
    *resid = std::abs(g[j + 1]);

    if (*resid <= target || hnorm == 0) {
      ++j;
      break;
    }
    Vec vn = w;
    sparse::scale(vn, 1.0 / hnorm);
    v.push_back(std::move(vn));
  }

  // Back-substitute y from the triangularized Hessenberg, then
  // x += M^{-1} (V y). Skipped after a guard trip: the preconditioner
  // apply would hit its own poll point, and the driver discards the
  // attempt on trip anyway.
  const int k = j;
  if (k > 0 && !*guard_tripped) {
    std::vector<double> y(k);
    for (int i = k - 1; i >= 0; --i) {
      double s = g[i];
      for (int l = i + 1; l < k; ++l) s -= h[l][i] * y[l];
      // A zero diagonal happens on (lucky or injected) breakdown: the
      // direction contributed nothing — drop it instead of dividing by 0.
      y[i] = h[i][i] != 0 ? s / h[i][i] : 0.0;
    }
    Vec u(n, 0.0);
    for (int i = 0; i < k; ++i) {
      sparse::axpy(y[i], v[i], u);
      ++ctr.axpys;
    }
    prec.apply(u.data(), z.data());
    ++ctr.prec_applies;
    for (int i = 0; i < n; ++i) x[i] += z[i];
  }
  return k;
}

}  // namespace

KrylovResult gmres(const LinearOperator& a, const Preconditioner& m,
                   const std::vector<double>& b, std::vector<double>& x,
                   const GmresOptions& opts) {
  F3D_CHECK(a.n == static_cast<int>(b.size()));
  F3D_CHECK(a.n == m.n());
  F3D_CHECK(a.n == static_cast<int>(x.size()));
  F3D_CHECK(opts.restart >= 1);

  KrylovResult res;
  {
    Vec r(a.n);
    res.initial_residual = detail::true_residual(a, b, x, r, res.counters);
  }
  const double target =
      std::max(detail::kAtol, opts.rtol * res.initial_residual);
  double resid = res.initial_residual;

  int stagnant_cycles = 0;
  int restart_cycles = 0;
  while (res.iterations < opts.max_iters && resid > target) {
    const double resid_before = resid;
    const int room = std::min(opts.restart, opts.max_iters - res.iterations);
    double entry_beta = 0;
    bool guard_tripped = false;
    const int done = gmres_cycle(a, m, b, x, room, target, &resid, opts.orth,
                                 res.counters, &guard_tripped, &entry_beta);
    // Krylov invariant monitor: the recurrence estimate the previous
    // cycle ended with (resid_before) and the true residual this cycle
    // just computed (entry_beta) agree to rounding unless something was
    // silently corrupted in between.
    if (opts.sdc_drift_tol > 0 && restart_cycles > 0)
      detail::check_drift(resid_before, entry_beta, opts.sdc_drift_tol, res);
    res.iterations += done;
    ++restart_cycles;
    if (guard_tripped) {
      res.guard_tripped = true;
      res.reason = "guard trip: budget/cancel ended the solve";
      break;
    }
    if (done == 0) break;  // stagnation or immediate convergence
    // Stagnation watchdog: stop burning restarts that make no progress.
    if (resid > target && resid >= kStagnationFactor * resid_before) {
      if (++stagnant_cycles >= kMaxStagnantRestarts) {
        res.stagnated = true;
        res.reason = "stagnation: " + std::to_string(stagnant_cycles) +
                     " restart cycle(s) of m=" + std::to_string(opts.restart) +
                     " made no progress (resid " + std::to_string(resid) + ")";
        break;
      }
    } else {
      stagnant_cycles = 0;
    }
  }
  // Exit drift check: the cross-cycle monitor above never sees the LAST
  // cycle (and short solves converge in a single cycle, so it never runs
  // at all). One extra matvec recomputes the true residual at the final
  // iterate; corruption of the Arnoldi recurrence shows up as a gap
  // between it and the recurrence estimate. (Skipped after a guard trip:
  // the extra matvec would re-enter the tripped operator and the attempt
  // is being discarded anyway.)
  if (opts.sdc_drift_tol > 0 && res.iterations > 0 && !res.guard_tripped) {
    Vec r(a.n);
    detail::check_drift_at_exit(a, b, x, r, resid, opts.sdc_drift_tol, res);
  }
  res.final_residual = resid;
  res.converged = resid <= target;
  if (!res.converged && res.reason.empty())
    res.reason = res.iterations >= opts.max_iters
                     ? "max_iters (" + std::to_string(opts.max_iters) +
                           ") exhausted"
                     : "no progress in first cycle";
  auto& reg = obs::Registry::global();
  reg.count("solver.gmres.iterations", res.iterations);
  reg.count("solver.gmres.restart_cycles", restart_cycles);
  if (res.stagnated) reg.count("solver.gmres.stagnations");
  if (res.sdc_suspected) reg.count("solver.gmres.sdc_suspected");
  return res;
}

}  // namespace f3d::solver
