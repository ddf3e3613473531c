// Run-to-completion contract tests (f3d::guard): deterministic work-unit
// budgets, cooperative cancellation with a bounded and thread-count-
// independent latency, the wall-clock deadline, the livelock watchdog,
// the graceful-degradation ladder, the exception exit of an unrecoverable
// fault, and the campaign-level budget/cancel integration in
// par::simulate_campaign.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "guard/guard.hpp"
#include "guard/watchdog.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "par/distres.hpp"
#include "partition/partition.hpp"
#include "perf/machine.hpp"
#include "resilience/faults.hpp"
#include "solver/krylov.hpp"
#include "solver/newton.hpp"

namespace {

using namespace f3d;
using guard::SolveVerdict;
using guard::TripReason;

// --- guard primitives -----------------------------------------------------

TEST(SolveGuard, NamesCoverEveryEnumerator) {
  EXPECT_STREQ(guard::trip_reason_name(TripReason::kNone), "none");
  EXPECT_STREQ(guard::trip_reason_name(TripReason::kCancelled), "cancelled");
  EXPECT_STREQ(guard::trip_reason_name(TripReason::kDeadline), "deadline");
  EXPECT_STREQ(guard::trip_reason_name(TripReason::kWorkExhausted),
               "work-exhausted");
  EXPECT_STREQ(guard::verdict_name(SolveVerdict::kConverged), "converged");
  EXPECT_STREQ(guard::verdict_name(SolveVerdict::kMaxIters), "max-iters");
  EXPECT_STREQ(guard::verdict_name(SolveVerdict::kStagnated), "stagnated");
  EXPECT_STREQ(guard::verdict_name(SolveVerdict::kDeadline), "deadline");
  EXPECT_STREQ(guard::verdict_name(SolveVerdict::kCancelled), "cancelled");
  EXPECT_STREQ(guard::verdict_name(SolveVerdict::kFaultUnrecoverable),
               "fault-unrecoverable");
}

TEST(SolveGuard, UnboundedBudgetNeverTrips) {
  guard::SolveGuard g({});
  EXPECT_FALSE(g.budget().bounded());
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(g.charge(guard::kUnitsFactor), TripReason::kNone);
  EXPECT_EQ(g.work_units(), 1000 * guard::kUnitsFactor);
  EXPECT_EQ(g.latency_units(), 0);
  EXPECT_EQ(g.pressure(), 0.0);
}

TEST(SolveGuard, WorkBudgetTripsAtTheExactUnit) {
  guard::SolveBudget b;
  b.max_work_units = 10;
  guard::SolveGuard g(b);
  EXPECT_EQ(g.charge(4), TripReason::kNone);  // 4
  EXPECT_DOUBLE_EQ(g.pressure(), 0.4);
  EXPECT_EQ(g.charge(4), TripReason::kNone);          // 8
  EXPECT_EQ(g.charge(4), TripReason::kWorkExhausted);  // 12 >= 10
  EXPECT_EQ(g.tripped(), TripReason::kWorkExhausted);
  EXPECT_EQ(g.latency_units(), 0);  // nothing charged after the trip yet
  // Trips are sticky and latency counts post-trip units.
  EXPECT_EQ(g.charge(3), TripReason::kWorkExhausted);
  EXPECT_EQ(g.latency_units(), 3);
  EXPECT_DOUBLE_EQ(g.pressure(), 1.0);  // clamped
}

TEST(SolveGuard, ArmedCancelTripsAtTheExactUnit) {
  guard::CancelToken tok;
  tok.cancel_at_work(5);
  guard::SolveBudget b;
  b.cancel = &tok;
  guard::SolveGuard g(b);
  EXPECT_TRUE(b.bounded());
  EXPECT_EQ(g.charge(2), TripReason::kNone);       // 2
  EXPECT_EQ(g.charge(2), TripReason::kNone);       // 4
  EXPECT_EQ(g.charge(2), TripReason::kCancelled);  // 6 >= 5
  tok.reset();
  EXPECT_FALSE(tok.requested());
  EXPECT_EQ(tok.armed_at(), -1);
  // The guard's trip is sticky even after the token resets.
  EXPECT_EQ(g.tripped(), TripReason::kCancelled);
}

TEST(SolveGuard, CancelFlagObservedOnNextCharge) {
  guard::CancelToken tok;
  guard::SolveBudget b;
  b.cancel = &tok;
  guard::SolveGuard g(b);
  EXPECT_EQ(g.charge(1), TripReason::kNone);
  tok.cancel();  // any thread, any time
  EXPECT_EQ(g.charge(1), TripReason::kCancelled);
}

TEST(SolveGuard, DeadlineObservedAtClockCadence) {
  guard::SolveBudget b;
  b.wall_deadline_s = 1e-9;  // already expired at the first clock read
  guard::SolveGuard g(b);
  // Unit charges below the cadence read no clock.
  for (long long u = 1; u < guard::kCheckEvery; ++u)
    EXPECT_EQ(g.charge(1), TripReason::kNone) << "unit " << u;
  // The kCheckEvery-th unit reads the clock.
  EXPECT_EQ(g.charge(1), TripReason::kDeadline);
  EXPECT_EQ(guard::kCheckEvery, 8);
  EXPECT_EQ(guard::kCancelLatencyBoundUnits, guard::kCheckEvery);
}

TEST(SolveGuard, PollThrowsUntilDisarmed) {
  guard::CancelToken tok;
  guard::SolveBudget b;
  b.cancel = &tok;
  guard::SolveGuard g(b);
  guard::GuardScope scope(&g);
  ASSERT_EQ(guard::active_guard(), &g);
  EXPECT_NO_THROW(guard::poll_cancellation());  // not tripped
  tok.cancel();
  g.charge(1);
  EXPECT_TRUE(g.should_abandon());
  try {
    guard::poll_cancellation();
    FAIL() << "poll_cancellation must throw after a trip";
  } catch (const guard::CancelledError& e) {
    EXPECT_EQ(e.reason(), TripReason::kCancelled);
  }
  // The exit path disarms so it can keep using the pool.
  g.disarm();
  EXPECT_FALSE(g.should_abandon());
  EXPECT_NO_THROW(guard::poll_cancellation());
  EXPECT_EQ(g.tripped(), TripReason::kCancelled);  // trip state survives
}

TEST(SolveGuard, ScopeRestoresThePreviousGuard) {
  ASSERT_EQ(guard::active_guard(), nullptr);
  guard::SolveGuard outer({});
  {
    guard::GuardScope a(&outer);
    EXPECT_EQ(guard::active_guard(), &outer);
    guard::SolveGuard inner({});
    {
      guard::GuardScope bscope(&inner);
      EXPECT_EQ(guard::active_guard(), &inner);
    }
    EXPECT_EQ(guard::active_guard(), &outer);
  }
  EXPECT_EQ(guard::active_guard(), nullptr);
  EXPECT_NO_THROW(guard::poll_cancellation());  // no guard: no-op
}

// Both Krylov methods charge the thread's active guard one unit per
// iteration and stop at the trip; with no guard active nothing is charged.
TEST(SolveGuard, KrylovChargesTheActiveGuard) {
  constexpr int n = 64;  // shifted 1-D Laplacian
  solver::LinearOperator op;
  op.n = n;
  op.apply = [](const double* x, double* y) {
    for (int i = 0; i < n; ++i)
      y[i] = 2.5 * x[i] - (i > 0 ? x[i - 1] : 0.0) -
             (i + 1 < n ? x[i + 1] : 0.0);
  };
  const solver::IdentityPreconditioner m(n);
  const std::vector<double> b(n, 1.0);
  solver::GmresOptions opts;
  opts.rtol = 1e-14;
  guard::SolveBudget budget;
  budget.max_work_units = 5;
  for (const bool bicgstab : {false, true}) {
    SCOPED_TRACE(bicgstab ? "bicgstab" : "gmres");
    const auto solve = [&] {
      std::vector<double> x(n, 0.0);
      return bicgstab ? solver::bicgstab(op, m, b, x, opts)
                      : solver::gmres(op, m, b, x, opts);
    };
    guard::SolveGuard g(budget);
    EXPECT_FALSE(solve().guard_tripped);
    EXPECT_EQ(g.work_units(), 0);

    guard::GuardScope scope(&g);
    const solver::KrylovResult res = solve();
    EXPECT_TRUE(res.guard_tripped);
    EXPECT_EQ(g.tripped(), TripReason::kWorkExhausted);
    EXPECT_EQ(g.work_units(), 5);
    EXPECT_EQ(res.iterations, 4);
  }
}

// --- progress watchdog ----------------------------------------------------

TEST(ProgressWatchdog, CleanConvergenceNeverFires) {
  guard::ProgressWatchdog wd(true);
  double r = 1.0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(wd.observe(r)) << "step " << i;
    r *= 0.9;  // steady convergence
  }
}

TEST(ProgressWatchdog, FlatResidualFiresOncePastTheWindow) {
  guard::ProgressWatchdog wd(true);
  int fired_at = -1;
  for (int i = 0; i < 3 * guard::kWatchdogWindow && fired_at < 0; ++i)
    if (wd.observe(1e-13)) fired_at = i;
  EXPECT_EQ(fired_at, guard::kWatchdogWindow);  // earliest possible point
  for (int i = 0; i < 2 * guard::kWatchdogWindow; ++i)
    EXPECT_FALSE(wd.observe(1e-13)) << "step " << i;  // fires at most once
}

TEST(ProgressWatchdog, DisabledObservesNothing) {
  guard::ProgressWatchdog wd(false);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(wd.observe(1.0)) << "step " << i;
}

TEST(ProgressWatchdog, SlowPlateauToleratedWithinRatio) {
  guard::ProgressWatchdog wd(true);  // demands 10% improvement per window
  double r = 1.0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(wd.observe(r));
    r *= 0.985;  // 14% improvement per 10-step window: above the bar
  }
}

// --- guarded psi-NKS solves -----------------------------------------------

solver::PtcOptions base_options() {
  solver::PtcOptions o;
  o.cfl0 = 20.0;
  o.max_steps = 40;
  o.rtol = 1e-8;
  o.schwarz.fill_level = 1;
  o.num_subdomains = 2;
  return o;
}

solver::PtcResult run_wing(const solver::PtcOptions& opts,
                           std::vector<double>* x_out = nullptr,
                           resilience::FaultInjector* inj = nullptr) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  solver::PtcOptions o = opts;
  o.fault_injector = inj;
  auto res = solver::ptc_solve(prob, x, o);
  if (x_out != nullptr) *x_out = x;
  return res;
}

TEST(GuardedSolve, UnboundedGuardKeepsHistoricalBehavior) {
  auto res = run_wing(base_options());
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.verdict, SolveVerdict::kConverged);
  EXPECT_EQ(res.trip, TripReason::kNone);
  EXPECT_GT(res.work_units, 0);  // the cost model still accumulates
  EXPECT_EQ(res.cancel_latency_units, 0);
  EXPECT_TRUE(res.recovery_log.empty());  // no rung, stall or trip
  EXPECT_GE(res.residual_drop_orders, 8.0);  // rtol 1e-8 was met
  EXPECT_TRUE(res.best_state_admissible);
}

TEST(GuardedSolve, WorkBudgetReturnsBestCommittedState) {
  const auto full = run_wing(base_options());
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.work_units, 10);

  solver::PtcOptions o = base_options();
  o.guard.budget.max_work_units = full.work_units / 2;
  std::vector<double> x;
  const auto res = run_wing(o, &x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.verdict, SolveVerdict::kDeadline);
  EXPECT_EQ(res.trip, TripReason::kWorkExhausted);
  EXPECT_LT(res.steps, full.steps);
  // The trip is honored within the documented latency bound.
  EXPECT_LE(res.cancel_latency_units, guard::kCancelLatencyBoundUnits);
  // The returned iterate is the last committed state: finite, admissible,
  // and graded (partial residual progress is reported, not hidden).
  for (double v : x) ASSERT_TRUE(std::isfinite(v));
  EXPECT_TRUE(res.best_state_admissible);
  EXPECT_GE(res.residual_drop_orders, 0.0);
  EXPECT_LT(res.residual_drop_orders, full.residual_drop_orders);
  EXPECT_GT(res.recovery_log.count(resilience::RecoveryAction::kGuardTrip), 0);
}

TEST(GuardedSolve, ExpiredWallDeadlineStillReturnsCommittedState) {
  solver::PtcOptions o = base_options();
  o.guard.budget.wall_deadline_s = 1e-9;  // expired before the first step
  std::vector<double> x;
  const auto res = run_wing(o, &x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.verdict, SolveVerdict::kDeadline);
  EXPECT_EQ(res.trip, TripReason::kDeadline);
  for (double v : x) ASSERT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(res.final_residual));
}

// The satellite guarantee: a cancel armed mid-solve (inside the Krylov
// iteration stream) is honored within the documented work-unit bound, and
// the returned state is bit-identical at 1, 2 and 4 threads — work units
// are charged only at thread-count-independent points.
TEST(GuardedSolve, CancellationLatencyBoundedAndStateThreadInvariant) {
  const auto full = run_wing(base_options());
  ASSERT_GT(full.work_units, 20);
  const long long arm = full.work_units / 2;  // lands mid-solve

  guard::CancelToken tok;
  std::vector<std::vector<double>> states;
  std::vector<solver::PtcResult> results;
  for (int nt : {1, 2, 4}) {
    exec::ThreadScope threads(nt);
    tok.reset();
    tok.cancel_at_work(arm);
    solver::PtcOptions o = base_options();
    o.guard.budget.cancel = &tok;
    std::vector<double> x;
    results.push_back(run_wing(o, &x));
    states.push_back(std::move(x));
    const auto& res = results.back();
    EXPECT_EQ(res.verdict, SolveVerdict::kCancelled) << nt << " threads";
    EXPECT_EQ(res.trip, TripReason::kCancelled) << nt << " threads";
    EXPECT_FALSE(res.converged);
    EXPECT_GE(res.work_units, arm);
    EXPECT_LE(res.cancel_latency_units, guard::kCancelLatencyBoundUnits)
        << nt << " threads";
  }
  // Deterministic trip: identical unit counts and bitwise-identical
  // returned state at every thread count.
  for (std::size_t i = 1; i < states.size(); ++i) {
    EXPECT_EQ(results[i].work_units, results[0].work_units);
    EXPECT_EQ(results[i].steps, results[0].steps);
    EXPECT_EQ(results[i].final_residual, results[0].final_residual);
    ASSERT_EQ(states[i].size(), states[0].size());
    EXPECT_EQ(0, std::memcmp(states[i].data(), states[0].data(),
                             states[0].size() * sizeof(double)))
        << "state diverged between thread counts";
  }
}

TEST(GuardedSolve, WatchdogQuietOnCleanConvergence) {
  solver::PtcOptions o = base_options();
  o.guard.watchdog = true;
  const auto res = run_wing(o);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.verdict, SolveVerdict::kConverged);
  // Zero false positives on clean runs.
  EXPECT_EQ(res.recovery_log.count(resilience::RecoveryAction::kDetectStall),
            0);
}

TEST(GuardedSolve, WatchdogDetectsResidualFloorStall) {
  solver::PtcOptions o = base_options();
  o.rtol = 1e-300;  // unreachable: the solve plateaus at machine precision
  o.max_steps = 80;
  o.guard.watchdog = true;
  const auto res = run_wing(o);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.verdict, SolveVerdict::kStagnated);
  EXPECT_LT(res.steps, o.max_steps);  // fired before burning the step cap
  EXPECT_EQ(res.recovery_log.count(resilience::RecoveryAction::kDetectStall),
            1);
}

TEST(GuardedSolve, DegradationLadderFiresUnderBudgetPressure) {
  const auto full = run_wing(base_options());
  ASSERT_TRUE(full.converged);

  solver::PtcOptions o = base_options();
  o.guard.budget.max_work_units = full.work_units;  // pressure reaches 1.0
  o.guard.degrade = true;  // all three rungs fire inside the budget
  const auto res = run_wing(o);
  EXPECT_EQ(res.recovery_log.count(resilience::RecoveryAction::kDegradeRung),
            3);
  std::vector<std::string> rungs;
  for (const auto& e : res.recovery_log.events()) {
    EXPECT_EQ(e.action, resilience::RecoveryAction::kDegradeRung);
    rungs.push_back(e.detail.substr(0, e.detail.find(' ')));
  }
  EXPECT_EQ(rungs, (std::vector<std::string>{"loosen", "freeze", "shrink"}));
  // Whatever the outcome, the answer is a graded committed state.
  EXPECT_TRUE(res.best_state_admissible);
}

// A fault no ladder absorbs leaves ptc_solve by exception, on the plain
// path and with the recovery ladder on alike: the one fault exit, which
// the fleet and the tuning lab catch and map to a verdict themselves.
TEST(GuardedSolve, UnrecoverableFaultThrows) {
  auto poisoned = [] {
    resilience::FaultInjector inj(4);
    resilience::FaultPlan p;
    p.fire_every = 1;
    p.skip_first = 30;  // let some steps commit first
    inj.arm(resilience::FaultSite::kResidual, p);
    return inj;
  };

  {
    auto inj = poisoned();
    EXPECT_THROW(run_wing(base_options(), nullptr, &inj), NumericalError);
  }
  {
    auto inj = poisoned();
    solver::PtcOptions o = base_options();
    o.recovery.enabled = true;
    try {
      run_wing(o, nullptr, &inj);
      FAIL() << "an exhausted recovery ladder must throw";
    } catch (const NumericalError& e) {
      EXPECT_NE(std::string(e.what()).find("recovery ladder exhausted"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- campaign-level budget and cancel -------------------------------------

struct CampaignRig {
  mesh::Graph g;
  par::CampaignDomain domain;
  par::WorkCoefficients work;
  perf::MachineModel machine = perf::asci_red();
  std::vector<par::StepCounts> steps;

  CampaignRig() : steps(20) {
    auto m = mesh::generate_wing_mesh(
        mesh::WingMeshConfig{.nx = 12, .ny = 7, .nz = 7});
    g = mesh::build_graph(m.num_vertices(), m.edges());
    domain = par::make_domain(g, part::kway_grow(g, 8));
    work.sparse_bytes_per_vertex_it = 1200;
    work.sparse_flops_per_vertex_it = 300;
  }

  par::CampaignResult run(double budget_s, guard::CancelToken* cancel) {
    resilience::FaultInjector inj(7);  // no armed sites: a clean campaign
    par::CampaignOptions o;
    o.injector = &inj;
    o.budget_modeled_s = budget_s;
    o.cancel = cancel;
    return par::simulate_campaign(machine, domain, work, steps, o);
  }
};

TEST(GuardCampaign, ModeledBudgetTripsDeterministically) {
  CampaignRig rig;
  const auto full = rig.run(0, nullptr);
  ASSERT_TRUE(full.completed);
  EXPECT_EQ(full.verdict, SolveVerdict::kConverged);
  EXPECT_EQ(full.steps_executed, 20);

  const double budget = full.total_seconds() / 2;
  const auto a = rig.run(budget, nullptr);
  EXPECT_FALSE(a.completed);
  EXPECT_EQ(a.verdict, SolveVerdict::kDeadline);
  EXPECT_GT(a.steps_executed, 0);
  EXPECT_LT(a.steps_executed, 20);
  // The budget is on modeled seconds: the trip step is bit-reproducible.
  const auto b = rig.run(budget, nullptr);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
  EXPECT_EQ(a.total_seconds(), b.total_seconds());
}

TEST(GuardCampaign, CancelTokenHonoredAtStepBoundary) {
  CampaignRig rig;
  guard::CancelToken tok;
  tok.cancel();
  const auto res = rig.run(0, &tok);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.verdict, SolveVerdict::kCancelled);
  EXPECT_EQ(res.steps_executed, 0);  // honored before any modeled step
}

}  // namespace
