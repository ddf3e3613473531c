// Resilience subsystem tests: the deterministic fault injector, the
// status-returning factorization paths, the Schwarz shift ladder, the
// two-level coarse-disable rung, the GMRES stagnation watchdog, BiCGStab
// breakdown propagation, the Krylov escalation ladder, the psi-NKS
// recovery ladder (a seeded 4-class fault campaign on a small wing mesh),
// and the checkpoint/kill/resume round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cfd/problem.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mesh/generator.hpp"
#include "obs/obs.hpp"
#include "par/loadmodel.hpp"
#include "partition/partition.hpp"
#include "par/stepmodel.hpp"
#include "perf/machine.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"
#include "solver/krylov.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"
#include "sparse/ilu.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using namespace f3d::solver;
using namespace f3d::resilience;
using sparse::Vec;

// --- fault injector ------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministic) {
  FaultInjector inj(7);
  FaultPlan plan;
  plan.fire_every = 3;
  plan.skip_first = 2;
  plan.max_fires = 3;
  inj.arm(FaultSite::kResidual, plan);
  std::vector<bool> fired;
  for (int d = 0; d < 12; ++d)
    fired.push_back(inj.should_fire(FaultSite::kResidual));
  // Fires at draws 2, 5, 8, then capped by max_fires.
  const std::vector<bool> expect = {false, false, true, false, false, true,
                                    false, false, true, false, false, false};
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(inj.draws(FaultSite::kResidual), 12);
  EXPECT_EQ(inj.fires(FaultSite::kResidual), 3);
  EXPECT_EQ(inj.total_fires(), 3);
}

TEST(FaultInjector, ProbabilityDrawsReproduceFromSeed) {
  FaultPlan plan;
  plan.probability = 0.3;
  FaultInjector a(42), b(42), c(43);
  a.arm(FaultSite::kGmres, plan);
  b.arm(FaultSite::kGmres, plan);
  c.arm(FaultSite::kGmres, plan);
  int diffs_vs_c = 0;
  for (int d = 0; d < 200; ++d) {
    const bool fa = a.should_fire(FaultSite::kGmres);
    EXPECT_EQ(fa, b.should_fire(FaultSite::kGmres));
    if (fa != c.should_fire(FaultSite::kGmres)) ++diffs_vs_c;
  }
  EXPECT_GT(a.fires(FaultSite::kGmres), 0);
  EXPECT_LT(a.fires(FaultSite::kGmres), 200);
  EXPECT_GT(diffs_vs_c, 0);  // a different seed gives a different stream
}

TEST(FaultInjector, StateRestoreFastForwardsTheStream) {
  FaultPlan plan;
  plan.probability = 0.5;
  FaultInjector a(99);
  a.arm(FaultSite::kBicgstab, plan);
  for (int d = 0; d < 37; ++d) a.should_fire(FaultSite::kBicgstab);
  const FaultInjector::State mid = a.state();

  std::vector<bool> tail_a;
  for (int d = 0; d < 50; ++d)
    tail_a.push_back(a.should_fire(FaultSite::kBicgstab));

  FaultInjector b(0);  // seed overwritten by restore
  b.arm(FaultSite::kBicgstab, plan);
  b.restore(mid);
  EXPECT_EQ(b.draws(FaultSite::kBicgstab), 37);
  std::vector<bool> tail_b;
  for (int d = 0; d < 50; ++d)
    tail_b.push_back(b.should_fire(FaultSite::kBicgstab));
  EXPECT_EQ(tail_a, tail_b);
}

TEST(FaultInjector, UnarmedSitesNeverFire) {
  FaultInjector inj(1);
  for (int d = 0; d < 100; ++d) {
    EXPECT_FALSE(inj.should_fire(FaultSite::kResidual));
    EXPECT_FALSE(fault_fires(FaultSite::kResidual));  // none registered
  }
}

TEST(FaultInjector, ArmRejectsInvalidPlans) {
  FaultInjector inj(1);
  FaultPlan p;
  p.probability = -0.1;
  EXPECT_THROW(inj.arm(FaultSite::kResidual, p), f3d::Error);
  p.probability = 1.5;
  EXPECT_THROW(inj.arm(FaultSite::kResidual, p), f3d::Error);
  p.probability = std::nan("");
  EXPECT_THROW(inj.arm(FaultSite::kResidual, p), f3d::Error);
  p = {};
  p.fire_every = -1;
  EXPECT_THROW(inj.arm(FaultSite::kResidual, p), f3d::Error);
  p = {};
  p.skip_first = -3;
  EXPECT_THROW(inj.arm(FaultSite::kResidual, p), f3d::Error);
  p = {};
  p.max_fires = -1;
  EXPECT_THROW(inj.arm(FaultSite::kResidual, p), f3d::Error);
  EXPECT_THROW(inj.set_bit_flip({.bit = 64}), f3d::Error);
  EXPECT_THROW(inj.set_bit_flip({.bit = -1}), f3d::Error);
  // A rejected plan must not have disturbed the site: boundary values are
  // fine and the stream starts from draw 0.
  p = {};
  p.probability = 1.0;
  EXPECT_NO_THROW(inj.arm(FaultSite::kResidual, p));
  EXPECT_TRUE(inj.should_fire(FaultSite::kResidual));
  EXPECT_NO_THROW(inj.set_bit_flip({.bit = 0}));
  EXPECT_NO_THROW(inj.set_bit_flip({.bit = 63}));
}

// Golden guarantee the SDC campaigns rely on: arming the kBitFlip site
// must leave every other site's seeded stream bit-identical — per-site
// PRNG streams are independent, and a bit-flip opportunity whose target
// does not match consumes no draw.
TEST(FaultInjector, ArmingBitFlipLeavesOtherStreamsIdentical) {
  FaultPlan prob_plan;
  prob_plan.probability = 0.37;
  FaultInjector a(2024), b(2024);
  for (auto* inj : {&a, &b}) {
    inj->arm(FaultSite::kResidual, prob_plan);
    inj->arm(FaultSite::kGmres, prob_plan);
    inj->arm(FaultSite::kRankFail, prob_plan);
  }
  FaultPlan flips;
  flips.fire_every = 2;
  b.arm(FaultSite::kBitFlip, flips);
  b.set_bit_flip({.bit = 55, .target = FlipTarget::kState});

  for (int d = 0; d < 300; ++d) {
    EXPECT_EQ(a.should_fire(FaultSite::kResidual),
              b.should_fire(FaultSite::kResidual));
    EXPECT_EQ(a.should_fire(FaultSite::kGmres),
              b.should_fire(FaultSite::kGmres));
    EXPECT_EQ(a.should_fire(FaultSite::kRankFail),
              b.should_fire(FaultSite::kRankFail));
    // b's bit-flip stream advances in between; a doesn't have one.
    b.should_fire(FaultSite::kBitFlip);
  }
  EXPECT_GT(b.fires(FaultSite::kBitFlip), 0);
}

// --- status-returning factorization --------------------------------------

sparse::Csr<double> tridiag_with_zero_pivot(int n, int zero_row) {
  sparse::Csr<double> a;
  a.n = n;
  a.ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      a.col.push_back(i - 1);
      a.val.push_back(-1.0);
    }
    a.col.push_back(i);
    a.val.push_back(i == zero_row ? 0.0 : 2.5);
    if (i < n - 1) {
      a.col.push_back(i + 1);
      a.val.push_back(-1.0);
    }
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  return a;
}

// A failed refactor leaves partial values; the next good refactor must
// still give exactly the fresh factor's values.
template <class Factor, class Matrix>
void expect_recovers_fresh_values(Factor& f, const Matrix& good) {
  ASSERT_TRUE(f.refactor(good).ok);
  const Factor fresh(good, 0);
  EXPECT_EQ(f.values(), fresh.values());
}

TEST(IluStatus, ZeroPivotReportsInsteadOfThrowing) {
  const auto good = tridiag_with_zero_pivot(20, -1);
  sparse::PointIlu<double> f(good, 0);
  sparse::IluFactorStatus st;
  EXPECT_NO_THROW(st = f.refactor(tridiag_with_zero_pivot(20, 0)));
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(st.bad_row, 0);
  expect_recovers_fresh_values(f, good);
}

TEST(IluStatus, ZeroPivotThrowsOnThePlainPath) {
  // Row 0: no prior elimination can fill the pivot back in. The
  // constructor is the plain path: it throws.
  auto a = tridiag_with_zero_pivot(20, 0);
  EXPECT_THROW(sparse::PointIlu<double>(a, 0), f3d::NumericalError);
}

TEST(IluStatus, SingularDiagonalBlockReported) {
  auto m = mesh::generate_box_mesh(3, 3, 3);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  const auto good = sparse::build_bcsr(s, 2, fn);
  auto a = good;
  double* blk = a.find_block(0, 0);
  ASSERT_NE(blk, nullptr);
  for (int k = 0; k < 4; ++k) blk[k] = 0.0;
  sparse::BlockIlu<double> f(good, 0);
  sparse::IluFactorStatus st;
  EXPECT_NO_THROW(st = f.refactor(a));
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(st.bad_row, 0);
  expect_recovers_fresh_values(f, good);
  EXPECT_THROW(sparse::BlockIlu<double>(a, 0), f3d::NumericalError);
}

// --- Schwarz shift ladder ------------------------------------------------

TEST(SchwarzLadder, ShiftAbsorbsSingularDiagonalBlock) {
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_bcsr(s, 2, fn);
  auto prec = make_global_ilu(a, 1);

  auto bad = a;
  // Block row 0: elimination cannot fill the singular pivot back in.
  double* blk = bad.find_block(0, 0);
  ASSERT_NE(blk, nullptr);
  for (int k = 0; k < 4; ++k) blk[k] = 0.0;

  const FactorReport plain = prec->refactor(bad, 0);
  EXPECT_FALSE(plain.ok);
  EXPECT_EQ(plain.shift_attempts, 0);
  EXPECT_FALSE(plain.detail.empty());

  const FactorReport report = prec->refactor(bad, 12);
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.shift_attempts, 0);
  EXPECT_GT(report.shift_used, 0.0);

  // The shifted factors must still be usable (finite output).
  Vec r(a.scalar_n(), 1.0), z(a.scalar_n(), 0.0);
  prec->apply(r.data(), z.data());
  for (double v : z) EXPECT_TRUE(std::isfinite(v));
}

// Multiplies A's block (v0, v0), v0 = region[0], by 10 so that it holds
// the region's largest diagonal entry, and returns the shift ladder's
// scale once a kFactorPivot fault zeroes that block: max |A(v, v)_cc| over
// the region except v0.
double scale_without_zeroed_block(sparse::Bcsr<double>& a,
                                  const std::vector<int>& region) {
  const int nb = a.nb;
  double* b0 = a.find_block(region[0], region[0]);
  for (int k = 0; k < nb * nb; ++k) b0[k] *= 10;
  const auto diagonal_max = [&](int v) {
    const double* blk = a.find_block(v, v);
    double m = 0;
    for (int c = 0; c < nb; ++c) m = std::max(m, std::abs(blk[c * nb + c]));
    return m;
  };
  double scale = 0;
  for (std::size_t k = 1; k < region.size(); ++k)
    scale = std::max(scale, diagonal_max(region[k]));
  EXPECT_GT(diagonal_max(region[0]), scale);
  return scale;
}

TEST(SchwarzLadder, FactorPivotZeroesOneSubdomain) {
  // One kFactorPivot draw per subdomain per build and per refresh, in
  // subdomain order; the fired draw zeroes block (0, 0) of that subdomain
  // only, and one rung of the shift ladder absorbs it, with the first
  // rung's shift relative to the subdomain's diagonal without that block.
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto a = sparse::build_bcsr(s, 2, sparse::synthetic_values(s));
  const auto partition = part::kway_grow(graph_from_bcsr(a), 4);
  SchwarzOptions so;
  so.type = SchwarzType::kRasm;
  so.overlap = 1;
  const double scale = scale_without_zeroed_block(
      a, part::overlap_expand(graph_from_bcsr(a), partition, so.overlap)[2]);
  for (const auto solver : {SubdomainSolver::kIlu, SubdomainSolver::kSsor}) {
    SCOPED_TRACE(solver == SubdomainSolver::kIlu ? "ILU" : "SSOR");
    so.subdomain_solver = solver;
    const SchwarzPreconditioner clean(a, partition, so);

    FaultInjector inj(3);
    FaultPlan third_of_refresh;
    third_of_refresh.fire_every = 1;
    third_of_refresh.skip_first = 4 + 2;
    third_of_refresh.max_fires = 1;
    inj.arm(FaultSite::kFactorPivot, third_of_refresh);
    InjectorScope scope(&inj);
    SchwarzPreconditioner prec(a, partition, so);
    EXPECT_EQ(inj.draws(FaultSite::kFactorPivot), 4);
    const FactorReport report = prec.refactor(a, 8);
    EXPECT_EQ(inj.draws(FaultSite::kFactorPivot), 8);
    EXPECT_EQ(inj.fires(FaultSite::kFactorPivot), 1);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.shift_attempts, 1);
    EXPECT_EQ(report.shift_used, 1e-8 * scale);

    Vec r(a.scalar_n(), 1.0), z(r.size()), z_clean(r.size());
    prec.apply(r.data(), z.data());
    clean.apply(r.data(), z_clean.data());
    bool faulted_differs = false;
    for (int v = 0; v < a.nrows; ++v) {
      const std::size_t at = static_cast<std::size_t>(v) * a.nb;
      const bool same =
          std::memcmp(&z[at], &z_clean[at], a.nb * sizeof(double)) == 0;
      if (partition.part[v] != 2)
        EXPECT_TRUE(same) << "vertex " << v;
      else
        faulted_differs = faulted_differs || !same;
    }
    EXPECT_TRUE(faulted_differs);

    // Without a ladder the refresh stops at the failing subdomain.
    FaultInjector stop(3);
    FaultPlan third;
    third.fire_every = 1;
    third.skip_first = 2;
    third.max_fires = 1;
    stop.arm(FaultSite::kFactorPivot, third);
    InjectorScope stop_scope(&stop);
    EXPECT_FALSE(prec.refactor(a, 0).ok);
    EXPECT_EQ(stop.draws(FaultSite::kFactorPivot), 3);
  }
}

TEST(SchwarzLadder, InPlaceRungFillsAgainWithTheSameShift) {
  // One subdomain assembled in place: the refresh's draw fires, the rung
  // calls the assembler again, and its shift is relative to the filled
  // diagonal without the zeroed block, as for a gathered subdomain.
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto a = sparse::build_bcsr(s, 2, sparse::synthetic_values(s));
  std::vector<int> all(a.nrows);
  std::iota(all.begin(), all.end(), 0);
  const double scale = scale_without_zeroed_block(a, all);
  const SchwarzOptions so;
  const auto map =
      sparse::principal_submatrix(a.ptr, a.col, {}, so.fill_level).second;
  int fills = 0;
  const sparse::BlockAssembler assemble = [&](sparse::Bcsr<double>& mat) {
    ++fills;
    map.gather(a, mat);
  };

  FaultInjector inj(3);
  FaultPlan refresh;
  refresh.fire_every = 1;
  refresh.skip_first = 1;
  refresh.max_fires = 1;
  inj.arm(FaultSite::kFactorPivot, refresh);
  InjectorScope scope(&inj);
  SchwarzPreconditioner prec(a, so, assemble);
  fills = 0;
  const FactorReport report = prec.refactor(assemble, 8);
  EXPECT_EQ(inj.fires(FaultSite::kFactorPivot), 1);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.shift_attempts, 1);
  EXPECT_EQ(fills, 2);
  EXPECT_EQ(report.shift_used, 1e-8 * scale);
}

// --- two-level coarse-disable rung ---------------------------------------

// Block-diagonal operator with diagonal blocks alternating +I / -I along
// the vertex order, split into two subdomains of consecutive halves: every
// fine pivot is +-1, but each subdomain's blocks cancel, so the aggregated
// coarse operator is exactly zero.
struct CoarseCase {
  sparse::Bcsr<double> good, cancelling;
  part::Partition partition;
};

CoarseCase make_coarse_case() {
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  CoarseCase c;
  c.good = sparse::build_bcsr(s, 2, sparse::synthetic_values(s));
  c.cancelling = c.good;
  std::fill(c.cancelling.val.begin(), c.cancelling.val.end(), 0.0);
  const int nv = c.good.nrows;
  for (int v = 0; v < nv; ++v) {
    double* blk = c.cancelling.find_block(v, v);
    blk[0] = blk[3] = v % 2 == 0 ? 1.0 : -1.0;
  }
  c.partition.nparts = 2;
  for (int v = 0; v < nv; ++v) c.partition.part.push_back(v < nv / 2 ? 0 : 1);
  return c;
}

TEST(CoarseLadder, SingularCoarseOperatorDisablesTheCorrection) {
  const auto c = make_coarse_case();
  const SchwarzOptions so{.coarse_space = true};
  EXPECT_THROW({ SchwarzPreconditioner p(c.cancelling, c.partition, so); },
               f3d::NumericalError);

  SchwarzPreconditioner prec(c.good, c.partition, so);
  ASSERT_TRUE(prec.coarse_active());
  for (int shift_attempts : {0, 8}) {
    const FactorReport report = prec.refactor(c.cancelling, shift_attempts);
    EXPECT_TRUE(report.ok);  // no fine pivot failed
    EXPECT_EQ(report.shift_attempts, 0);
    EXPECT_TRUE(report.coarse_disabled);
    EXPECT_FALSE(prec.coarse_active());
    Vec r(c.good.scalar_n(), 1.0), z(c.good.scalar_n(), 0.0);
    prec.apply(r.data(), z.data());
    for (double v : z) EXPECT_TRUE(std::isfinite(v));

    // A refresh on a nonsingular operator turns the correction back on.
    const FactorReport back = prec.refactor(c.good, shift_attempts);
    EXPECT_TRUE(back.ok);
    EXPECT_FALSE(back.coarse_disabled);
    EXPECT_TRUE(prec.coarse_active());
  }

  // A refresh without a ladder that stops at a singular subdomain still
  // rebuilds the coarse level: zeroing vertex nv / 2's diagonal block
  // fails subdomain 1 at its first row and leaves A0 singular.
  sparse::Bcsr<double> broken = c.cancelling;
  const int nb = broken.nb;
  std::fill_n(broken.find_block(broken.nrows / 2, broken.nrows / 2), nb * nb,
              0.0);
  const FactorReport report = prec.refactor(broken, 0);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.coarse_disabled);
  EXPECT_FALSE(prec.coarse_active());
  EXPECT_NE(report.detail.find("singular diagonal block"), std::string::npos)
      << report.detail;
  EXPECT_NE(report.detail.find("singular coarse operator"), std::string::npos)
      << report.detail;
  EXPECT_TRUE(prec.refactor(c.good, 0).ok);
  EXPECT_TRUE(prec.coarse_active());
}

// --- Krylov solvers under injected faults --------------------------------

struct SmallSystem {
  sparse::Bcsr<double> a;
  Vec b;
};

SmallSystem make_system() {
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  SmallSystem sys;
  sys.a = sparse::build_bcsr(s, 2, fn);
  Rng rng(3);
  sys.b.resize(sys.a.scalar_n());
  for (auto& v : sys.b) v = rng.uniform(-1, 1);
  return sys;
}

TEST(GmresStagnation, WipedDirectionsStopWithReason) {
  auto sys = make_system();
  LinearOperator op;
  op.n = sys.a.scalar_n();
  op.apply = [&](const double* x, double* y) { sys.a.spmv(x, y); };
  IdentityPreconditioner m(op.n);

  FaultInjector inj(5);
  FaultPlan always;
  always.fire_every = 1;
  inj.arm(FaultSite::kGmres, always);
  InjectorScope scope(&inj);

  Vec x(op.n, 0.0);
  auto res = gmres(op, m, sys.b, x, {});
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.stagnated);
  EXPECT_FALSE(res.reason.empty());
  // Dead directions contribute nothing; the residual estimate must not
  // collapse to a bogus zero.
  EXPECT_GT(res.final_residual, 0.0);
}

TEST(BicgstabBreakdown, InjectedCollapseSetsFlag) {
  auto sys = make_system();
  LinearOperator op;
  op.n = sys.a.scalar_n();
  op.apply = [&](const double* x, double* y) { sys.a.spmv(x, y); };
  IdentityPreconditioner m(op.n);

  FaultInjector inj(5);
  FaultPlan always;
  always.fire_every = 1;
  inj.arm(FaultSite::kBicgstab, always);
  InjectorScope scope(&inj);

  Vec x(op.n, 0.0);
  auto res = bicgstab(op, m, sys.b, x, {});
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

// --- Krylov escalation ladder --------------------------------------------

LinearOperator operator_of(const sparse::Bcsr<double>& a) {
  LinearOperator op;
  op.n = a.scalar_n();
  op.apply = [&a](const double* x, double* y) { a.spmv(x, y); };
  return op;
}

FaultInjector always_firing(FaultSite site) {
  FaultInjector inj(5);
  FaultPlan always;
  always.fire_every = 1;
  inj.arm(site, always);
  return inj;
}

TEST(KrylovLadder, StagnationEscalatesRestartThenSwapsToBicgstab) {
  auto sys = make_system();
  const LinearOperator op = operator_of(sys.a);
  IdentityPreconditioner m(op.n);
  auto inj = always_firing(FaultSite::kGmres);
  InjectorScope scope(&inj);

  KrylovLadder ladder;  // GMRES(20), 200 iterations
  RecoveryLog log;
  Vec x(op.n, 1.0);  // overwritten: every rung starts from zero
  const KrylovResult res = krylov_solve(op, m, sys.b, x, ladder, &log, 4);

  const std::vector<RecoveryAction> expect = {
      RecoveryAction::kDetectStagnation, RecoveryAction::kRestartEscalation,
      RecoveryAction::kDetectStagnation, RecoveryAction::kRestartEscalation,
      RecoveryAction::kDetectStagnation, RecoveryAction::kKrylovSwap};
  ASSERT_EQ(log.size(), expect.size());
  const std::vector<std::string> detail = {
      "stagnation: 2 restart cycle(s) of m=20 ", "restart -> 40",
      "stagnation: 2 restart cycle(s) of m=40 ", "restart -> 80",
      "stagnation: 2 restart cycle(s) of m=80 ", "GMRES -> BiCGStab"};
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const RecoveryEvent& e = log.events()[i];
    EXPECT_EQ(e.action, expect[i]) << i;
    EXPECT_EQ(e.step, 4) << i;
    if (e.action == RecoveryAction::kDetectStagnation)
      EXPECT_EQ(e.detail.rfind(detail[i], 0), 0u) << e.detail;
    else
      EXPECT_EQ(e.detail, detail[i]);
  }
  EXPECT_TRUE(res.stagnated);
  EXPECT_FALSE(res.breakdown);
  EXPECT_TRUE(res.converged);  // BiCGStab never draws the GMRES fault
  EXPECT_EQ(ladder.method, KrylovMethod::kBicgstab);
  EXPECT_EQ(ladder.gmres.restart, 80);
  EXPECT_EQ(ladder.gmres.max_iters, 200);

  // The swap sticks: a second call solves with BiCGStab straight away and
  // climbs no rung.
  const KrylovResult again = krylov_solve(op, m, sys.b, x, ladder, &log, 5);
  EXPECT_TRUE(again.converged);
  EXPECT_FALSE(again.stagnated);
  EXPECT_EQ(log.size(), expect.size());
  EXPECT_EQ(ladder.method, KrylovMethod::kBicgstab);
}

TEST(KrylovLadder, BicgstabBreakdownSwapsToGmres) {
  auto sys = make_system();
  const LinearOperator op = operator_of(sys.a);
  IdentityPreconditioner m(op.n);
  auto inj = always_firing(FaultSite::kBicgstab);
  InjectorScope scope(&inj);

  KrylovLadder ladder;
  ladder.method = KrylovMethod::kBicgstab;
  RecoveryLog log;
  Vec x(op.n, 0.0);
  const KrylovResult res = krylov_solve(op, m, sys.b, x, ladder, &log, 2);

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].action, RecoveryAction::kDetectBreakdown);
  EXPECT_EQ(log.events()[0].detail, "BiCGStab rho/omega collapse");
  EXPECT_EQ(log.events()[1].action, RecoveryAction::kKrylovSwap);
  EXPECT_EQ(log.events()[1].detail, "BiCGStab -> GMRES(m=20)");
  EXPECT_TRUE(res.breakdown);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(ladder.method, KrylovMethod::kGmres);
}

TEST(KrylovLadder, WithoutLogRunsTheSingleSolve) {
  auto sys = make_system();
  const LinearOperator op = operator_of(sys.a);
  IdentityPreconditioner m(op.n);

  auto direct_inj = always_firing(FaultSite::kGmres);
  KrylovResult direct;
  {
    InjectorScope scope(&direct_inj);
    Vec x(op.n, 0.0);
    direct = gmres(op, m, sys.b, x, {});
  }
  auto inj = always_firing(FaultSite::kGmres);
  InjectorScope scope(&inj);
  KrylovLadder ladder;
  Vec x(op.n, 0.0);
  const KrylovResult res = krylov_solve(op, m, sys.b, x, ladder);

  EXPECT_TRUE(res.stagnated);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, direct.iterations);
  EXPECT_EQ(res.counters.matvecs, direct.counters.matvecs);
  EXPECT_EQ(inj.draws(FaultSite::kGmres), direct_inj.draws(FaultSite::kGmres));
  EXPECT_EQ(ladder.method, KrylovMethod::kGmres);
  EXPECT_EQ(ladder.gmres.restart, 20);
  EXPECT_EQ(ladder.gmres.max_iters, 200);
}

// --- psi-NKS recovery ladder ---------------------------------------------

PtcOptions campaign_options() {
  PtcOptions opts;
  opts.cfl0 = 20.0;
  opts.max_steps = 40;
  opts.rtol = 1e-6;
  opts.schwarz.fill_level = 1;
  opts.num_subdomains = 2;
  return opts;
}

/// One seeded fault run on the small wing mesh; `x_out` (optional)
/// receives the final state for bitwise comparisons.
PtcResult run_wing(FaultInjector* inj, const PtcOptions& opts,
                   std::vector<double>* x_out = nullptr) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  PtcOptions o = opts;
  o.fault_injector = inj;
  auto res = ptc_solve(prob, x, o);
  if (x_out != nullptr) *x_out = x;
  return res;
}

enum class FaultClass { kNanResidual, kZeroPivot, kGmresPoison, kBicgstabPoison };

FaultInjector make_campaign_injector(FaultClass cls, std::uint64_t seed) {
  FaultInjector inj(seed);
  const int s = static_cast<int>(seed % 5);
  switch (cls) {
    case FaultClass::kNanResidual: {
      FaultPlan p;
      // Early enough that even a fast clean run (~30 evaluations) is hit.
      p.fire_every = 40;
      p.skip_first = 5 + 3 * s;
      p.max_fires = 3;
      inj.arm(FaultSite::kResidual, p);
      break;
    }
    case FaultClass::kZeroPivot: {
      FaultPlan p;
      p.fire_every = 3;
      p.skip_first = s % 3;
      p.max_fires = 3;
      inj.arm(FaultSite::kFactorPivot, p);
      break;
    }
    case FaultClass::kGmresPoison: {
      FaultPlan p;  // persistent: every Arnoldi direction wiped
      p.fire_every = 1;
      inj.arm(FaultSite::kGmres, p);
      break;
    }
    case FaultClass::kBicgstabPoison: {
      FaultPlan p;  // persistent: every BiCGStab iteration breaks down
      p.fire_every = 1;
      inj.arm(FaultSite::kBicgstab, p);
      break;
    }
  }
  return inj;
}

PtcOptions class_options(FaultClass cls, bool recovery) {
  PtcOptions opts = campaign_options();
  if (cls == FaultClass::kBicgstabPoison)
    opts.krylov = KrylovMethod::kBicgstab;
  opts.recovery.enabled = recovery;
  return opts;
}

// Campaign-level half of the golden guarantee: a recovery campaign with
// an *idle* kBitFlip site armed (target kHalo — never announced inside
// ptc_solve) reproduces the no-bit-flip campaign bit for bit.
TEST(PtcRecovery, IdleBitFlipSiteKeepsCampaignBitIdentical) {
  auto inj_a = make_campaign_injector(FaultClass::kNanResidual, 0);
  std::vector<double> x_a;
  auto res_a = run_wing(&inj_a, class_options(FaultClass::kNanResidual, true),
                        &x_a);

  auto inj_b = make_campaign_injector(FaultClass::kNanResidual, 0);
  FaultPlan flips;
  flips.fire_every = 1;
  inj_b.arm(FaultSite::kBitFlip, flips);
  inj_b.set_bit_flip({.bit = 62, .target = FlipTarget::kHalo});
  std::vector<double> x_b;
  auto res_b = run_wing(&inj_b, class_options(FaultClass::kNanResidual, true),
                        &x_b);

  EXPECT_EQ(inj_b.draws(FaultSite::kBitFlip), 0);  // no draws consumed
  EXPECT_EQ(res_a.converged, res_b.converged);
  EXPECT_EQ(res_a.steps, res_b.steps);
  EXPECT_EQ(res_a.recovery_log.count(RecoveryAction::kStepRejected),
            res_b.recovery_log.count(RecoveryAction::kStepRejected));
  EXPECT_EQ(res_a.final_residual, res_b.final_residual);
  ASSERT_EQ(x_a.size(), x_b.size());
  EXPECT_EQ(std::memcmp(x_a.data(), x_b.data(), x_a.size() * sizeof(double)),
            0);
}

TEST(PtcRecovery, NanResidualIsRejectedAndRecovered) {
  auto inj = make_campaign_injector(FaultClass::kNanResidual, 0);
  auto res = run_wing(&inj, class_options(FaultClass::kNanResidual, true));
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectNanResidual), 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kStepRejected), 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kCflBacktrack), 0);
}

TEST(PtcRecovery, NanResidualAbortsWithoutRecovery) {
  auto inj = make_campaign_injector(FaultClass::kNanResidual, 0);
  EXPECT_THROW(
      run_wing(&inj, class_options(FaultClass::kNanResidual, false)),
      f3d::NumericalError);
}

TEST(PtcRecovery, ZeroPivotIsShiftedOrRebuilt) {
  auto inj = make_campaign_injector(FaultClass::kZeroPivot, 1);
  auto res = run_wing(&inj, class_options(FaultClass::kZeroPivot, true));
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectSingularFactor), 0);
}

TEST(PtcRecovery, ZeroPivotAbortsWithoutRecovery) {
  auto inj = make_campaign_injector(FaultClass::kZeroPivot, 1);
  EXPECT_THROW(run_wing(&inj, class_options(FaultClass::kZeroPivot, false)),
               f3d::NumericalError);
}

TEST(PtcRecovery, BicgstabBreakdownSwapsToGmres) {
  auto inj = make_campaign_injector(FaultClass::kBicgstabPoison, 2);
  auto res = run_wing(&inj, class_options(FaultClass::kBicgstabPoison, true));
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.krylov_breakdowns, 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectBreakdown), 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kKrylovSwap), 0);
  bool breakdown_recorded = false;
  for (const auto& h : res.history) breakdown_recorded |= h.linear_breakdown;
  EXPECT_TRUE(breakdown_recorded);
}

TEST(PtcRecovery, BicgstabBreakdownStallsWithoutRecovery) {
  auto inj = make_campaign_injector(FaultClass::kBicgstabPoison, 2);
  auto res = run_wing(&inj, class_options(FaultClass::kBicgstabPoison, false));
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.krylov_breakdowns, 0);  // satellite: breakdown propagated
}

TEST(PtcRecovery, GmresPoisonEscalatesThenSwaps) {
  auto inj = make_campaign_injector(FaultClass::kGmresPoison, 3);
  auto res = run_wing(&inj, class_options(FaultClass::kGmresPoison, true));
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectStagnation), 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kRestartEscalation), 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kKrylovSwap), 0);
}

TEST(PtcRecovery, GmresPoisonStallsWithoutRecovery) {
  auto inj = make_campaign_injector(FaultClass::kGmresPoison, 3);
  auto res = run_wing(&inj, class_options(FaultClass::kGmresPoison, false));
  EXPECT_FALSE(res.converged);
  bool stagnation_recorded = false;
  for (const auto& h : res.history) stagnation_recorded |= h.linear_stagnated;
  EXPECT_TRUE(stagnation_recorded);
}

// Forwards every call to `inner`; the fault decorators below override the
// calls they corrupt.
class ForwardingProblem : public NonlinearProblem {
public:
  explicit ForwardingProblem(NonlinearProblem& inner) : inner_(inner) {}

  [[nodiscard]] int num_vertices() const override {
    return inner_.num_vertices();
  }
  [[nodiscard]] int nb() const override { return inner_.nb(); }
  void residual(const std::vector<double>& x,
                std::vector<double>& r) override {
    inner_.residual(x, r);
  }
  [[nodiscard]] sparse::Bcsr<double> allocate_jacobian() const override {
    return inner_.allocate_jacobian();
  }
  void jacobian(const std::vector<double>& x,
                sparse::Bcsr<double>& jac) override {
    inner_.jacobian(x, jac);
  }
  void timestep_scale(const std::vector<double>& x,
                      std::vector<double>& vol_over_sr) override {
    inner_.timestep_scale(x, vol_over_sr);
  }
  void cell_volumes(std::vector<double>& vol) const override {
    inner_.cell_volumes(vol);
  }
  void on_step(int step, double residual_ratio) override {
    inner_.on_step(step, residual_ratio);
  }
  [[nodiscard]] bool admissible(const std::vector<double>& x) const override {
    return inner_.admissible(x);
  }

protected:
  NonlinearProblem& inner_;
};

// Inflates r(x) 1e8x at every evaluation away from the entry state of
// pseudo-timestep `at_step`'s first attempt: the line search runs out of
// halvings, and the step residual then reads as a ~1e8x growth. The retry
// re-evaluates at the entry state, which ends the episode.
class DivergingProblem : public ForwardingProblem {
public:
  DivergingProblem(NonlinearProblem& inner, int at_step)
      : ForwardingProblem(inner), at_step_(at_step) {}

  void residual(const std::vector<double>& x,
                std::vector<double>& r) override {
    inner_.residual(x, r);
    if (phase_ == Phase::kArmed) {
      entry_ = x;
      phase_ = Phase::kInflating;
    } else if (phase_ == Phase::kInflating) {
      if (x == entry_) {
        phase_ = Phase::kDone;
      } else {
        for (double& v : r) v *= 1e8;
      }
    }
  }
  void on_step(int step, double residual_ratio) override {
    if (step == at_step_ && phase_ == Phase::kIdle) phase_ = Phase::kArmed;
    inner_.on_step(step, residual_ratio);
  }

private:
  enum class Phase { kIdle, kArmed, kInflating, kDone };
  int at_step_;
  Phase phase_ = Phase::kIdle;
  std::vector<double> entry_;
};

// Reads the state as physically inadmissible exactly once, at the second
// admissible() call: step 0's post-step check (the first call is step 0's
// entry scan). Every norm test passes, as with a finite bit flip.
class InadmissibleOnceProblem : public ForwardingProblem {
public:
  using ForwardingProblem::ForwardingProblem;

  [[nodiscard]] bool admissible(const std::vector<double>& x) const override {
    return ++calls_ != 2 && inner_.admissible(x);
  }

private:
  mutable int calls_ = 0;
};

TEST(PtcRecovery, DivergentStepIsRejectedAndRecovered) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem inner(disc, -1.0);
  DivergingProblem prob(inner, 2);
  auto x = inner.initial_state();
  PtcOptions o = campaign_options();
  o.recovery.enabled = true;
  o.matrix_free = false;  // keep Krylov products off the inflated residual
  const auto res = ptc_solve(prob, x, o);

  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.recovery_log.count(RecoveryAction::kStepRejected), 1);
  std::vector<RecoveryAction> actions;
  for (const auto& e : res.recovery_log.events()) {
    EXPECT_EQ(e.step, 2);
    actions.push_back(e.action);
  }
  EXPECT_EQ(actions, (std::vector<RecoveryAction>{
                         RecoveryAction::kDetectDivergence,
                         RecoveryAction::kStepRejected,
                         RecoveryAction::kCflBacktrack,
                         RecoveryAction::kPrecRefresh}));
  ASSERT_FALSE(res.recovery_log.empty());
  EXPECT_NE(res.recovery_log.events()[0].detail.find("grew"),
            std::string::npos);
}

// The post-step admissibility watchdog: an inadmissible state after a step
// is an SDC detection, so the attempt is rejected and re-run from a fresh
// assembly, and the solve ends where the clean guarded solve does.
TEST(PtcRecovery, InadmissibleStepIsDetectedAndRecomputed) {
  const auto solve = [](bool inadmissible_once, std::vector<double>& x) {
    auto m = mesh::generate_wing_mesh(
        mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 1;
    cfd::EulerDiscretization disc(m, cfg);
    cfd::EulerProblem inner(disc, -1.0);
    InadmissibleOnceProblem faulty(inner);
    x = inner.initial_state();
    PtcOptions o = campaign_options();
    o.recovery.enabled = true;
    o.sdc.enabled = true;
    return ptc_solve(inadmissible_once ? static_cast<NonlinearProblem&>(faulty)
                                       : inner,
                     x, o);
  };
  std::vector<double> x_clean, x;
  const auto clean = solve(false, x_clean);
  const auto res = solve(true, x);

  ASSERT_TRUE(clean.converged);
  ASSERT_TRUE(clean.recovery_log.empty());
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.steps, clean.steps);
  // The rejected attempt's Krylov work is spent on top of the clean run's.
  EXPECT_GT(res.total_linear_iterations, clean.total_linear_iterations);
  std::vector<std::pair<RecoveryAction, std::string>> events;
  for (const auto& e : res.recovery_log.events()) {
    EXPECT_EQ(e.step, 0);
    events.emplace_back(e.action, e.detail);
  }
  EXPECT_EQ(events,
            (std::vector<std::pair<RecoveryAction, std::string>>{
                {RecoveryAction::kDetectSdc,
                 "physically inadmissible state after step"},
                {RecoveryAction::kStepRejected, "attempt 1"},
                {RecoveryAction::kSdcRecompute,
                 "reassemble and re-run attempt 1"}}));
  ASSERT_EQ(x.size(), x_clean.size());
  EXPECT_EQ(std::memcmp(x.data(), x_clean.data(), x.size() * sizeof(double)), 0);
}

// Counts the Jacobian assemblies the driver asks for.
class AssemblyCountingProblem : public ForwardingProblem {
public:
  using ForwardingProblem::ForwardingProblem;

  void jacobian(const std::vector<double>& x,
                sparse::Bcsr<double>& jac) override {
    ++assemblies;
    inner_.jacobian(x, jac);
  }
  int assemblies = 0;
};

// One subdomain, matrix-free: A is assembled straight into the factor.
// kFactorPivot fires on draw 0, the first build, and on draw 3, step 2's
// refresh: the build's singular factor fails the attempt and the next one
// builds again; the refresh climbs the shift ladder, re-assembling once
// per rung.
TEST(PtcRecovery, InPlaceFactorRecoversPivotFaults) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem inner(disc, -1.0);
  AssemblyCountingProblem prob(inner);
  auto x = inner.initial_state();
  FaultInjector inj(1);
  FaultPlan plan;
  plan.fire_every = 3;
  plan.max_fires = 2;
  inj.arm(FaultSite::kFactorPivot, plan);
  PtcOptions o = campaign_options();
  o.num_subdomains = 1;
  o.recovery.enabled = true;
  o.fault_injector = &inj;
  const auto res = ptc_solve(prob, x, o);

  EXPECT_TRUE(res.converged);
  EXPECT_EQ(inj.fires(FaultSite::kFactorPivot), 2);
  std::vector<std::tuple<int, RecoveryAction, std::string>> events;
  for (const auto& e : res.recovery_log.events())
    events.emplace_back(e.step, e.action, e.detail);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0],
            std::make_tuple(0, RecoveryAction::kDetectSingularFactor,
                            std::string("singular diagonal block in block "
                                        "ILU at local row 0")));
  EXPECT_EQ(events[1], std::make_tuple(0, RecoveryAction::kStepRejected,
                                       std::string("attempt 1")));
  EXPECT_EQ(events[2], std::make_tuple(0, RecoveryAction::kCflBacktrack,
                                       std::string("cfl_relax=0.250000")));
  EXPECT_EQ(events[3], std::make_tuple(0, RecoveryAction::kPrecRefresh,
                                       std::string("forced by step rejection")));
  // Draw 1 rebuilt step 0 and draw 2 refreshed step 1.
  EXPECT_EQ(events[4],
            std::make_tuple(2, RecoveryAction::kDetectSingularFactor,
                            std::string("zero pivot in preconditioner "
                                        "refresh")));
  const auto& [shift_step, shift_action, shift_detail] = events[5];
  EXPECT_EQ(shift_step, 2);
  EXPECT_EQ(shift_action, RecoveryAction::kPivotShift);
  const auto after = shift_detail.find(" after ");
  ASSERT_NE(after, std::string::npos) << shift_detail;
  const int rungs = std::stoi(shift_detail.substr(after + 7));
  EXPECT_GE(rungs, 1);
  // One assembly per build or refresh, each with one draw, plus one per
  // rung: A is gone, so a rung assembles it again.
  EXPECT_EQ(prob.assemblies, inj.draws(FaultSite::kFactorPivot) + rungs);
}

// A failed first build logs its failure's detail and nothing else: no
// source location, so the recovery log and the checkpoint do not depend on
// where the tree was built. kFactorPivot fires on draw 0, the first of two
// gathered subdomains.
TEST(PtcRecovery, FirstBuildFailureLogsOnlyItsDetail) {
  for (const auto solver : {SubdomainSolver::kIlu, SubdomainSolver::kSsor}) {
    FaultInjector inj(1);
    FaultPlan first;
    first.fire_every = 1;
    first.max_fires = 1;
    inj.arm(FaultSite::kFactorPivot, first);
    PtcOptions o = campaign_options();
    o.recovery.enabled = true;
    o.schwarz.subdomain_solver = solver;
    const auto res = run_wing(&inj, o);
    ASSERT_FALSE(res.recovery_log.events().empty());
    const auto& e = res.recovery_log.events().front();
    EXPECT_EQ(e.step, 0);
    EXPECT_EQ(e.action, RecoveryAction::kDetectSingularFactor);
    EXPECT_EQ(e.detail, solver == SubdomainSolver::kIlu
                            ? "singular diagonal block in block ILU at local row 0"
                            : "singular diagonal block in SSOR at local row 0");
  }
}

// The headline campaign: 4 fault classes x 5 seeds. With recovery enabled
// >= 95% of runs must converge to rtol and none may abort; with recovery
// disabled every run must fail (abort or miss rtol).
TEST(FaultCampaign, RecoveryConvergesFaultsFailWithout) {
  const FaultClass classes[] = {
      FaultClass::kNanResidual, FaultClass::kZeroPivot,
      FaultClass::kGmresPoison, FaultClass::kBicgstabPoison};
  const std::uint64_t seeds[] = {11, 22, 33, 44, 55};

  int total = 0, recovered = 0, failed_without = 0;
  for (FaultClass cls : classes) {
    for (std::uint64_t seed : seeds) {
      ++total;
      // Recovery on: must not throw (no F3D_CHECK abort reachable).
      {
        auto inj = make_campaign_injector(cls, seed);
        PtcResult res;
        EXPECT_NO_THROW(res = run_wing(&inj, class_options(cls, true)))
            << "class " << static_cast<int>(cls) << " seed " << seed;
        if (res.converged) ++recovered;
      }
      // Recovery off: the same faults reproducibly fail.
      {
        auto inj = make_campaign_injector(cls, seed);
        bool failed = false;
        try {
          auto res = run_wing(&inj, class_options(cls, false));
          failed = !res.converged;
        } catch (const f3d::NumericalError&) {
          failed = true;
        }
        EXPECT_TRUE(failed) << "disabled run survived: class "
                            << static_cast<int>(cls) << " seed " << seed;
        if (failed) ++failed_without;
      }
    }
  }
  EXPECT_EQ(total, 20);
  EXPECT_GE(recovered * 100, total * 95)
      << "recovered " << recovered << "/" << total;
  EXPECT_EQ(failed_without, total);
}

// --- straggler injection in the parallel step model ----------------------

TEST(Straggler, InjectedSlowRankStretchesModeledSteps) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 10, .ny = 6, .nz = 6});
  auto g = mesh::build_graph(m.num_vertices(), m.edges());
  auto load = par::measure_load(g, part::kway_grow(g, 8));
  par::WorkCoefficients work;
  work.sparse_bytes_per_vertex_it = 400;
  std::vector<par::StepCounts> steps(10);

  auto clean = par::simulate_solve(perf::asci_red(), load, work, steps);
  EXPECT_EQ(clean.straggler_steps, 0);

  FaultInjector inj(17);
  FaultPlan p;
  p.fire_every = 2;  // every other modeled step hits a slow rank
  p.magnitude = 4.0;
  inj.arm(FaultSite::kRank, p);
  InjectorScope scope(&inj);
  auto slow = par::simulate_solve(perf::asci_red(), load, work, steps);
  EXPECT_EQ(slow.straggler_steps, 5);
  EXPECT_GT(slow.total_seconds, clean.total_seconds);
  // Stretch shows up as imbalance (implicit sync), not extra busy time.
  EXPECT_GT(slow.aggregate.t_implicit_sync, clean.aggregate.t_implicit_sync);
}

// --- checkpoint/restart --------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void expect_same_log(const RecoveryLog& a, const RecoveryLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].step, b.events()[i].step);
    EXPECT_EQ(a.events()[i].action, b.events()[i].action);
    EXPECT_EQ(a.events()[i].detail, b.events()[i].detail);
  }
}

TEST(Checkpoint, RoundTripIsBitExact) {
  PtcCheckpoint ck;
  ck.step = 7;
  Rng rng(12);
  ck.x.resize(257);
  for (auto& v : ck.x) v = rng.uniform(-10, 10);
  ck.rnorm = 1.2345678901234567e-3;
  ck.r0 = 9.87654321e2;
  ck.cfl_relax = 0.25;
  ck.function_evaluations = 1234;
  ck.total_linear_iterations = 5678;
  ck.gmres_restart = 40;
  ck.krylov = 1;
  FaultInjector inj(314);
  FaultPlan p;
  p.probability = 0.4;
  inj.arm(FaultSite::kResidual, p);
  FaultPlan straggler;
  straggler.probability = 0.1;
  straggler.magnitude = 3.75;  // carried in the serialized state
  inj.arm(FaultSite::kRank, straggler);
  for (int d = 0; d < 23; ++d) inj.should_fire(FaultSite::kResidual);
  for (int d = 0; d < 7; ++d) inj.should_fire(FaultSite::kRankFail);
  ck.injector = inj.state();
  ck.log.add(3, RecoveryAction::kStepRejected, "attempt 1");
  ck.log.add(3, RecoveryAction::kCflBacktrack, "cfl_relax=0.25");
  ck.log.add(5, RecoveryAction::kSpareSubstitution, "rank 2");

  const std::string path = temp_path("f3d_ck_roundtrip.bin");
  std::remove(path.c_str());
  ASSERT_TRUE(save_checkpoint(path, ck));
  auto back = load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->step, ck.step);
  ASSERT_EQ(back->x.size(), ck.x.size());
  EXPECT_EQ(0, std::memcmp(back->x.data(), ck.x.data(),
                           ck.x.size() * sizeof(double)));
  EXPECT_EQ(back->rnorm, ck.rnorm);  // bitwise: no text round trip
  EXPECT_EQ(back->r0, ck.r0);
  EXPECT_EQ(back->cfl_relax, ck.cfl_relax);
  EXPECT_EQ(back->function_evaluations, ck.function_evaluations);
  EXPECT_EQ(back->total_linear_iterations, ck.total_linear_iterations);
  EXPECT_EQ(back->gmres_restart, ck.gmres_restart);
  EXPECT_EQ(back->krylov, ck.krylov);
  ASSERT_TRUE(back->injector.has_value());
  EXPECT_EQ(back->injector->seed, ck.injector->seed);
  EXPECT_EQ(back->injector->draws, ck.injector->draws);
  EXPECT_EQ(back->injector->fires, ck.injector->fires);
  EXPECT_EQ(back->injector->magnitudes, ck.injector->magnitudes);
  EXPECT_EQ(back->injector->magnitudes[static_cast<int>(FaultSite::kRank)],
            3.75);
  expect_same_log(back->log, ck.log);
  std::remove(path.c_str());

  // A solve without an injector checkpoints none, and restores none.
  ck.injector.reset();
  const auto bare = decode_checkpoint(encode_checkpoint(ck));
  ASSERT_TRUE(bare.has_value());
  EXPECT_FALSE(bare->injector.has_value());
  EXPECT_EQ(bare->step, ck.step);
  EXPECT_EQ(0, std::memcmp(bare->x.data(), ck.x.data(),
                           ck.x.size() * sizeof(double)));
  EXPECT_EQ(bare->gmres_restart, ck.gmres_restart);
  expect_same_log(bare->log, ck.log);
}

TEST(Checkpoint, MissingOrCorruptFilesAreRejected) {
  EXPECT_FALSE(load_checkpoint(temp_path("f3d_ck_missing.bin")).has_value());
  const std::string path = temp_path("f3d_ck_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "F3DCKPT2truncated";
  }
  EXPECT_FALSE(load_checkpoint(path).has_value());
  std::remove(path.c_str());
}

// Every single-byte corruption of the payload must be caught by the CRC,
// and truncation / version skew rejected before the payload is parsed.
TEST(Checkpoint, SingleFlippedByteFailsTheCrc) {
  PtcCheckpoint ck;
  ck.step = 11;
  ck.x = {1.0, 2.0, 3.0, 4.0};
  ck.rnorm = 1e-4;
  ck.log.add(2, RecoveryAction::kPivotShift, "shift=1e-06");
  const std::string bytes = encode_checkpoint(ck);
  ASSERT_TRUE(decode_checkpoint(bytes).has_value());

  const std::size_t header = 8 + 4 + 4 + 8;  // magic+version+crc+size
  for (std::size_t i = header; i < bytes.size(); i += 7) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(decode_checkpoint(bad).has_value()) << "byte " << i;
  }
  // Truncation at any point is rejected too.
  EXPECT_FALSE(
      decode_checkpoint(bytes.substr(0, bytes.size() - 1)).has_value());
  EXPECT_FALSE(decode_checkpoint(bytes.substr(0, header)).has_value());
  // A checkpoint from a different format version is rejected up front,
  // before its payload is parsed: a later version, and the previous one
  // (3, whose payload also held steps_done and the campaign's fields).
  std::string skewed = bytes;
  skewed[8] = static_cast<char>(kCheckpointFormatVersion + 1);
  EXPECT_FALSE(decode_checkpoint(skewed).has_value());
  ASSERT_EQ(kCheckpointFormatVersion, 4u);
  std::string v3 = bytes;
  v3[8] = 3;
  EXPECT_FALSE(decode_checkpoint(v3).has_value());
  // Appending trailing garbage is not a valid checkpoint either.
  EXPECT_FALSE(decode_checkpoint(bytes + "x").has_value());
}

// On disk: corrupt one byte of a saved file and require rejection (the
// load path goes through the same CRC frame).
TEST(Checkpoint, CorruptedFileOnDiskIsRejected) {
  PtcCheckpoint ck;
  ck.step = 3;
  ck.x = {5.0, 6.0};
  const std::string path = temp_path("f3d_ck_bitflip.bin");
  std::remove(path.c_str());
  ASSERT_TRUE(save_checkpoint(path, ck));
  ASSERT_TRUE(load_checkpoint(path).has_value());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);  // somewhere inside the payload
    char c = 0;
    f.seekg(40);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(40);
    f.write(&c, 1);
  }
  EXPECT_FALSE(load_checkpoint(path).has_value());
  std::remove(path.c_str());
}

// Torn-write restore: save two generations, tear the primary (truncate
// mid-payload), and require the fallback loader to reject the torn file
// and restore the previous verified generation kept by save_checkpoint.
TEST(Checkpoint, TornPrimaryFallsBackToPreviousGeneration) {
  const std::string path = temp_path("f3d_ck_torn.bin");
  const std::string prev = path + ".prev";
  std::remove(path.c_str());
  std::remove(prev.c_str());

  PtcCheckpoint gen1;
  gen1.step = 5;
  gen1.x = {1.0, 2.0, 3.0};
  gen1.rnorm = 1e-3;
  PtcCheckpoint gen2;
  gen2.step = 9;
  gen2.x = {4.0, 5.0, 6.0};
  gen2.rnorm = 1e-5;
  ASSERT_TRUE(save_checkpoint(path, gen1));
  ASSERT_TRUE(save_checkpoint(path, gen2));  // rotates gen1 to .prev

  // Intact primary wins; no fallback.
  std::string from;
  auto intact = load_checkpoint_with_fallback(path, &from);
  ASSERT_TRUE(intact.has_value());
  EXPECT_EQ(intact->step, 9);
  EXPECT_EQ(from, path);

  // Tear the primary: truncate it mid-payload, as a crash or full disk
  // that bypassed the atomic-rename protocol would.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  ASSERT_FALSE(load_checkpoint(path).has_value());

  auto back = load_checkpoint_with_fallback(path, &from);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->step, 5);  // the previous verified generation
  ASSERT_EQ(back->x.size(), 3u);
  EXPECT_EQ(back->x[0], 1.0);
  EXPECT_EQ(back->rnorm, 1e-3);
  EXPECT_EQ(from, prev);

  // Both generations gone: restore reports nothing to resume from.
  std::remove(path.c_str());
  std::remove(prev.c_str());
  EXPECT_FALSE(load_checkpoint_with_fallback(path).has_value());
}

// A payload whose CRC is valid but whose state length is absurd (2^58
// doubles) must be rejected before anything is allocated for it: decode
// returns nullopt, and restore falls back to the previous generation.
TEST(Checkpoint, CrcValidHugeStateLengthIsRejected) {
  PtcCheckpoint ck;
  ck.step = 4;
  ck.x = {1.0, 2.0};
  std::string bytes = encode_checkpoint(ck);
  const std::size_t header = 8 + 4 + 4 + 8;  // magic+version+crc+size
  const std::int64_t huge = std::int64_t{1} << 58;
  // Payload: step (int64), then the state length (int64).
  std::memcpy(&bytes[header + 8], &huge, sizeof huge);
  const std::uint32_t crc = crc32(bytes.data() + header, bytes.size() - header);
  std::memcpy(&bytes[8 + 4], &crc, sizeof crc);
  EXPECT_FALSE(decode_checkpoint(bytes).has_value());

  const std::string path = temp_path("f3d_ck_huge.bin");
  const std::string prev = path + ".prev";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  ASSERT_TRUE(save_checkpoint(path, ck));
  ASSERT_TRUE(save_checkpoint(path, ck));  // rotates the first to .prev
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::string from;
  const auto back = load_checkpoint_with_fallback(path, &from);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(from, prev);
  EXPECT_EQ(back->step, 4);
  EXPECT_EQ(back->x, ck.x);
  std::remove(path.c_str());
  std::remove(prev.c_str());
}

// Decoding restores the log without tallying it: the registry counts what
// this process did, so a resume in the same process does not count the
// pre-kill events a second time.
TEST(Checkpoint, DecodeDoesNotRecountRestoredEvents) {
  PtcCheckpoint ck;
  ck.step = 3;
  ck.log.add(1, RecoveryAction::kStepRejected, "attempt 1");
  ck.log.add(2, RecoveryAction::kStepRejected, "attempt 1");
  const std::string bytes = encode_checkpoint(ck);
  const auto resilience_counters = [] {
    auto counters = obs::Registry::global().snapshot().counters;
    std::erase_if(counters, [](const auto& kv) {
      return !kv.first.starts_with("resilience.");
    });
    return counters;
  };
  const auto before = resilience_counters();
  const auto back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->log.count(RecoveryAction::kStepRejected), 2);
  EXPECT_EQ(resilience_counters(), before);
}

// A CRC-valid payload whose event carries an action outside the enum is
// rejected, not restored as an "unknown" event.
TEST(Checkpoint, CrcValidUnknownActionIsRejected) {
  const auto encode_with = [](RecoveryAction action) {
    PtcCheckpoint ck;
    ck.step = 2;
    ck.x = {1.0};
    ck.log.add(1, action, "detail");
    return encode_checkpoint(ck);
  };
  std::string bytes = encode_with(RecoveryAction::kStepRejected);
  const std::string other = encode_with(RecoveryAction::kCflBacktrack);
  const std::size_t header = 8 + 4 + 4 + 8;  // magic+version+crc+size
  // The two encodings differ in the CRC and in the action field only.
  std::size_t at = header;
  while (bytes[at] == other[at]) ++at;
  const std::int32_t bogus = 999;
  std::memcpy(&bytes[at], &bogus, sizeof bogus);
  const std::uint32_t crc = crc32(bytes.data() + header, bytes.size() - header);
  std::memcpy(&bytes[8 + 4], &crc, sizeof crc);
  EXPECT_FALSE(decode_checkpoint(bytes).has_value());
  // The same splice of a valid action decodes.
  const std::int32_t valid = static_cast<std::int32_t>(RecoveryAction::kPivotShift);
  std::memcpy(&bytes[at], &valid, sizeof valid);
  const std::uint32_t crc2 = crc32(bytes.data() + header, bytes.size() - header);
  std::memcpy(&bytes[8 + 4], &crc2, sizeof crc2);
  const auto back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->log.count(RecoveryAction::kPivotShift), 1);
}

// A resume checks the checkpoint's Krylov fields before it overwrites the
// caller's state: a method outside KrylovMethod, or a restart length
// outside [0, max(gmres.restart, kGmresRestartMax)] (0 = unset), for which
// GMRES would size its basis, is rejected.
TEST(Checkpoint, ResumeRejectsOutOfRangeKrylovFields) {
  const std::string path = temp_path("f3d_ck_krylov.bin");
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  PtcOptions opts = campaign_options();
  opts.recovery.enabled = true;
  opts.recovery.checkpoint_path = path;
  opts.gmres.restart = 20;
  PtcOptions killed = opts;
  killed.max_steps = 2;
  ASSERT_FALSE(run_wing(nullptr, killed).converged);
  const auto written = load_checkpoint(path);
  ASSERT_TRUE(written.has_value());

  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  opts.recovery.resume = true;
  const auto resume_with = [&](std::int32_t krylov, std::int32_t restart,
                               std::vector<double>& x) {
    PtcCheckpoint ck = *written;
    ck.krylov = krylov;
    ck.gmres_restart = restart;
    EXPECT_TRUE(save_checkpoint(path, ck));
    return ptc_solve(prob, x, opts);
  };
  const std::vector<double> x0 = prob.initial_state();
  const struct {
    std::int32_t krylov, restart;
  } rejected[] = {{7, 0}, {0, -1}, {0, 121}};
  for (const auto& c : rejected) {
    std::vector<double> x = x0;
    EXPECT_THROW(resume_with(c.krylov, c.restart, x), Error)
        << "krylov " << c.krylov << ", restart " << c.restart;
    EXPECT_EQ(x, x0);
  }
  std::vector<double> x = x0;
  const auto res = resume_with(0, 40, x);
  EXPECT_EQ(res.recovery_log.count(RecoveryAction::kResume), 1);
  EXPECT_TRUE(res.converged);
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

// A resume checks the continuation scalars too, against the ranges a
// solve writes: step in [0, INT_MAX], counters >= 0, a finite r0 > 0, a
// finite rnorm >= 0, and cfl_relax in (0, 1]. A rejected checkpoint
// throws before the caller's state is touched.
TEST(Checkpoint, ResumeRejectsOutOfRangeScalars) {
  const std::string path = temp_path("f3d_ck_scalars.bin");
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  PtcOptions opts = campaign_options();
  opts.recovery.enabled = true;
  opts.recovery.checkpoint_path = path;
  PtcOptions killed = opts;
  killed.max_steps = 2;
  ASSERT_FALSE(run_wing(nullptr, killed).converged);
  const auto written = load_checkpoint(path);
  ASSERT_TRUE(written.has_value());

  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  opts.recovery.resume = true;
  const std::vector<double> x0 = prob.initial_state();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    void (*edit)(PtcCheckpoint&);
  } rejected[] = {
      {"step -5", [](PtcCheckpoint& ck) { ck.step = -5; }},
      {"step 2^40", [](PtcCheckpoint& ck) { ck.step = std::int64_t{1} << 40; }},
      {"r0 0", [](PtcCheckpoint& ck) { ck.r0 = 0; }},
      {"r0 -1", [](PtcCheckpoint& ck) { ck.r0 = -1; }},
      {"r0 NaN", [](PtcCheckpoint& ck) { ck.r0 = kNan; }},
      {"r0 inf", [](PtcCheckpoint& ck) { ck.r0 = kInf; }},
      {"rnorm NaN", [](PtcCheckpoint& ck) { ck.rnorm = kNan; }},
      {"rnorm inf", [](PtcCheckpoint& ck) { ck.rnorm = kInf; }},
      {"rnorm -1", [](PtcCheckpoint& ck) { ck.rnorm = -1; }},
      {"cfl_relax 0", [](PtcCheckpoint& ck) { ck.cfl_relax = 0; }},
      {"cfl_relax NaN", [](PtcCheckpoint& ck) { ck.cfl_relax = kNan; }},
      {"cfl_relax 2", [](PtcCheckpoint& ck) { ck.cfl_relax = 2; }},
      {"function_evaluations -1",
       [](PtcCheckpoint& ck) { ck.function_evaluations = -1; }},
      {"total_linear_iterations -1",
       [](PtcCheckpoint& ck) { ck.total_linear_iterations = -1; }},
  };
  for (const auto& c : rejected) {
    PtcCheckpoint ck = *written;
    c.edit(ck);
    ASSERT_TRUE(save_checkpoint(path, ck));
    std::vector<double> x = x0;
    EXPECT_THROW(ptc_solve(prob, x, opts), Error) << c.what;
    EXPECT_EQ(x, x0) << c.what;
  }
  ASSERT_TRUE(save_checkpoint(path, *written));
  std::vector<double> x = x0;
  const auto res = ptc_solve(prob, x, opts);
  EXPECT_EQ(res.recovery_log.count(RecoveryAction::kResume), 1);
  EXPECT_TRUE(res.converged);
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

// Kill a run mid-solve, resume from its checkpoint, and require the
// resumed trajectory to be bit-identical to an uninterrupted run — with a
// live fault injector, so the injector stream restore is exercised too.
TEST(Checkpoint, KilledRunResumesBitIdentically) {
  // NaN residual faults, killed well before convergence (~6 steps).
  const auto nan_opts = class_options(FaultClass::kNanResidual, true);
  // A poisoned GMRES, killed after the Krylov ladder escalated the restart
  // length twice (growing the iteration cap past 10) and swapped to
  // BiCGStab, which inherits that cap: the resumed run must keep it.
  auto gmres_opts = class_options(FaultClass::kGmresPoison, true);
  gmres_opts.gmres.rtol = 1e-12;
  gmres_opts.gmres.max_iters = 10;
  const struct {
    FaultClass cls;
    std::uint64_t seed;
    int kill_at_steps;
    PtcOptions opts;
  } cases[] = {{FaultClass::kNanResidual, 4, 3, nan_opts},
               {FaultClass::kGmresPoison, 3, 2, gmres_opts}};

  for (const auto& c : cases) {
    SCOPED_TRACE("fault class " + std::to_string(static_cast<int>(c.cls)));
    const std::string full_path = temp_path("f3d_ck_full.bin");
    const std::string kill_path = temp_path("f3d_ck_killed.bin");
    std::remove(full_path.c_str());
    std::remove(kill_path.c_str());
    const PtcOptions& opts = c.opts;

    // Uninterrupted reference run.
    auto inj_full = make_campaign_injector(c.cls, c.seed);
    PtcOptions o_full = opts;
    o_full.recovery.checkpoint_path = full_path;
    std::vector<double> x_full;
    auto res_full = run_wing(&inj_full, o_full, &x_full);
    ASSERT_TRUE(res_full.converged);

    // "Killed" run: same faults, stopped early, leaving a checkpoint.
    auto inj_kill = make_campaign_injector(c.cls, c.seed);
    PtcOptions o_kill = opts;
    o_kill.recovery.checkpoint_path = kill_path;
    o_kill.max_steps = c.kill_at_steps;
    auto res_kill = run_wing(&inj_kill, o_kill);
    ASSERT_FALSE(res_kill.converged);
    ASSERT_GT(res_kill.recovery_log.count(RecoveryAction::kCheckpointWrite), 0);

    // Resume: a fresh process would re-arm the injector and restore.
    auto inj_resume = make_campaign_injector(c.cls, c.seed);
    PtcOptions o_resume = opts;
    o_resume.recovery.checkpoint_path = kill_path;
    o_resume.recovery.resume = true;
    std::vector<double> x_resume;
    auto res_resume = run_wing(&inj_resume, o_resume, &x_resume);
    EXPECT_TRUE(res_resume.converged);
    const auto& events = res_resume.recovery_log.events();
    const auto resume =
        std::find_if(events.begin(), events.end(), [](const RecoveryEvent& e) {
          return e.action == RecoveryAction::kResume;
        });
    ASSERT_NE(resume, events.end());
    EXPECT_EQ(resume->step, c.kill_at_steps);

    // The restored log carries the ladder's tallies across the kill.
    for (const RecoveryAction a :
         {RecoveryAction::kStepRejected, RecoveryAction::kDetectSdc,
          RecoveryAction::kSdcRecompute, RecoveryAction::kSdcRollback})
      EXPECT_EQ(res_resume.recovery_log.count(a),
                res_full.recovery_log.count(a))
          << recovery_action_name(a);

    // Bitwise-identical final state: exact double equality, no tolerance.
    EXPECT_EQ(res_resume.final_residual, res_full.final_residual);
    EXPECT_EQ(res_resume.steps, res_full.steps);
    EXPECT_EQ(res_resume.total_linear_iterations,
              res_full.total_linear_iterations);
    ASSERT_EQ(x_resume.size(), x_full.size());
    EXPECT_EQ(0, std::memcmp(x_resume.data(), x_full.data(),
                             x_full.size() * sizeof(double)));

    std::remove(full_path.c_str());
    std::remove(kill_path.c_str());
  }
}

}  // namespace
