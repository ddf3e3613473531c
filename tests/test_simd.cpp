// SIMD wrapper + mixed-precision contracts:
//  * f3d::simd pack semantics (load/store/gather/promote, the FIXED
//    pairwise hsum order every horizontal reduction in the library uses),
//  * the runtime scalar/SIMD toggle and its elementwise bit-identity
//    guarantee (axpy-family kernels round identically in both configs),
//  * thread-count bit-invariance of the hot kernels in BOTH configs —
//    the determinism contract is per (isa, precision) configuration,
//  * float-storage/double-accumulate equivalences: exact for float-
//    representable values, bounded by the float unit roundoff otherwise
//    (the error-budget the ABFT guard and the mixed psi-NKS solve rely
//    on).

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include "cfd/euler.hpp"
#include "cfd/problem.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"
#include "mesh/generator.hpp"
#include "solver/newton.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using simd::Vd;

// --- pack semantics -------------------------------------------------------

TEST(SimdWrapper, ReportsConsistentConfig) {
  // double_lanes() reports what the dispatched kernels use: the full pack
  // when the vector paths are live, 1 on the scalar fallback.
  EXPECT_EQ(simd::double_lanes(), simd::enabled() ? simd::kDoubleLanes : 1);
  EXPECT_EQ(simd::kDoubleLanes, 4);
  EXPECT_NE(simd::isa_name(), nullptr);
  EXPECT_NE(simd::target_arch(), nullptr);
  // enabled() can never claim SIMD that was not compiled in.
  if (!simd::compiled()) {
    EXPECT_FALSE(simd::enabled());
  }
}

TEST(SimdWrapper, EnabledScopeTogglesAndRestores) {
  const bool before = simd::enabled();
  {
    simd::EnabledScope off(false);
    EXPECT_FALSE(simd::enabled());
    {
      simd::EnabledScope on(true);
      EXPECT_EQ(simd::enabled(), simd::compiled());
    }
    EXPECT_FALSE(simd::enabled());
  }
  EXPECT_EQ(simd::enabled(), before);
}

TEST(SimdWrapper, LoadStoreRoundTrip) {
  const double src[4] = {1.5, -2.25, 3.0e10, -0.0};
  double dst[4] = {};
  Vd::loadu(src).storeu(dst);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dst[i], src[i]);
    EXPECT_EQ(Vd::loadu(src).lane(i), src[i]);
  }
  const Vd b = Vd::broadcast(7.25);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.lane(i), 7.25);
  const Vd z = Vd::zero();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(z.lane(i), 0.0);
}

TEST(SimdWrapper, PromotingFloatLoadIsExact) {
  // Float-storage kernels promote on load: each lane must be the exact
  // double value of the stored float (promotion is always exact).
  const float src[4] = {1.5F, -2.25F, 3.1415927F, 1.0e-30F};
  const Vd v = Vd::loadu(src);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(v.lane(i), static_cast<double>(src[i]));
}

TEST(SimdWrapper, GatherMatchesIndexedLoads) {
  std::vector<double> base(32);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = 0.25 * static_cast<double>(i) - 3.0;
  const int idx[4] = {31, 0, 17, 4};
  const Vd g = Vd::gather(base.data(), idx);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(g.lane(i), base[idx[i]]);
}

TEST(SimdWrapper, HsumIsFixedPairwiseOrder) {
  // The determinism contract pins hsum to (l0+l1) + (l2+l3); values are
  // chosen so other association orders round differently.
  const double src[4] = {1.0, 1e-16, -1.0, 1e-16};
  const double expect = (src[0] + src[1]) + (src[2] + src[3]);
  EXPECT_EQ(Vd::loadu(src).hsum(), expect);
  // And NOT the sequential order for this input.
  const double sequential = ((src[0] + src[1]) + src[2]) + src[3];
  EXPECT_NE(expect, sequential);
}

TEST(SimdWrapper, ArithmeticOperatorsMatchScalarLanewise) {
  const double a[4] = {1.5, -2.0, 0.125, 1e8};
  const double b[4] = {-0.5, 3.0, 7.75, 1e-8};
  const Vd va = Vd::loadu(a), vb = Vd::loadu(b);
  const Vd sum = va + vb, diff = va - vb, prod = va * vb;
  Vd acc = Vd::loadu(a);
  acc += vb;
  Vd acc2 = Vd::loadu(a);
  acc2 -= vb;
  Vd acc3 = Vd::loadu(a);
  acc3 *= vb;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sum.lane(i), a[i] + b[i]);
    EXPECT_EQ(diff.lane(i), a[i] - b[i]);
    EXPECT_EQ(prod.lane(i), a[i] * b[i]);
    EXPECT_EQ(acc.lane(i), a[i] + b[i]);
    EXPECT_EQ(acc2.lane(i), a[i] - b[i]);
    EXPECT_EQ(acc3.lane(i), a[i] * b[i]);
  }
}

// --- scalar/SIMD config contracts -----------------------------------------

std::vector<double> pattern_vector(int n, double phase) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = std::sin(0.1 * i + phase) + 2.0;
  return x;
}

TEST(SimdConfig, AxpyFamilyIsBitIdenticalScalarVsSimd) {
  // Elementwise kernels do the same per-element arithmetic in both
  // configs — packs only batch independent elements — so the outputs are
  // bit-identical, not merely close.
  const int n = 10007;  // odd: exercises the scalar tail
  const auto x = pattern_vector(n, 0.0);
  auto y1 = pattern_vector(n, 1.0);
  auto y2 = y1;
  {
    simd::EnabledScope off(false);
    sparse::axpy(1.7, x, y1);
    sparse::scale(y1, 1.25);
  }
  {
    simd::EnabledScope on(true);
    sparse::axpy(1.7, x, y2);
    sparse::scale(y2, 1.25);
  }
  EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(double)), 0);
}

sparse::Bcsr<double> wing_jacobian(cfd::EulerDiscretization& disc) {
  auto q = disc.make_freestream_field();
  auto jac = disc.allocate_jacobian();
  disc.jacobian(q, jac);
  for (int i = 0; i < jac.nrows; ++i) {
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  return jac;
}

TEST(SimdConfig, HotKernelsAreThreadCountInvariantInBothConfigs) {
  // The bit-determinism contract is per (isa, precision) config: within
  // one config, 1/2/4 threads produce byte-identical results. Scalar and
  // SIMD configs may legitimately differ (horizontal reductions round
  // differently) — that cross-config difference is NOT asserted either
  // way.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc(m, cfg);
  const auto q = disc.make_freestream_field();
  const auto jac = wing_jacobian(disc);
  const int n = disc.num_unknowns();
  const auto x = pattern_vector(n, 0.5);

  const int before = exec::pool().num_threads();
  for (bool use_simd : {false, true}) {
    simd::EnabledScope scope(use_simd);
    std::vector<double> r1, y1(static_cast<std::size_t>(n));
    double d1 = 0;
    for (int nt : {1, 2, 4}) {
      exec::set_threads(nt);
      std::vector<double> r, y(static_cast<std::size_t>(n));
      disc.residual(q, r);
      jac.spmv(x.data(), y.data());
      const double d = exec::dot(n, x.data(), y.data());
      if (nt == 1) {
        r1 = r;
        y1 = y;
        d1 = d;
        continue;
      }
      EXPECT_EQ(std::memcmp(r.data(), r1.data(), r.size() * sizeof(double)),
                0)
          << "residual, simd=" << use_simd << ", " << nt << " threads";
      EXPECT_EQ(std::memcmp(y.data(), y1.data(), y.size() * sizeof(double)),
                0)
          << "spmv, simd=" << use_simd << ", " << nt << " threads";
      EXPECT_EQ(d, d1) << "dot, simd=" << use_simd << ", " << nt
                       << " threads";
    }
  }
  exec::set_threads(before);
}

TEST(SimdConfig, TrisolveLevelScheduleMatchesSerialInBothConfigs) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 5, .ny = 4, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  const auto jac = wing_jacobian(disc);
  const int n = jac.scalar_n();
  const sparse::BlockIlu<double> ilu(jac, 0);
  const auto b = pattern_vector(n, 0.25);

  const int before = exec::pool().num_threads();
  for (bool use_simd : {false, true}) {
    simd::EnabledScope scope(use_simd);
    std::vector<double> zs(static_cast<std::size_t>(n)),
        zl(static_cast<std::size_t>(n));
    ilu.solve(b.data(), zs.data());
    for (int nt : {1, 2, 4}) {
      exec::set_threads(nt);
      ilu.solve_levels(b.data(), zl.data());
      EXPECT_EQ(std::memcmp(zs.data(), zl.data(), zs.size() * sizeof(double)),
                0)
          << "simd=" << use_simd << ", " << nt << " threads";
    }
  }
  exec::set_threads(before);
}

// --- mixed precision (float storage, double accumulate) -------------------

TEST(MixedPrecision, FloatStorageIsExactForRepresentableValues) {
  // Multiples of 0.25 in a small range are exact floats: narrowing loses
  // nothing, promote-on-load restores the identical doubles, so the
  // products agree BITWISE within each SIMD config.
  sparse::Bcsr<double> a;
  a.nb = 4;
  a.nrows = 8;
  a.ptr.push_back(0);
  for (int i = 0; i < a.nrows; ++i) {
    a.col.push_back(i);
    if (i + 1 < a.nrows) a.col.push_back(i + 1);
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  a.val.resize(a.nblocks() * 16);
  for (std::size_t k = 0; k < a.val.size(); ++k)
    a.val[k] = 0.25 * static_cast<double>((k % 64)) - 4.0;
  a.check();
  const auto af = a.convert<float>();
  std::vector<double> x(static_cast<std::size_t>(a.scalar_n()));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 * static_cast<double>(i % 16) - 2.0;

  for (bool use_simd : {false, true}) {
    simd::EnabledScope scope(use_simd);
    std::vector<double> yd(x.size()), yf(x.size());
    a.spmv(x.data(), yd.data());
    af.spmv(x.data(), yf.data());
    EXPECT_EQ(std::memcmp(yd.data(), yf.data(), yd.size() * sizeof(double)),
              0)
        << "simd=" << use_simd;
  }
}

TEST(MixedPrecision, SpmvErrorWithinFloatUnitRoundoffBudget) {
  // Error budget: each stored entry carries one float rounding, so
  // |y_f - y_d|_i <= u_f * (|A| |x|)_i elementwise (plus accumulation
  // noise absorbed in a small slack). This is the bound the widened ABFT
  // guard is calibrated against.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 5, .ny = 4, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  const auto jac = wing_jacobian(disc);
  const auto jac_f = jac.convert<float>();
  const int n = jac.scalar_n();
  const auto x = pattern_vector(n, 0.75);

  // |A| |x| elementwise via an absolute-value copy.
  auto jac_abs = jac;
  for (auto& v : jac_abs.val) v = std::fabs(v);
  auto x_abs = x;
  for (auto& v : x_abs) v = std::fabs(v);
  std::vector<double> yd(static_cast<std::size_t>(n)),
      yf(static_cast<std::size_t>(n)), mass(static_cast<std::size_t>(n));
  jac.spmv(x.data(), yd.data());
  jac_f.spmv(x.data(), yf.data());
  jac_abs.spmv(x_abs.data(), mass.data());

  const double slack = 8.0;  // accumulation-length headroom
  for (int i = 0; i < n; ++i)
    EXPECT_LE(std::fabs(yf[i] - yd[i]),
              slack * FLT_EPSILON * mass[static_cast<std::size_t>(i)] +
                  1e-300)
        << "row " << i;
}

TEST(MixedPrecision, FloatGradientResidualCloseToDouble) {
  // reco_single_precision stores gradients/limiters in float; the
  // second-order residual must track the double-storage one to float
  // accuracy relative to the local flux magnitude.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc_d(m, cfg);
  cfd::FlowConfig cfg_f = cfg;
  cfg_f.reco_single_precision = true;
  cfd::EulerDiscretization disc_f(m, cfg_f);

  // A non-trivial state (freestream has zero gradients): perturb each
  // component deterministically.
  auto q = disc_d.make_freestream_field();
  auto& qd = q.data();
  for (std::size_t i = 0; i < qd.size(); ++i)
    qd[i] += 0.05 * std::sin(0.37 * static_cast<double>(i));

  std::vector<double> rd, rf;
  disc_d.residual(q, rd);
  disc_f.residual(q, rf);
  ASSERT_EQ(rd.size(), rf.size());
  double rmax = 0;
  for (double v : rd) rmax = std::max(rmax, std::fabs(v));
  ASSERT_GT(rmax, 0.0);
  for (std::size_t i = 0; i < rd.size(); ++i)
    EXPECT_NEAR(rf[i], rd[i], 1e-4 * rmax) << "unknown " << i;
}

// The double solve's achieved stopping bound: rtol * r0 (what converged
// means); computed from the double result so both runs are held to the
// identical threshold.
double rtol_bound(const solver::PtcResult& rd) {
  return 1e-8 * rd.initial_residual * (1.0 + 1e-12);
}

TEST(MixedPrecision, MixedSolveConvergesToSameToleranceAsDouble) {
  // The end-to-end contract: with float operator storage and float ILU
  // factors, psi-NKS still converges to the same tolerance — storage
  // precision perturbs the *solver*, not the residual definition, so
  // only the iteration path may differ (within a small budget).
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 5, .ny = 4, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);

  auto run = [&](bool mixed) {
    solver::PtcOptions o;
    o.cfl0 = 20.0;
    o.max_steps = 200;
    o.rtol = 1e-8;
    o.num_subdomains = 2;
    o.matrix_free = false;
    o.matrix_single_precision = mixed;
    o.schwarz.single_precision = mixed;
    auto x = prob.initial_state();
    return solver::ptc_solve(prob, x, o);
  };
  const auto rd = run(false);
  const auto rf = run(true);
  EXPECT_TRUE(rd.converged);
  EXPECT_TRUE(rf.converged) << "mixed-precision solve failed to reach the "
                               "tolerance the double solve reached";
  // Same tolerance reached; the step count may drift by a small budget.
  EXPECT_LE(rf.final_residual, rtol_bound(rd))
      << "mixed solve stopped above the double solve's achieved tolerance";
  EXPECT_LE(std::abs(rf.steps - rd.steps), 3);
}

}  // namespace
