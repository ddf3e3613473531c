// Silent-data-corruption defense tests: the deterministic bit-flip
// injector, the ABFT checksummed SpMV (clean pass / corrupted fail /
// low-bit escape), Krylov invariant monitors, the physical-admissibility
// scan, the psi-NKS recompute/rollback rungs, checkpoint decode under an
// exhaustive corruption sweep, the hardened JSON parser's malformed-input
// corpus, and the ABFT false-positive guarantee on a long clean solve at
// several thread counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfd/admissibility.hpp"
#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "mesh/generator.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"
#include "solver/krylov.hpp"
#include "solver/newton.hpp"
#include "sparse/abft.hpp"
#include "sparse/csr.hpp"

namespace {

using namespace f3d;
using namespace f3d::resilience;

// --- bit-flip primitives --------------------------------------------------

TEST(BitFlip, FlipIsItsOwnInverse) {
  const double v = 3.14159;
  for (int bit = 0; bit < 64; ++bit) {
    const double f = flip_bit(v, bit);
    EXPECT_NE(std::memcmp(&f, &v, sizeof v), 0) << "bit " << bit;
    const double back = flip_bit(f, bit);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << "bit " << bit;
  }
  EXPECT_EQ(flip_bit(1.0, 63), -1.0);  // sign bit
  EXPECT_THROW((void)flip_bit(1.0, 64), f3d::Error);
  EXPECT_THROW((void)flip_bit(1.0, -1), f3d::Error);
}

TEST(BitFlip, LowMantissaBitIsATinyPerturbation) {
  const double v = 1.5;
  const double f = flip_bit(v, 0);
  EXPECT_NE(f, v);
  EXPECT_LT(std::abs(f - v) / v, 1e-15);  // the SDC class NaN guards miss
  // Exponent flips are loud: bit 61 of a [1,2) value scales it by 2^-512
  // (bit 62 would land the exponent on all-ones, i.e. NaN — the one flip
  // the classic guards DO see).
  EXPECT_LT(std::abs(flip_bit(v, 61) / v), 1e-100);
  EXPECT_TRUE(std::isnan(flip_bit(v, 62)));
}

TEST(BitFlip, MaybeFlipIsDeterministicAndTargeted) {
  std::vector<double> data(100, 2.0);
  // No injector registered: nothing fires, nothing consumed.
  EXPECT_EQ(maybe_flip(FlipTarget::kState, data.data(), 100), -1);

  FaultInjector inj(123);
  FaultPlan p;
  p.fire_every = 1;
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 52, .target = FlipTarget::kState});
  InjectorScope scope(&inj);

  // Mismatched target: passes without consuming a draw, so campaigns
  // stay comparable across targets.
  EXPECT_EQ(maybe_flip(FlipTarget::kMatrix, data.data(), 100), -1);
  EXPECT_EQ(inj.draws(FaultSite::kBitFlip), 0);

  const long long idx = maybe_flip(FlipTarget::kState, data.data(), 100);
  ASSERT_GE(idx, 0);
  ASSERT_LT(idx, 100);
  EXPECT_EQ(inj.draws(FaultSite::kBitFlip), 1);
  EXPECT_EQ(data[static_cast<std::size_t>(idx)], flip_bit(2.0, 52));
  for (long long i = 0; i < 100; ++i) {
    if (i == idx) continue;
    EXPECT_EQ(data[static_cast<std::size_t>(i)], 2.0);
  }

  // Same seed, same draw history -> same element.
  FaultInjector inj2(123);
  inj2.arm(FaultSite::kBitFlip, p);
  inj2.set_bit_flip({.bit = 52, .target = FlipTarget::kState});
  InjectorScope scope2(&inj2);
  std::vector<double> data2(100, 2.0);
  EXPECT_EQ(maybe_flip(FlipTarget::kState, data2.data(), 100), idx);
}

// --- ABFT checksummed SpMV ------------------------------------------------

sparse::Csr<double> laplacian1d(int n) {
  sparse::Csr<double> a;
  a.n = n;
  a.ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      a.col.push_back(i - 1);
      a.val.push_back(-1.0 + 0.01 * i);  // nonsymmetric, varied magnitudes
    }
    a.col.push_back(i);
    a.val.push_back(2.5 + 0.1 * (i % 7));
    if (i + 1 < n) {
      a.col.push_back(i + 1);
      a.val.push_back(-1.2);
    }
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  return a;
}

std::vector<double> test_vector(int n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = std::sin(0.1 * i) + 2.0;
  return x;
}

TEST(Abft, CleanSpmvVerifies) {
  auto a = laplacian1d(500);
  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.n);
  std::vector<double> y;
  EXPECT_TRUE(sparse::spmv_verified(g, a, x, y));
  EXPECT_EQ(g.verifies, 1);
  EXPECT_EQ(g.failures, 0);
}

TEST(Abft, ExponentFlipInMatrixIsCaught) {
  auto a = laplacian1d(500);
  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.n);
  std::vector<double> y;
  for (int bit = 52; bit <= 63; ++bit) {
    auto corrupt = a;
    corrupt.val[777] = resilience::flip_bit(corrupt.val[777], bit);
    EXPECT_FALSE(sparse::spmv_verified(g, corrupt, x, y)) << "bit " << bit;
  }
  EXPECT_GT(g.failures, 0);
}

TEST(Abft, ExponentFlipInOutputIsCaught) {
  auto a = laplacian1d(300);
  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.n);
  std::vector<double> y;
  a.spmv(x, y);
  y[123] = resilience::flip_bit(y[123], 58);
  EXPECT_FALSE(sparse::verify_spmv(g, x.data(), y.data(), a.n));
}

TEST(Abft, LowMantissaFlipEscapes) {
  // The documented escape class: a bit-0 flip moves the product by ~eps,
  // far below the rounding bound. The guard must NOT fire (that would be
  // a false-positive machine on every clean run).
  auto a = laplacian1d(500);
  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.n);
  std::vector<double> y;
  auto corrupt = a;
  corrupt.val[777] = resilience::flip_bit(corrupt.val[777], 0);
  EXPECT_TRUE(sparse::spmv_verified(g, corrupt, x, y));
}

TEST(Abft, NanInfInputsFailInsteadOfSlippingThroughComparisons) {
  auto a = laplacian1d(100);
  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.n);
  std::vector<double> y;
  a.spmv(x, y);
  y[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(sparse::verify_spmv(g, x.data(), y.data(), a.n));
}

TEST(Abft, BcsrChecksumGuardsEveryBlockEntry) {
  // 3 block-rows of 2x2 blocks, dense block-tridiagonal.
  sparse::Bcsr<double> a;
  a.nb = 2;
  a.nrows = 3;
  a.ptr = {0, 2, 5, 7};
  a.col = {0, 1, 0, 1, 2, 1, 2};
  a.val.resize(a.nblocks() * 4);
  for (std::size_t k = 0; k < a.val.size(); ++k)
    a.val[k] = 0.5 + 0.25 * static_cast<double>(k % 11);
  a.check();

  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.scalar_n());
  std::vector<double> y;
  EXPECT_TRUE(sparse::spmv_verified(g, a, x, y));
  for (std::size_t k = 0; k < a.val.size(); ++k) {
    auto corrupt = a;
    corrupt.val[k] = resilience::flip_bit(corrupt.val[k], 55);
    EXPECT_FALSE(sparse::spmv_verified(g, corrupt, x, y)) << "entry " << k;
  }
}

TEST(Abft, VerdictIsThreadCountInvariant) {
  auto a = laplacian1d(2000);
  sparse::AbftGuard g;
  sparse::rebuild(g, a);
  auto x = test_vector(a.n);
  auto corrupt = a;
  corrupt.val[100] = resilience::flip_bit(corrupt.val[100], 40);

  const int before = exec::pool().num_threads();
  for (int nt : {1, 2, 4}) {
    exec::set_threads(nt);
    std::vector<double> y;
    EXPECT_TRUE(sparse::spmv_verified(g, a, x, y)) << nt << " threads";
    EXPECT_FALSE(sparse::spmv_verified(g, corrupt, x, y)) << nt << " threads";
  }
  exec::set_threads(before);
}

// --- ABFT under float storage (mixed precision) ---------------------------

TEST(AbftFloat, RebuildWidensBoundToFloatRoundoff) {
  auto ad = laplacian1d(100);
  const auto af = ad.convert<float>();
  sparse::AbftGuard g;
  sparse::rebuild(g, ad);
  EXPECT_DOUBLE_EQ(g.unit_roundoff, 2.220446049250313e-16);
  sparse::rebuild(g, af);
  EXPECT_DOUBLE_EQ(g.unit_roundoff, 1.1920928955078125e-7);
}

TEST(AbftFloat, TwoThousandCleanMixedProductsZeroFalsePositives) {
  // The mixed-precision false-positive guarantee: float storage rounds
  // every entry, so the double-eps bound would trip on clean products;
  // the widened FLT_EPSILON bound must never fire over a long clean run.
  const auto af = laplacian1d(500).convert<float>();
  sparse::AbftGuard g;
  sparse::rebuild(g, af);
  std::vector<double> x(static_cast<std::size_t>(af.n)), y;
  for (int step = 0; step < 2000; ++step) {
    for (int i = 0; i < af.n; ++i)
      x[static_cast<std::size_t>(i)] = std::sin(0.1 * i + 0.01 * step) + 2.0;
    EXPECT_TRUE(sparse::spmv_verified(g, af, x, y)) << "step " << step;
  }
  EXPECT_EQ(g.verifies, 2000);
  EXPECT_EQ(g.failures, 0);
}

TEST(AbftFloat, ExponentFlipCorpusDetectionRateAtLeast90Percent) {
  // Corpus: every float exponent bit (23-30) of a spread of live stored
  // entries. The guard must catch >= 90% — the escapes are bit-23 flips
  // on the smallest live values, whose perturbation can sit inside the
  // widened rounding bound.
  const auto af = laplacian1d(500).convert<float>();
  sparse::AbftGuard g;
  sparse::rebuild(g, af);
  auto x = test_vector(af.n);
  std::vector<double> y;

  std::vector<std::size_t> live;
  for (std::size_t k = 0; k < af.val.size() && live.size() < 25; k += 57)
    if (std::abs(af.val[k]) >= 0.5) live.push_back(k);
  ASSERT_GE(live.size(), 20u);

  int cases = 0, caught = 0;
  for (std::size_t k : live)
    for (int bit = 23; bit <= 30; ++bit) {
      auto corrupt = af;
      corrupt.val[k] = resilience::flip_bit(corrupt.val[k], bit);
      ++cases;
      if (!sparse::spmv_verified(g, corrupt, x, y)) ++caught;
    }
  EXPECT_GE(caught, (cases * 9 + 9) / 10)
      << caught << "/" << cases << " exponent flips detected";
}

TEST(AbftFloat, FloatSignFlipIsCaught) {
  const auto af = laplacian1d(300).convert<float>();
  sparse::AbftGuard g;
  sparse::rebuild(g, af);
  auto x = test_vector(af.n);
  std::vector<double> y;
  auto corrupt = af;
  corrupt.val[400] = resilience::flip_bit(corrupt.val[400], 31);
  EXPECT_FALSE(sparse::spmv_verified(g, corrupt, x, y));
}

TEST(AbftFloat, FloatMaybeFlipIsDeterministicAndLive) {
  // The float overload of the injector: same live-victim policy, float
  // epsilon threshold, deterministic victim for a fixed seed.
  auto run = [&]() {
    FaultInjector inj(42);
    FaultPlan p;
    p.fire_every = 1;
    inj.arm(FaultSite::kBitFlip, p);
    inj.set_bit_flip({.bit = 30, .target = FlipTarget::kMatrix});
    InjectorScope scope(&inj);
    std::vector<float> data = {0.0F, 1.5F, 0.0F, -2.25F, 3.0F, 0.0F};
    const long long idx = maybe_flip(FlipTarget::kMatrix, data.data(),
                                     static_cast<long long>(data.size()));
    return std::make_pair(idx, data);
  };
  const auto [i1, d1] = run();
  const auto [i2, d2] = run();
  ASSERT_GE(i1, 0);
  EXPECT_EQ(i1, i2);
  // Byte comparison: a bit-30 flip can land on NaN, where operator== is
  // false even for identical corruption.
  EXPECT_EQ(std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)), 0);
  // The victim was a live (nonzero) value.
  const std::vector<float> orig = {0.0F, 1.5F, 0.0F, -2.25F, 3.0F, 0.0F};
  EXPECT_NE(std::memcmp(&d1[static_cast<std::size_t>(i1)],
                        &orig[static_cast<std::size_t>(i1)], sizeof(float)),
            0);
  EXPECT_TRUE(i1 == 1 || i1 == 3 || i1 == 4);
}

// --- Krylov invariant monitor ---------------------------------------------

TEST(KrylovMonitor, InjectedDirectionFlipTripsGmresDrift) {
  auto a = laplacian1d(400);
  solver::LinearOperator op;
  op.n = a.n;
  op.apply = [&a](const double* v, double* y) { a.spmv(v, y); };
  solver::IdentityPreconditioner prec(a.n);
  auto b = test_vector(a.n);

  solver::GmresOptions go;
  go.rtol = 1e-10;
  go.restart = 10;
  go.max_iters = 200;
  go.sdc_drift_tol = 1e-2;

  // Clean run: monitor armed, nothing suspected.
  {
    std::vector<double> x(static_cast<std::size_t>(a.n), 0.0);
    auto res = solver::gmres(op, prec, b, x, go);
    EXPECT_FALSE(res.sdc_suspected);
    EXPECT_LT(res.sdc_drift, 1e-2);
  }
  // One exponent flip in a fresh Krylov direction mid-first-cycle: the
  // recurrence and the true residual part ways, seen at the next restart.
  {
    FaultInjector inj(7);
    FaultPlan p;
    p.fire_every = 1;
    p.skip_first = 3;
    p.max_fires = 1;
    inj.arm(FaultSite::kBitFlip, p);
    inj.set_bit_flip({.bit = 57, .target = FlipTarget::kKrylov});
    InjectorScope scope(&inj);
    std::vector<double> x(static_cast<std::size_t>(a.n), 0.0);
    auto res = solver::gmres(op, prec, b, x, go);
    EXPECT_EQ(inj.fires(FaultSite::kBitFlip), 1);
    EXPECT_TRUE(res.sdc_suspected);
    EXPECT_GT(res.sdc_drift, 1e-2);
  }
}

// --- physical admissibility scan ------------------------------------------

TEST(Admissibility, CompressibleChecksDensityAndPressure) {
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kCompressible;
  const int nv = 50;
  // rho=1, u=(0.3,0,0), E comfortably above kinetic energy.
  std::vector<double> x(static_cast<std::size_t>(nv) * 5);
  for (int v = 0; v < nv; ++v) {
    double* q = &x[static_cast<std::size_t>(v) * 5];
    q[0] = 1.0;
    q[1] = 0.3;
    q[2] = q[3] = 0.0;
    q[4] = 2.0;
  }
  EXPECT_TRUE(cfd::scan_admissibility(cfg, x).ok());

  auto bad = x;
  bad[5 * 7 + 0] = -1.0;  // negative density at vertex 7
  auto rep = cfd::scan_admissibility(cfg, bad);
  EXPECT_EQ(rep.violations, 1);
  EXPECT_EQ(rep.first_bad_vertex, 7);

  bad = x;
  bad[5 * 3 + 4] = 0.01;  // E below kinetic energy -> negative pressure
  rep = cfd::scan_admissibility(cfg, bad);
  EXPECT_EQ(rep.violations, 1);
  EXPECT_EQ(rep.first_bad_vertex, 3);

  bad = x;
  bad[5 * 9 + 2] = std::numeric_limits<double>::quiet_NaN();
  bad[5 * 4 + 1] = std::numeric_limits<double>::infinity();
  rep = cfd::scan_admissibility(cfg, bad);
  EXPECT_EQ(rep.violations, 2);
  EXPECT_EQ(rep.first_bad_vertex, 4);
}

TEST(Admissibility, IncompressibleGaugePressureMayBeNegative) {
  // Artificial-compressibility pressure has no positivity constraint:
  // a legitimately negative gauge pressure must NOT trip the watchdog.
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  std::vector<double> x = {-0.5, 1.0, 0.0, 0.0, -2.0, 0.9, 0.1, 0.0};
  EXPECT_TRUE(cfd::scan_admissibility(cfg, x).ok());
  x[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(cfd::scan_admissibility(cfg, x).ok());
}

TEST(Admissibility, VerdictIsThreadCountInvariant) {
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kCompressible;
  const int nv = 5000;
  std::vector<double> x(static_cast<std::size_t>(nv) * 5);
  for (int v = 0; v < nv; ++v) {
    double* q = &x[static_cast<std::size_t>(v) * 5];
    q[0] = 1.0;
    q[1] = 0.1;
    q[2] = q[3] = 0.0;
    q[4] = 2.0;
  }
  x[5 * 1234 + 0] = -3.0;
  x[5 * 4001 + 0] = -3.0;
  const int before = exec::pool().num_threads();
  for (int nt : {1, 2, 4, 8}) {
    exec::set_threads(nt);
    auto rep = cfd::scan_admissibility(cfg, x);
    EXPECT_EQ(rep.violations, 2) << nt << " threads";
    EXPECT_EQ(rep.first_bad_vertex, 1234) << nt << " threads";
  }
  exec::set_threads(before);
}

// --- psi-NKS SDC rungs ----------------------------------------------------

solver::PtcOptions sdc_options(cfd::Model model) {
  solver::PtcOptions o;
  o.cfl0 = 20.0;
  o.max_steps = model == cfd::Model::kCompressible ? 60 : 40;
  o.rtol = 1e-6;
  o.num_subdomains = 2;
  o.schwarz.fill_level = 1;
  o.matrix_free = false;  // exercise the ABFT-guarded assembled path
  o.recovery.enabled = true;
  o.sdc.enabled = true;
  return o;
}

solver::PtcResult run_wing_sdc(cfd::Model model, FaultInjector* inj,
                               const solver::PtcOptions& o,
                               std::vector<double>* x_out = nullptr) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = model;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  solver::PtcOptions opts = o;
  opts.fault_injector = inj;
  auto res = solver::ptc_solve(prob, x, opts);
  if (x_out != nullptr) *x_out = x;
  return res;
}

TEST(PtcSdc, MatrixFlipDetectedByAbftAndClearedByRecompute) {
  FaultInjector inj(11);
  FaultPlan p;
  p.fire_every = 1;
  p.skip_first = 1;
  p.max_fires = 1;
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 58, .target = FlipTarget::kMatrix});
  auto res = run_wing_sdc(cfd::Model::kIncompressible, &inj, sdc_options(cfd::Model::kIncompressible));
  EXPECT_EQ(inj.fires(FaultSite::kBitFlip), 1);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectSdc), 0);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kSdcRecompute), 0);
  EXPECT_TRUE(res.converged);
}

TEST(PtcSdc, MatrixFlipAbortsWithoutRecoveryLadder) {
  FaultInjector inj(11);
  FaultPlan p;
  p.fire_every = 1;
  p.skip_first = 1;
  p.max_fires = 1;
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 58, .target = FlipTarget::kMatrix});
  auto o = sdc_options(cfd::Model::kIncompressible);
  o.recovery.enabled = false;
  EXPECT_THROW(run_wing_sdc(cfd::Model::kIncompressible, &inj, o),
               f3d::NumericalError);
}

TEST(PtcSdc, PersistentStateCorruptionRollsBackToVerifiedState) {
  // A sign flip in the committed compressible state (seed 17 lands the
  // deterministically selected element on a density entry). The flipped
  // vector is a legal-if-terrible Newton initial guess — only the
  // step-entry admissibility scan sees the corruption, and recompute
  // cannot help, so detection goes straight to the rollback rung. After
  // restoring the last verified state the trajectory must be EXACTLY the
  // clean run's: rollback costs a detection, not an answer.
  const auto o = sdc_options(cfd::Model::kCompressible);
  std::vector<double> x_clean;
  const auto clean = run_wing_sdc(cfd::Model::kCompressible, nullptr, o,
                                  &x_clean);
  ASSERT_TRUE(clean.converged);

  FaultInjector inj(17);
  FaultPlan p;
  p.fire_every = 1;
  p.skip_first = 2;  // fire on the third committed state
  p.max_fires = 1;
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 63, .target = FlipTarget::kState});
  std::vector<double> x_faulty;
  auto res = run_wing_sdc(cfd::Model::kCompressible, &inj, o, &x_faulty);

  EXPECT_EQ(inj.fires(FaultSite::kBitFlip), 1);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectSdc), 0);
  EXPECT_EQ(res.recovery_log.count(RecoveryAction::kSdcRollback), 1);
  EXPECT_EQ(res.steps, clean.steps);
  ASSERT_EQ(x_faulty.size(), x_clean.size());
  EXPECT_EQ(std::memcmp(x_faulty.data(), x_clean.data(),
                        x_clean.size() * sizeof(double)),
            0);
}

TEST(PtcSdc, StateCorruptionAbortsWithoutRecoveryLadder) {
  FaultInjector inj(17);
  FaultPlan p;
  p.fire_every = 1;
  p.skip_first = 2;
  p.max_fires = 1;
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 63, .target = FlipTarget::kState});
  auto o = sdc_options(cfd::Model::kCompressible);
  o.recovery.enabled = false;
  EXPECT_THROW(run_wing_sdc(cfd::Model::kCompressible, &inj, o),
               f3d::NumericalError);
}

std::vector<RecoveryAction> actions_of(const solver::PtcResult& res) {
  std::vector<RecoveryAction> out;
  for (const auto& e : res.recovery_log.events()) out.push_back(e.action);
  return out;
}

FaultInjector bit62_flips(FlipTarget target, int skip_first, int fires) {
  FaultInjector inj(11);
  FaultPlan p;
  p.fire_every = 1;
  p.skip_first = skip_first;
  p.max_fires = fires;
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 62, .target = target});
  return inj;
}

// The residual flip strikes the recomputed attempt too, so the recompute
// rung cannot clear it and the ladder rolls back to the committed state.
// Each detection is counted once, as its recovery action.
TEST(PtcSdc, FailedRecomputeRollsBackToCommittedState) {
  auto& reg = obs::Registry::global();
  const long long detected_before = reg.counter("resilience.sdc-detected");
  auto inj = bit62_flips(FlipTarget::kResidual, 1, 2);
  const auto res = run_wing_sdc(cfd::Model::kIncompressible, &inj,
                                sdc_options(cfd::Model::kIncompressible));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(actions_of(res),
            (std::vector<RecoveryAction>{
                RecoveryAction::kDetectSdc, RecoveryAction::kStepRejected,
                RecoveryAction::kSdcRecompute, RecoveryAction::kDetectSdc,
                RecoveryAction::kStepRejected, RecoveryAction::kSdcRollback}));
  EXPECT_EQ(reg.counter("resilience.sdc-detected") - detected_before,
            res.recovery_log.count(RecoveryAction::kDetectSdc));
  EXPECT_EQ(reg.counter("resilience.sdc_detected"), 0);
}

// BiCGStab under the SDC guards: a Krylov-vector flip trips the periodic
// true-residual drift monitor, and the recompute rung clears it.
TEST(PtcSdc, BicgstabDriftMonitorTriggersRecompute) {
  auto inj = bit62_flips(FlipTarget::kKrylov, 1, 1);
  auto o = sdc_options(cfd::Model::kIncompressible);
  o.krylov = solver::KrylovMethod::kBicgstab;
  const auto res = run_wing_sdc(cfd::Model::kIncompressible, &inj, o);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(actions_of(res),
            (std::vector<RecoveryAction>{RecoveryAction::kDetectSdc,
                                         RecoveryAction::kStepRejected,
                                         RecoveryAction::kSdcRecompute}));
  EXPECT_EQ(res.recovery_log.events()[0].detail,
            "Krylov recurrence/true-residual drift");
}

// With the SDC guards off, a Krylov-vector flip reaches the Newton
// correction as a non-finite value: the recovery ladder rejects the step
// and backtracks the CFL instead of taking it.
TEST(PtcSdc, NonFiniteNewtonCorrectionIsRejected) {
  auto inj = bit62_flips(FlipTarget::kKrylov, 3, 1);
  auto o = sdc_options(cfd::Model::kIncompressible);
  o.sdc.enabled = false;
  o.matrix_free = true;
  const auto res = run_wing_sdc(cfd::Model::kIncompressible, &inj, o);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(actions_of(res),
            (std::vector<RecoveryAction>{
                RecoveryAction::kDetectDivergence, RecoveryAction::kStepRejected,
                RecoveryAction::kCflBacktrack, RecoveryAction::kPrecRefresh}));
  EXPECT_EQ(res.recovery_log.events()[0].detail,
            "non-finite Newton correction");
}

// --- checkpoint integrity: exhaustive corruption sweep --------------------

PtcCheckpoint small_checkpoint() {
  PtcCheckpoint ck;
  ck.step = 12;
  ck.x = {1.0, -2.5, 3.25, 0.0, 1e-7, 42.0};
  ck.rnorm = 1e-4;
  ck.r0 = 1.0;
  ck.cfl_relax = 0.5;
  ck.function_evaluations = 99;
  ck.total_linear_iterations = 321;
  ck.gmres_restart = 20;
  FaultInjector inj(5);
  FaultPlan p;
  p.fire_every = 3;
  inj.arm(FaultSite::kResidual, p);
  for (int d = 0; d < 10; ++d) inj.should_fire(FaultSite::kResidual);
  ck.injector = inj.state();
  ck.log.add(3, RecoveryAction::kStepRejected, "attempt 1");
  ck.log.add(7, RecoveryAction::kDetectSdc, "test");
  return ck;
}

TEST(CheckpointIntegrity, EverySingleByteCorruptionIsRejected) {
  const std::string blob = encode_checkpoint(small_checkpoint());
  ASSERT_GT(blob.size(), 0u);
  ASSERT_TRUE(decode_checkpoint(blob).has_value());
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string bad = blob;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ mask);
      EXPECT_FALSE(decode_checkpoint(bad).has_value())
          << "byte " << i << " mask " << static_cast<int>(mask);
    }
  }
}

TEST(CheckpointIntegrity, EveryTruncationLengthIsRejected) {
  const std::string blob = encode_checkpoint(small_checkpoint());
  for (std::size_t len = 0; len < blob.size(); ++len)
    EXPECT_FALSE(decode_checkpoint(blob.substr(0, len)).has_value())
        << "length " << len;
  // Trailing garbage after a valid image must also be rejected.
  EXPECT_FALSE(decode_checkpoint(blob + "x").has_value());
}

// --- hardened JSON parser -------------------------------------------------

TEST(JsonHardening, MalformedInputCorpusThrowsCleanly) {
  const std::vector<std::string> corpus = {
      "",                          // empty input
      "   ",                       // whitespace only
      "tru",                       // truncated literals
      "fals",
      "nul",
      "truex",
      "\"abc",                     // unterminated string
      "\"abc\\",                   // unterminated escape
      "\"\\q\"",                   // unknown escape
      "\"\\u12",                   // truncated \u escape
      "\"\\u12zz\"",               // bad hex digit
      "\"\\ud800\"",               // lone high surrogate
      "\"\\ud800x\"",              // high surrogate, no low
      "\"\\ud800\\u0041\"",        // high surrogate + non-surrogate
      "\"\\udc00\"",               // lone low surrogate
      "{\"a\":1",                  // unterminated object
      "{\"a\" 1}",                 // missing colon
      "{\"a\":}",                  // missing value
      "{1:2}",                     // non-string key
      "[1,",                       // unterminated array
      "[1 2]",                     // missing comma
      "1e999",                     // double overflow -> inf
      "-1e999",
      "1e+999999",
      "-",                         // sign with no digits... parsed as token
      "--1",
      "1.2.3",
      "0x10",                      // hex is not JSON
      "[] []",                     // trailing characters
      "{} garbage",
  };
  for (const auto& s : corpus)
    EXPECT_THROW((void)obs::parse_json(s), std::runtime_error) << "'" << s << "'";
}

TEST(JsonHardening, DeepNestingIsRejectedNotAStackOverflow) {
  std::string deep_array(100000, '[');
  EXPECT_THROW((void)obs::parse_json(deep_array), std::runtime_error);
  std::string deep_object;
  for (int i = 0; i < 50000; ++i) deep_object += "{\"k\":";
  EXPECT_THROW((void)obs::parse_json(deep_object), std::runtime_error);
  // Moderate nesting still parses.
  std::string ok(100, '[');
  ok += std::string(100, ']');
  EXPECT_NO_THROW((void)obs::parse_json(ok));
}

TEST(JsonHardening, SurrogatePairsDecodeToUtf8) {
  const auto v = obs::parse_json("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_EQ(v.kind, obs::Json::Kind::kString);
  EXPECT_EQ(v.s, "\xF0\x9F\x98\x80");
}

TEST(JsonHardening, IntegerOverflowFallsBackToDouble) {
  const auto v = obs::parse_json("92233720368547758080");  // > int64 max
  ASSERT_EQ(v.kind, obs::Json::Kind::kDouble);
  EXPECT_NEAR(v.d, 9.223372036854776e19, 1e5);
  const auto w = obs::parse_json("9223372036854775807");  // == int64 max
  ASSERT_EQ(w.kind, obs::Json::Kind::kInt);
  EXPECT_EQ(w.i, 9223372036854775807LL);
}

// --- ABFT false-positive guarantee on a long clean solve ------------------

TEST(CleanRun, TwoThousandStepsZeroDetectionsAndGuardsAreBitTransparent) {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 4, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;

  auto run = [&](bool guards, int threads) {
    exec::set_threads(threads);
    cfd::EulerDiscretization disc(m, cfg);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    solver::PtcOptions o;
    o.cfl0 = 20.0;
    o.max_steps = 2000;
    o.rtol = 1e-300;  // unreachable: force all 2000 steps
    o.num_subdomains = 2;
    o.schwarz.fill_level = 1;
    o.matrix_free = false;  // ABFT verifies every Krylov product
    o.jacobian_refresh = 4;
    o.recovery.enabled = true;
    o.sdc.enabled = guards;
    auto res = solver::ptc_solve(prob, x, o);
    EXPECT_EQ(res.steps, 2000);
    EXPECT_EQ(res.recovery_log.count(RecoveryAction::kDetectSdc), 0);
    return x;
  };

  const int before = exec::pool().num_threads();
  const auto guarded1 = run(true, 1);
  for (int nt : {2, 4}) {
    const auto guarded = run(true, nt);
    EXPECT_EQ(std::memcmp(guarded.data(), guarded1.data(),
                          guarded1.size() * sizeof(double)),
              0)
        << nt << " threads drifted from the 1-thread state";
  }
  // Guards off, same run: the watchdog must be observation-only.
  const auto plain = run(false, 1);
  EXPECT_EQ(std::memcmp(plain.data(), guarded1.data(),
                        guarded1.size() * sizeof(double)),
            0)
      << "enabling the SDC guards changed the computed state";
  exec::set_threads(before);
}

TEST(CleanRun, MixedPrecisionTwoThousandStepsZeroFalsePositives) {
  // End-to-end mixed precision under the full SDC guard stack: the float
  // Krylov operator's products are ABFT-verified against the widened
  // FLT_EPSILON bound on every iteration of every step — a clean run
  // must never trip it.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 4, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  solver::PtcOptions o;
  o.cfl0 = 20.0;
  o.max_steps = 2000;
  o.rtol = 1e-300;  // unreachable: force all 2000 steps
  o.num_subdomains = 2;
  o.schwarz.fill_level = 1;
  o.schwarz.single_precision = true;
  o.matrix_free = false;
  o.matrix_single_precision = true;
  o.jacobian_refresh = 4;
  o.recovery.enabled = true;
  o.sdc.enabled = true;
  auto res = solver::ptc_solve(prob, x, o);
  EXPECT_EQ(res.steps, 2000);
  EXPECT_EQ(res.recovery_log.count(RecoveryAction::kDetectSdc), 0);
}

TEST(PtcSdc, MixedPrecisionMatrixFlipDetectedByAbft) {
  // A flip landing in the float operator after the checksum rebuild is
  // exactly what the widened guard must still catch.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 4, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();

  FaultInjector inj(7);
  FaultPlan p;
  p.fire_every = 3;  // one flip a few refreshes in
  inj.arm(FaultSite::kBitFlip, p);
  inj.set_bit_flip({.bit = 28, .target = FlipTarget::kMatrix});
  InjectorScope scope(&inj);

  solver::PtcOptions o;
  o.cfl0 = 20.0;
  o.max_steps = 30;
  o.rtol = 1e-300;
  o.num_subdomains = 2;
  o.matrix_free = false;
  o.matrix_single_precision = true;
  o.schwarz.single_precision = true;
  o.jacobian_refresh = 1;  // refresh (and so flip opportunity) every step
  o.recovery.enabled = true;
  o.sdc.enabled = true;
  auto res = solver::ptc_solve(prob, x, o);
  EXPECT_GT(res.recovery_log.count(RecoveryAction::kDetectSdc), 0)
      << "float-exponent flip in the mixed-precision operator escaped ABFT";
}

}  // namespace
