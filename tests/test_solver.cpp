// Tests for the linear and nonlinear solver stack: GMRES on known
// systems, Schwarz preconditioner variants, and the full psi-NKS driver on
// the Euler problem (end-to-end integration).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cfd/problem.hpp"
#include "common/rng.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "solver/krylov.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using namespace f3d::solver;
using sparse::Vec;

// Synthetic SPD-ish block system on a small box mesh.
struct SmallSystem {
  sparse::Bcsr<double> a;
  Vec b;
  Vec x_true;
};

SmallSystem make_system(int nb = 4, int nx = 4) {
  auto m = mesh::generate_box_mesh(nx, nx, nx);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  SmallSystem sys;
  sys.a = sparse::build_bcsr(s, nb, fn);
  Rng rng(1);
  sys.x_true.resize(sys.a.scalar_n());
  for (auto& v : sys.x_true) v = rng.uniform(-1, 1);
  sys.b.resize(sys.x_true.size());
  sys.a.spmv(sys.x_true, sys.b);
  return sys;
}

LinearOperator op_of(const sparse::Bcsr<double>& a) {
  LinearOperator op;
  op.n = a.scalar_n();
  op.apply = [&a](const double* x, double* y) { a.spmv(x, y); };
  return op;
}

// --- GMRES --------------------------------------------------------------

TEST(Gmres, SolvesIdentity) {
  LinearOperator op;
  op.n = 5;
  op.apply = [](const double* x, double* y) {
    for (int i = 0; i < 5; ++i) y[i] = x[i];
  };
  Vec b = {1, 2, 3, 4, 5}, x(5, 0.0);
  IdentityPreconditioner m(5);
  auto r = gmres(op, m, b, x, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(x[i], b[i], 1e-12);
}

TEST(Gmres, SolvesBlockSystemUnpreconditioned) {
  auto sys = make_system();
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  Vec x(op.n, 0.0);
  GmresOptions o;
  o.rtol = 1e-10;
  o.max_iters = 300;
  o.restart = 30;
  auto r = gmres(op, m, sys.b, x, o);
  EXPECT_TRUE(r.converged);
  double err = 0;
  for (int i = 0; i < op.n; ++i) err = std::max(err, std::abs(x[i] - sys.x_true[i]));
  EXPECT_LT(err, 1e-7);
}

TEST(Gmres, ClassicalAndModifiedGsAgree) {
  auto sys = make_system();
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  GmresOptions o;
  o.rtol = 1e-8;
  o.max_iters = 200;
  Vec x1(op.n, 0.0), x2(op.n, 0.0);
  o.orth = Orthogonalization::kModifiedGramSchmidt;
  auto r1 = gmres(op, m, sys.b, x1, o);
  o.orth = Orthogonalization::kClassicalGramSchmidt;
  auto r2 = gmres(op, m, sys.b, x2, o);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  // Same system, nearly identical iteration counts for a well-conditioned
  // problem.
  EXPECT_NEAR(r1.iterations, r2.iterations, 3);
}

TEST(Gmres, PreconditioningReducesIterations) {
  auto sys = make_system();
  auto op = op_of(sys.a);
  GmresOptions o;
  o.rtol = 1e-8;
  o.max_iters = 300;

  IdentityPreconditioner ident(op.n);
  Vec x1(op.n, 0.0);
  auto r_plain = gmres(op, ident, sys.b, x1, o);

  auto ilu = make_global_ilu(sys.a, 0);
  Vec x2(op.n, 0.0);
  auto r_prec = gmres(op, *ilu, sys.b, x2, o);

  EXPECT_TRUE(r_prec.converged);
  EXPECT_LT(r_prec.iterations, r_plain.iterations);
}

TEST(Gmres, HonorsIterationLimit) {
  auto sys = make_system();
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  GmresOptions o;
  o.rtol = 1e-14;
  o.max_iters = 3;
  Vec x(op.n, 0.0);
  auto r = gmres(op, m, sys.b, x, o);
  EXPECT_LE(r.iterations, 3);
}

TEST(Gmres, CountersTrackWork) {
  auto sys = make_system();
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  GmresOptions o;
  o.rtol = 1e-6;
  Vec x(op.n, 0.0);
  auto r = gmres(op, m, sys.b, x, o);
  EXPECT_GE(r.counters.matvecs, r.iterations);
  EXPECT_GT(r.counters.dots, 0);
  EXPECT_GT(r.counters.prec_applies, 0);
}

// --- Schwarz preconditioners --------------------------------------------

class SchwarzTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchwarzTest, ConvergesForAllVariants) {
  const auto [nparts, overlap] = GetParam();
  auto sys = make_system(4, 5);
  auto op = op_of(sys.a);

  auto g = [&] {
    std::vector<std::array<int, 2>> edges;
    for (int i = 0; i < sys.a.nrows; ++i)
      for (int p = sys.a.ptr[i]; p < sys.a.ptr[i + 1]; ++p)
        if (sys.a.col[p] > i) edges.push_back({i, sys.a.col[p]});
    return mesh::build_graph(sys.a.nrows, edges);
  }();
  auto partition = part::kway_grow(g, nparts);

  for (auto type : {SchwarzType::kAsm, SchwarzType::kRasm}) {
    SchwarzOptions so;
    so.type = type;
    so.overlap = overlap;
    so.fill_level = 0;
    SchwarzPreconditioner prec(sys.a, partition, so);
    GmresOptions o;
    o.rtol = 1e-8;
    o.max_iters = 200;
    Vec x(op.n, 0.0);
    auto r = gmres(op, prec, sys.b, x, o);
    EXPECT_TRUE(r.converged) << prec.name();
    double err = 0;
    for (int i = 0; i < op.n; ++i)
      err = std::max(err, std::abs(x[i] - sys.x_true[i]));
    EXPECT_LT(err, 1e-6) << prec.name();
  }
}

INSTANTIATE_TEST_SUITE_P(PartsByOverlap, SchwarzTest,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(0, 1, 2)));

TEST(Schwarz, SingleDomainIluEqualsGlobalIlu) {
  auto sys = make_system();
  auto prec = make_global_ilu(sys.a, 1);
  EXPECT_EQ(prec->num_subdomains(), 1);
  // One apply must give the same result as a direct BlockIlu solve.
  const sparse::BlockIlu<double> f(sys.a, 1);
  Vec z1(sys.b.size()), z2(sys.b.size());
  prec->apply(sys.b.data(), z1.data());
  f.solve(sys.b.data(), z2.data());
  for (std::size_t i = 0; i < z1.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-14);
}

TEST(Schwarz, MoreSubdomainsNeedMoreIterations) {
  // The central algorithmic scalability effect (paper Tables 3-4): block
  // iterative convergence degrades with the number of blocks.
  auto sys = make_system(4, 6);
  auto op = op_of(sys.a);
  std::vector<std::array<int, 2>> edges;
  for (int i = 0; i < sys.a.nrows; ++i)
    for (int p = sys.a.ptr[i]; p < sys.a.ptr[i + 1]; ++p)
      if (sys.a.col[p] > i) edges.push_back({i, sys.a.col[p]});
  auto g = mesh::build_graph(sys.a.nrows, edges);

  auto its_for = [&](int nparts) {
    SchwarzOptions so;
    so.type = SchwarzType::kBlockJacobi;
    so.fill_level = 0;
    so.overlap = 0;
    SchwarzPreconditioner prec(sys.a, part::kway_grow(g, nparts), so);
    GmresOptions o;
    o.rtol = 1e-8;
    o.max_iters = 400;
    Vec x(op.n, 0.0);
    return gmres(op, prec, sys.b, x, o).iterations;
  };
  const int i1 = its_for(1);
  const int i16 = its_for(16);
  EXPECT_LE(i1, i16);
}

TEST(Schwarz, OverlapReducesIterations) {
  auto sys = make_system(4, 6);
  auto op = op_of(sys.a);
  std::vector<std::array<int, 2>> edges;
  for (int i = 0; i < sys.a.nrows; ++i)
    for (int p = sys.a.ptr[i]; p < sys.a.ptr[i + 1]; ++p)
      if (sys.a.col[p] > i) edges.push_back({i, sys.a.col[p]});
  auto g = mesh::build_graph(sys.a.nrows, edges);
  auto partition = part::kway_grow(g, 8);

  auto its_for = [&](int overlap) {
    SchwarzOptions so;
    so.type = SchwarzType::kRasm;
    so.fill_level = 0;
    so.overlap = overlap;
    SchwarzPreconditioner prec(sys.a, partition, so);
    GmresOptions o;
    o.rtol = 1e-8;
    o.max_iters = 400;
    Vec x(op.n, 0.0);
    return gmres(op, prec, sys.b, x, o).iterations;
  };
  EXPECT_LE(its_for(1), its_for(0));
}

TEST(Schwarz, SinglePrecisionHalvesFactorStorage) {
  auto sys = make_system();
  auto pd = make_global_ilu(sys.a, 1, false);
  auto pf = make_global_ilu(sys.a, 1, true);
  EXPECT_EQ(pd->factor_bytes(), 2 * pf->factor_bytes());

  // And the float preconditioner still converges GMRES equivalently.
  auto op = op_of(sys.a);
  GmresOptions o;
  o.rtol = 1e-8;
  Vec x1(op.n, 0.0), x2(op.n, 0.0);
  auto r1 = gmres(op, *pd, sys.b, x1, o);
  auto r2 = gmres(op, *pf, sys.b, x2, o);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(r1.iterations, r2.iterations, 2);
}

TEST(Schwarz, RefactorTracksNewValues) {
  auto sys = make_system();
  auto prec = make_global_ilu(sys.a, 0);
  // Scale A by 2: the preconditioner must follow after refactor.
  for (auto& v : sys.a.val) v *= 2.0;
  ASSERT_TRUE(prec->refactor(sys.a, 0).ok);
  Vec z(sys.b.size());
  prec->apply(sys.b.data(), z.data());
  // M^{-1} b with M ~ 2A_orig: residual check against the *new* A.
  Vec az(sys.b.size());
  sys.a.spmv(z, az);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    num += (az[i] - sys.b[i]) * (az[i] - sys.b[i]);
    den += sys.b[i] * sys.b[i];
  }
  EXPECT_LT(std::sqrt(num / den), 0.25);

  // The factors refactored in place equal freshly built ones, bit for bit,
  // with double and float storage (four overlapping ILU(1) subdomains,
  // so fill entries from the old values must not leak through).
  const auto g = graph_from_bcsr(sys.a);
  const auto partition = part::kway_grow(g, 4);
  for (bool single : {false, true}) {
    SchwarzOptions so;
    so.overlap = 1;
    so.fill_level = 1;
    so.single_precision = single;
    auto old_a = sys.a;
    for (auto& v : old_a.val) v *= 0.5;
    SchwarzPreconditioner refreshed(old_a, partition, so);
    ASSERT_TRUE(refreshed.refactor(sys.a, 0).ok);
    const SchwarzPreconditioner fresh(sys.a, partition, so);
    Vec z1(sys.b.size()), z2(sys.b.size());
    refreshed.apply(sys.b.data(), z1.data());
    fresh.apply(sys.b.data(), z2.data());
    EXPECT_EQ(std::memcmp(z1.data(), z2.data(), z1.size() * sizeof(double)), 0)
        << refreshed.name();
  }
}

TEST(Schwarz, SubdomainSizesReflectOverlap) {
  auto sys = make_system(2, 5);
  std::vector<std::array<int, 2>> edges;
  for (int i = 0; i < sys.a.nrows; ++i)
    for (int p = sys.a.ptr[i]; p < sys.a.ptr[i + 1]; ++p)
      if (sys.a.col[p] > i) edges.push_back({i, sys.a.col[p]});
  auto g = mesh::build_graph(sys.a.nrows, edges);
  auto partition = part::kway_grow(g, 4);

  // The Schwarz subdomains are these regions (owned + overlap vertices).
  long long t0 = 0, t1 = 0;
  for (const auto& region : part::overlap_expand(g, partition, 0))
    t0 += static_cast<long long>(region.size());
  for (const auto& region : part::overlap_expand(g, partition, 1))
    t1 += static_cast<long long>(region.size());
  EXPECT_EQ(t0, sys.a.nrows);  // zero overlap partitions exactly
  EXPECT_GT(t1, t0);           // overlap duplicates boundary layers
}

// --- psi-NKS end-to-end --------------------------------------------------

TEST(Ptc, ConvergesIncompressibleWingFlow) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 8, .ny = 4, .nz = 4});
  mesh::apply_best_ordering(m);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);  // stay first order: fast test

  auto x = prob.initial_state();
  PtcOptions opts;
  opts.cfl0 = 20.0;
  opts.max_steps = 60;
  opts.rtol = 1e-6;
  opts.schwarz.fill_level = 1;
  auto res = ptc_solve(prob, x, opts);
  EXPECT_TRUE(res.converged)
      << "final/initial = " << res.final_residual / res.initial_residual
      << " after " << res.steps << " steps";
  EXPECT_GT(res.total_linear_iterations, 0);
  EXPECT_GT(res.function_evaluations, res.steps);
}

TEST(Ptc, ConvergesCompressibleWingFlow) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  mesh::apply_best_ordering(m);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kCompressible;
  cfg.order = 1;
  cfg.mach = 0.3;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);

  auto x = prob.initial_state();
  PtcOptions opts;
  opts.cfl0 = 10.0;
  opts.max_steps = 80;
  opts.rtol = 1e-6;
  opts.schwarz.fill_level = 1;
  auto res = ptc_solve(prob, x, opts);
  EXPECT_TRUE(res.converged)
      << "final/initial = " << res.final_residual / res.initial_residual;
}

TEST(Ptc, ResidualHistoryIsRecorded) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  PtcOptions opts;
  opts.max_steps = 10;
  opts.rtol = 1e-14;  // force all steps
  auto res = ptc_solve(prob, x, opts);
  EXPECT_EQ(static_cast<int>(res.history.size()), res.steps);
  for (const auto& h : res.history) {
    EXPECT_GT(h.residual, 0.0);
    EXPECT_GT(h.cfl, 0.0);
  }
}

TEST(Ptc, SerCflGrowsAsResidualDrops) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  PtcOptions opts;
  opts.cfl0 = 5.0;
  opts.max_steps = 25;
  opts.rtol = 1e-10;
  auto res = ptc_solve(prob, x, opts);
  ASSERT_GE(res.history.size(), 3u);
  EXPECT_GT(res.history.back().cfl, res.history.front().cfl);
}

TEST(Ptc, MultiSubdomainSolveConverges) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 8, .ny = 4, .nz = 4});
  mesh::apply_best_ordering(m);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  PtcOptions opts;
  opts.max_steps = 80;
  opts.rtol = 1e-6;
  opts.num_subdomains = 8;
  opts.schwarz.type = SchwarzType::kRasm;
  opts.schwarz.overlap = 1;
  opts.schwarz.fill_level = 0;
  auto res = ptc_solve(prob, x, opts);
  EXPECT_TRUE(res.converged);
}

TEST(Ptc, OrderSwitchoverActivates) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;  // EulerProblem resets to 1 until the switch point
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, 1e-2);
  EXPECT_EQ(disc.config().order, 1);
  auto x = prob.initial_state();
  PtcOptions opts;
  opts.max_steps = 60;
  opts.rtol = 1e-5;
  opts.schwarz.fill_level = 1;
  auto res = ptc_solve(prob, x, opts);
  EXPECT_EQ(disc.config().order, 2) << "switchover should have triggered";
  EXPECT_TRUE(res.converged);
}

}  // namespace
