// Tests for the linear and nonlinear solver stack: GMRES on known
// systems, Schwarz preconditioner variants, and the full psi-NKS driver on
// the Euler problem (end-to-end integration).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "cfd/problem.hpp"
#include "common/error.hpp"
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

// A[vertices, vertices] copied out of A into a Bcsr of its own.
sparse::Bcsr<double> extract_submatrix(const sparse::Bcsr<double>& a,
                                       const std::vector<int>& vertices) {
  std::vector<int> local(a.nrows, -1);
  for (std::size_t k = 0; k < vertices.size(); ++k)
    local[vertices[k]] = static_cast<int>(k);
  const std::size_t bsz = static_cast<std::size_t>(a.nb) * a.nb;
  sparse::Bcsr<double> sub;
  sub.nb = a.nb;
  sub.nrows = static_cast<int>(vertices.size());
  sub.ptr.push_back(0);
  for (const int v : vertices) {
    for (int p = a.ptr[v]; p < a.ptr[v + 1]; ++p) {
      if (local[a.col[p]] < 0) continue;
      sub.col.push_back(local[a.col[p]]);
      sub.val.insert(sub.val.end(), a.val.begin() + p * bsz,
                     a.val.begin() + (p + 1) * bsz);
    }
    sub.ptr.push_back(static_cast<int>(sub.col.size()));
  }
  return sub;
}

// The Schwarz apply written out subdomain by subdomain, in order: gather
// r on the subdomain, solve with the factor of the extracted submatrix,
// and scatter (to owned vertices for bjacobi and RASM, summed for ASM).
template <class S>
Vec reference_apply(const sparse::Bcsr<double>& a,
                    const part::Partition& partition,
                    const SchwarzOptions& so, const Vec& r) {
  const int nb = a.nb;
  const auto regions =
      part::overlap_expand(graph_from_bcsr(a), partition, so.overlap);
  Vec z(r.size(), 0.0);
  for (int s = 0; s < partition.nparts; ++s) {
    const auto& vs = regions[s];
    const sparse::BlockIlu<S> f(extract_submatrix(a, vs), so.fill_level);
    Vec rl(vs.size() * nb), zl;
    for (std::size_t k = 0; k < vs.size(); ++k)
      for (int c = 0; c < nb; ++c) rl[k * nb + c] = r[vs[k] * nb + c];
    f.solve(rl, zl);
    for (std::size_t k = 0; k < vs.size(); ++k) {
      if (so.type != SchwarzType::kAsm && partition.part[vs[k]] != s) continue;
      for (int c = 0; c < nb; ++c) z[vs[k] * nb + c] += zl[k * nb + c];
    }
  }
  return z;
}

TEST(Schwarz, SubdomainFactorsEqualExtractedSubmatrixFactorsBitwise) {
  // Each subdomain's factor, gathered straight from A, equals the factor
  // of A[V, V] extracted into its own matrix, bit for bit: at build and
  // after a refactor from new values.
  auto m = mesh::generate_box_mesh(6, 6, 6);
  auto s = sparse::stencil_from_mesh(m);
  const auto a1 = sparse::build_bcsr(s, 4, sparse::synthetic_values(s, 0));
  const auto a2 = sparse::build_bcsr(s, 4, sparse::synthetic_values(s, 1));
  Vec r(a1.scalar_n());
  Rng rng(2);
  for (auto& v : r) v = rng.uniform(-1, 1);
  const auto g = graph_from_bcsr(a1);
  int configs = 0;
  for (int nparts : {1, 4, 16}) {
    const auto partition = part::kway_grow(g, nparts);
    for (auto type :
         {SchwarzType::kBlockJacobi, SchwarzType::kAsm, SchwarzType::kRasm})
      for (int overlap : {0, 1, 2}) {
        if (type == SchwarzType::kBlockJacobi && overlap > 0) continue;
        for (int fill : {0, 1})
          for (bool single : {false, true}) {
            SchwarzOptions so;
            so.type = type;
            so.overlap = overlap;
            so.fill_level = fill;
            so.single_precision = single;
            SchwarzPreconditioner prec(a1, partition, so);
            for (const auto* a : {&a1, &a2}) {
              if (a == &a2) {
                ASSERT_TRUE(prec.refactor(a2, 0).ok);
              }
              Vec z(r.size());
              prec.apply(r.data(), z.data());
              const Vec ref =
                  single ? reference_apply<float>(*a, partition, so, r)
                         : reference_apply<double>(*a, partition, so, r);
              EXPECT_EQ(
                  std::memcmp(z.data(), ref.data(), z.size() * sizeof(double)),
                  0)
                  << prec.name() << " nparts " << nparts
                  << (a == &a2 ? " after refactor" : " at build");
            }
            ++configs;
          }
      }
  }
  EXPECT_EQ(configs, 84);
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
  // so fill entries from the old values must not leak through), and so
  // does SSOR's gathered copy.
  const auto g = graph_from_bcsr(sys.a);
  const auto partition = part::kway_grow(g, 4);
  for (const auto& [single, solver] :
       {std::pair{false, SubdomainSolver::kIlu},
        std::pair{true, SubdomainSolver::kIlu},
        std::pair{false, SubdomainSolver::kSsor}}) {
    SchwarzOptions so;
    so.overlap = 1;
    so.fill_level = 1;
    so.single_precision = single;
    so.subdomain_solver = solver;
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

TEST(Ilu, RefactorRejectsADifferentSparsity) {
  // A 6x6 tridiagonal point matrix, and a copy whose (0, 1) entry moved
  // to (0, 2): the same n and nnz, and still a valid CSR.
  sparse::Csr<double> a;
  a.n = 6;
  a.ptr.push_back(0);
  for (int i = 0; i < a.n; ++i) {
    for (int j = std::max(0, i - 1); j <= std::min(a.n - 1, i + 1); ++j) {
      a.col.push_back(j);
      a.val.push_back(i == j ? 4.0 : -1.0);
    }
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  auto moved = a;
  moved.col[1] = 2;
  moved.check();
  sparse::PointIlu<double> point(a, 0);
  EXPECT_THROW((void)point.refactor(moved), Error);
  EXPECT_TRUE(point.refactor(a).ok);

  // Block matrices: the last block of row 0 moved to a column row 0 does
  // not hold, and a matrix with one block fewer.
  auto sys = make_system();
  auto bmoved = sys.a;
  bmoved.col[bmoved.ptr[1] - 1] = bmoved.nrows - 1;
  bmoved.check();
  auto fewer = sys.a;
  fewer.col.pop_back();
  fewer.ptr.back() -= 1;
  fewer.val.resize(fewer.col.size() * 16);
  fewer.check();
  sparse::BlockIlu<double> block(sys.a, 1);
  EXPECT_THROW((void)block.refactor(bmoved), Error);
  EXPECT_THROW((void)block.refactor(fewer), Error);
  EXPECT_TRUE(block.refactor(sys.a).ok);

  SchwarzOptions so;
  so.overlap = 1;
  SchwarzPreconditioner prec(sys.a, part::kway_grow(graph_from_bcsr(sys.a), 4),
                             so);
  EXPECT_THROW((void)prec.refactor(fewer, 0), Error);
  EXPECT_TRUE(prec.refactor(sys.a, 0).ok);
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
