// Tests for the dense pivoted LU and the two-level (coarse-grid) Schwarz
// preconditioner: correctness of the coarse correction and the theory's
// headline property — iteration counts stop growing with the subdomain
// count once a coarse space is present.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/denselu.hpp"
#include "common/rng.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "solver/krylov.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using namespace f3d::solver;
using sparse::Vec;

// --- DenseLu -------------------------------------------------------------

TEST(DenseLu, SolvesRandomSystem) {
  const int n = 24;
  Rng rng(1);
  std::vector<double> a(n * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (int i = 0; i < n; ++i) a[i * n + i] += 3.0;  // keep well-conditioned
  Vec x_true(n), b(n, 0.0);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];

  dense::DenseLu lu;
  ASSERT_TRUE(lu.factor(n, a.data()));
  Vec x(n);
  lu.solve(b.data(), x.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero leading entry: fails without pivoting, fine with it.
  const double a[4] = {0, 1, 1, 0};
  dense::DenseLu lu;
  ASSERT_TRUE(lu.factor(2, a));
  const double b[2] = {3, 7};
  double x[2];
  lu.solve(b, x);
  EXPECT_DOUBLE_EQ(x[0], 7);
  EXPECT_DOUBLE_EQ(x[1], 3);
}

TEST(DenseLu, DetectsSingular) {
  const double a[4] = {1, 2, 2, 4};  // rank 1
  dense::DenseLu lu;
  EXPECT_FALSE(lu.factor(2, a));
  EXPECT_FALSE(lu.ok());
  double b[2] = {1, 1}, x[2];
  EXPECT_THROW(lu.solve(b, x), Error);
}

TEST(DenseLu, SolveAliasesInput) {
  const double a[4] = {2, 0, 0, 4};
  dense::DenseLu lu;
  ASSERT_TRUE(lu.factor(2, a));
  double bx[2] = {2, 8};
  lu.solve(bx, bx);
  EXPECT_DOUBLE_EQ(bx[0], 1);
  EXPECT_DOUBLE_EQ(bx[1], 2);
}

// --- coarse Schwarz --------------------------------------------------------

struct System {
  sparse::Bcsr<double> a;
  Vec b;
  mesh::Graph g;
};

// Near-singular graph-Laplacian system: the elliptic regime where Schwarz
// theory predicts one-level iteration growth and a coarse-space cure.
// Block (v,v) = (degree + shift) I, block (v,w) = -I on mesh edges.
System big_system(int nb = 4, int size = 8, double shift = 0.05) {
  auto m = mesh::generate_box_mesh(2 * size, size, size);
  auto s = sparse::stencil_from_mesh(m);
  std::vector<int> degree(s.n);
  for (int i = 0; i < s.n; ++i) degree[i] = s.ptr[i + 1] - s.ptr[i] - 1;
  auto fn = [&](int vi, int vj, int nbk, double* block) {
    for (int a = 0; a < nbk; ++a)
      for (int b = 0; b < nbk; ++b)
        block[a * nbk + b] =
            (a == b) ? (vi == vj ? degree[vi] + shift : -1.0) : 0.0;
  };
  System sys;
  sys.a = sparse::build_bcsr(s, nb, fn);
  Rng rng(2);
  sys.b.resize(sys.a.scalar_n());
  for (auto& v : sys.b) v = rng.uniform(-1, 1);
  sys.g = mesh::build_graph(m.num_vertices(), m.edges());
  return sys;
}

int gmres_its(const System& sys, const Preconditioner& prec) {
  LinearOperator op;
  op.n = sys.a.scalar_n();
  op.apply = [&](const double* x, double* y) { sys.a.spmv(x, y); };
  GmresOptions o;
  o.rtol = 1e-8;
  o.max_iters = 400;
  o.restart = 40;
  Vec x(op.n, 0.0);
  auto r = gmres(op, prec, sys.b, x, o);
  EXPECT_TRUE(r.converged) << prec.name();
  return r.iterations;
}

TEST(Coarse, ApplyIsFinePlusCoarseCorrection) {
  auto sys = big_system(2, 4);
  auto partition = part::kway_grow(sys.g, 4);
  SchwarzOptions so;
  so.type = SchwarzType::kBlockJacobi;
  so.fill_level = 0;
  SchwarzPreconditioner fine(sys.a, partition, so);
  so.coarse_space = true;
  SchwarzPreconditioner two(sys.a, partition, so);
  EXPECT_EQ(fine.coarse_dim(), 0);
  EXPECT_FALSE(fine.coarse_active());
  EXPECT_EQ(two.coarse_dim(), 4 * 2);
  EXPECT_EQ(two.name(), fine.name() + "+coarse");

  Vec zf(sys.b.size()), zt(sys.b.size());
  fine.apply(sys.b.data(), zf.data());
  two.apply(sys.b.data(), zt.data());
  // Correction must be nonzero and differ from fine-only.
  double diff = 0;
  for (std::size_t i = 0; i < zf.size(); ++i) diff += std::abs(zt[i] - zf[i]);
  EXPECT_GT(diff, 1e-10);
}

TEST(Coarse, ImprovesConditioningAtManySubdomains) {
  auto sys = big_system(4, 6);
  SchwarzOptions so;
  so.type = SchwarzType::kBlockJacobi;
  so.fill_level = 0;
  auto partition = part::kway_grow(sys.g, 24);
  SchwarzPreconditioner fine(sys.a, partition, so);
  so.coarse_space = true;
  SchwarzPreconditioner two(sys.a, partition, so);
  const int its_fine = gmres_its(sys, fine);
  const int its_two = gmres_its(sys, two);
  EXPECT_LE(its_two, its_fine);
}

TEST(Coarse, FlattensIterationGrowth) {
  // The headline property: one-level iteration counts grow with P; the
  // two-level counts grow much less (ideally stay bounded).
  auto sys = big_system(4, 6);
  SchwarzOptions so;
  so.type = SchwarzType::kBlockJacobi;
  so.fill_level = 0;
  SchwarzOptions two_level = so;
  two_level.coarse_space = true;

  int one_small = 0, one_large = 0, two_small = 0, two_large = 0;
  {
    auto p = part::kway_grow(sys.g, 4);
    one_small = gmres_its(sys, SchwarzPreconditioner(sys.a, p, so));
    two_small = gmres_its(sys, SchwarzPreconditioner(sys.a, p, two_level));
  }
  {
    auto p = part::kway_grow(sys.g, 32);
    one_large = gmres_its(sys, SchwarzPreconditioner(sys.a, p, so));
    two_large = gmres_its(sys, SchwarzPreconditioner(sys.a, p, two_level));
  }
  const int one_growth = one_large - one_small;
  const int two_growth = two_large - two_small;
  EXPECT_LE(two_growth, one_growth);
  EXPECT_LE(two_large, one_large);
}

TEST(Coarse, PartitionIdsOutsideThePartsAreRejected) {
  // A chain of 8 vertices split into 2 parts whose last id is out of
  // range: the coarse level would index its A0 rows past the end, and the
  // one level would leave that vertex's rows of z at zero.
  sparse::Stencil s;
  s.n = 8;
  s.ptr = {0};
  for (int i = 0; i < s.n; ++i) {
    for (int j = std::max(0, i - 1); j <= std::min(s.n - 1, i + 1); ++j)
      s.col.push_back(j);
    s.ptr.push_back(static_cast<int>(s.col.size()));
  }
  const auto a = sparse::build_bcsr(s, 2, sparse::synthetic_values(s));
  SchwarzOptions so;
  so.type = SchwarzType::kRasm;
  so.overlap = 1;
  so.fill_level = 0;
  for (const bool coarse : {false, true}) {
    so.coarse_space = coarse;
    part::Partition p;
    p.nparts = 2;
    for (const int bad : {p.nparts, -1}) {
      p.part = {0, 0, 0, 0, 1, 1, 1, bad};
      EXPECT_THROW({ SchwarzPreconditioner prec(a, p, so); }, Error)
          << "coarse " << coarse << ", id " << bad;
    }
    p.part.back() = 1;
    EXPECT_NO_THROW({ SchwarzPreconditioner prec(a, p, so); });
  }
}

TEST(Coarse, RefactorTracksNewValues) {
  auto sys = big_system(2, 4);
  auto partition = part::kway_grow(sys.g, 4);
  SchwarzOptions so;
  so.fill_level = 0;
  so.type = SchwarzType::kBlockJacobi;
  so.coarse_space = true;
  SchwarzPreconditioner prec(sys.a, partition, so);
  Vec z1(sys.b.size());
  prec.apply(sys.b.data(), z1.data());

  for (auto& v : sys.a.val) v *= 2.0;
  ASSERT_TRUE(prec.refactor(sys.a, 0).ok);
  Vec z2(sys.b.size());
  prec.apply(sys.b.data(), z2.data());
  // M^{-1} of 2A should be half of M^{-1} of A.
  for (std::size_t i = 0; i < z1.size(); ++i)
    EXPECT_NEAR(z2[i], 0.5 * z1[i], 1e-9 * (1 + std::abs(z1[i])));
}

}  // namespace
