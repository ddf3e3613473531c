// Failure injection and boundary-condition tests across all modules:
// every F3D_CHECK guard that protects an API contract should fire on bad
// input, and degenerate-but-legal inputs should work.

#include <gtest/gtest.h>

#include <cmath>

#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "partition/multilevel.hpp"
#include "solver/krylov.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"
#include "sparse/ilu.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using sparse::Vec;

// --- mesh ------------------------------------------------------------------

TEST(EdgeCase, EmptyMeshRejected) {
  mesh::UnstructuredMesh m({}, {}, {});
  EXPECT_THROW(m.finalize(), Error);
}

TEST(EdgeCase, TetVertexOutOfRangeRejected) {
  std::vector<std::array<double, 3>> coords = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<int, 4>> tets = {{0, 1, 2, 7}};
  mesh::UnstructuredMesh m(std::move(coords), std::move(tets), {});
  EXPECT_THROW(m.finalize(), Error);
}

TEST(EdgeCase, DegenerateTetRejected) {
  std::vector<std::array<double, 3>> coords = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<int, 4>> tets = {{0, 1, 2, 2}};
  mesh::UnstructuredMesh m(std::move(coords), std::move(tets), {});
  EXPECT_THROW(m.finalize(), Error);
}

TEST(EdgeCase, UnfinalizedMeshOperationsRejected) {
  std::vector<std::array<double, 3>> coords = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<int, 4>> tets = {{0, 1, 2, 3}};
  mesh::UnstructuredMesh m(std::move(coords), std::move(tets), {});
  EXPECT_THROW(m.permute_vertices({0, 1, 2, 3}), Error);
  EXPECT_THROW((void)m.vertex_adjacency(), Error);
  EXPECT_THROW((void)m.bandwidth(), Error);
}

TEST(EdgeCase, NegativeVolumeTetCaughtByDualMetrics) {
  // Inverted orientation: dual metrics must refuse.
  std::vector<std::array<double, 3>> coords = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<int, 4>> tets = {{0, 2, 1, 3}};  // swapped
  mesh::UnstructuredMesh m(std::move(coords), std::move(tets), {});
  m.finalize();
  EXPECT_THROW(mesh::compute_dual_metrics(m), Error);
}

TEST(EdgeCase, MinimalOneCellBox) {
  auto m = mesh::generate_box_mesh(1, 1, 1);
  EXPECT_EQ(m.num_vertices(), 8);
  EXPECT_EQ(m.num_tets(), 6);
  auto d = mesh::compute_dual_metrics(m);
  EXPECT_LT(mesh::closure_defect(m, d), 1e-12);
}

TEST(EdgeCase, GeneratorRejectsZeroCells) {
  EXPECT_THROW(mesh::generate_box_mesh(0, 1, 1), Error);
  EXPECT_THROW(mesh::generate_wing_mesh_with_size(1), Error);
}

// --- sparse ------------------------------------------------------------------

TEST(EdgeCase, CsrCheckCatchesCorruption) {
  sparse::Csr<double> a;
  a.n = 2;
  a.ptr = {0, 1, 2};
  a.col = {0, 5};  // out of range
  a.val = {1.0, 1.0};
  EXPECT_THROW(a.check(), Error);
  a.col = {0, 1};
  a.check();  // now fine
  a.ptr = {0, 2, 1};  // non-monotone
  EXPECT_THROW(a.check(), Error);
}

TEST(EdgeCase, IluZeroPivotDetected) {
  // 2x2 with a structurally present but numerically zero pivot after
  // elimination: [1 1; 1 1] -> U22 = 0.
  sparse::Csr<double> a;
  a.n = 2;
  a.ptr = {0, 2, 4};
  a.col = {0, 1, 0, 1};
  a.val = {1, 1, 1, 1};
  EXPECT_THROW(sparse::PointIlu<double>(a, 0), Error);
  // A refactor onto the same values reports the row instead.
  auto good = a;
  good.val = {2, 1, 1, 2};
  sparse::PointIlu<double> f(good, 0);
  const auto st = f.refactor(a);
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(st.bad_row, 1);
}

TEST(EdgeCase, BlockIluSingularDiagonalDetected) {
  sparse::Bcsr<double> a;
  a.nb = 2;
  a.nrows = 1;
  a.ptr = {0, 1};
  a.col = {0};
  a.val = {1, 2, 2, 4};  // rank-1 block
  EXPECT_THROW(sparse::BlockIlu<double>(a, 0), Error);
  auto good = a;
  good.val = {1, 2, 2, 5};
  sparse::BlockIlu<double> f(good, 0);
  const auto st = f.refactor(a);
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(st.bad_row, 0);
}

TEST(EdgeCase, ConvertLayoutRejectsWrongSize) {
  Vec x(10);
  EXPECT_THROW(
      sparse::convert_layout(x, sparse::FieldLayout::kInterlaced,
                             sparse::FieldLayout::kNonInterlaced, 3, 4),
      Error);
}

// --- solver -------------------------------------------------------------------

TEST(EdgeCase, GmresZeroRhsReturnsZero) {
  solver::LinearOperator op;
  op.n = 4;
  op.apply = [](const double* x, double* y) {
    for (int i = 0; i < 4; ++i) y[i] = 2 * x[i];
  };
  solver::IdentityPreconditioner m(4);
  Vec b(4, 0.0), x(4, 0.0);
  auto r = solver::gmres(op, m, b, x, {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EdgeCase, GmresSizeMismatchRejected) {
  solver::LinearOperator op;
  op.n = 4;
  op.apply = [](const double*, double*) {};
  solver::IdentityPreconditioner m(4);
  Vec b(3, 1.0), x(4, 0.0);
  EXPECT_THROW(solver::gmres(op, m, b, x, {}), Error);
}

TEST(EdgeCase, GmresRestartOne) {
  // Restart 1 = steepest-descent-like; must still converge on identity.
  solver::LinearOperator op;
  op.n = 3;
  op.apply = [](const double* x, double* y) {
    for (int i = 0; i < 3; ++i) y[i] = x[i];
  };
  solver::IdentityPreconditioner m(3);
  Vec b = {1, 2, 3}, x(3, 0.0);
  solver::GmresOptions o;
  o.restart = 1;
  auto r = solver::gmres(op, m, b, x, o);
  EXPECT_TRUE(r.converged);
}

TEST(EdgeCase, SchwarzBlockJacobiWithOverlapRejected) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_bcsr(s, 2, fn);
  auto g = mesh::build_graph(m.num_vertices(), m.edges());
  auto p = part::kway_grow(g, 2);
  solver::SchwarzOptions so;
  so.type = solver::SchwarzType::kBlockJacobi;
  so.overlap = 1;  // contradiction
  EXPECT_THROW(solver::SchwarzPreconditioner(a, p, so), Error);
}

TEST(EdgeCase, SchwarzPartitionSizeMismatchRejected) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_bcsr(s, 2, fn);
  part::Partition p;
  p.nparts = 2;
  p.part.assign(a.nrows + 1, 0);  // wrong size
  EXPECT_THROW(solver::SchwarzPreconditioner(a, p, {}), Error);
}

TEST(EdgeCase, PtcRejectsWrongStateSize) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  cfd::FlowConfig cfg;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc);
  Vec x(3, 0.0);  // wrong size
  EXPECT_THROW(solver::ptc_solve(prob, x, {}), Error);
}

TEST(EdgeCase, PtcZeroStepsBudget) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  cfd::FlowConfig cfg;
  cfd::EulerDiscretization disc(m, cfg);
  cfd::EulerProblem prob(disc, -1.0);
  auto x = prob.initial_state();
  solver::PtcOptions o;
  o.max_steps = 0;
  auto r = solver::ptc_solve(prob, x, o);
  EXPECT_EQ(r.steps, 0);
  EXPECT_GT(r.initial_residual, 0.0);
}

// --- partition -----------------------------------------------------------------

TEST(EdgeCase, PartitionersRejectInvalidCounts) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  auto g = mesh::build_graph(m.num_vertices(), m.edges());
  EXPECT_THROW(part::kway_grow(g, 0), Error);
  EXPECT_THROW(part::kway_grow(g, m.num_vertices() + 1), Error);
  EXPECT_THROW(part::multilevel_kway(g, 0), Error);
  EXPECT_THROW(part::balance_first(g, -1), Error);
}

TEST(EdgeCase, PartitionOnePartPerVertex) {
  auto m = mesh::generate_box_mesh(1, 1, 1);
  auto g = mesh::build_graph(m.num_vertices(), m.edges());
  auto p = part::kway_grow(g, m.num_vertices());
  std::vector<int> seen(m.num_vertices(), 0);
  for (int v : p.part) ++seen[v];
  for (int c : seen) EXPECT_EQ(c, 1);
}

// --- cfd ------------------------------------------------------------------------

TEST(EdgeCase, EulerProblemRequiresInterlaced) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  cfd::FlowConfig cfg;
  cfg.layout = sparse::FieldLayout::kNonInterlaced;
  cfd::EulerDiscretization disc(m, cfg);
  EXPECT_THROW(cfd::EulerProblem prob(disc), Error);
}

TEST(EdgeCase, InvalidOrderRejected) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  cfd::FlowConfig cfg;
  cfg.order = 3;
  EXPECT_THROW(cfd::EulerDiscretization(m, cfg), Error);
}

TEST(EdgeCase, ResidualLayoutMismatchRejected) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  cfd::FlowConfig cfg;  // interlaced
  cfd::EulerDiscretization disc(m, cfg);
  cfd::FlowField q(m.num_vertices(), cfg.nb(),
                   sparse::FieldLayout::kNonInterlaced);
  std::vector<double> r;
  EXPECT_THROW(disc.residual(q, r), Error);
}

}  // namespace
