// Property-based tests: parameterized sweeps over block sizes, fill
// levels, mesh shapes, layouts, and randomized states, checking the
// structural invariants every experiment relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "cfd/euler.hpp"
#include "common/rng.hpp"
#include "mesh/dual.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "partition/partition.hpp"
#include "solver/krylov.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"
#include "sparse/ilu.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using sparse::Vec;

// ---------------------------------------------------------------------
// ILU across (block size, fill level): factors of a diagonally dominant
// matrix must reduce the residual, monotonically with fill.
class IluProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IluProperty, ResidualReductionImprovesWithFill) {
  const auto [nb, fill] = GetParam();
  auto m = mesh::generate_box_mesh(5, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_bcsr(s, nb, fn);

  Rng rng(nb * 10 + fill);
  Vec b(static_cast<std::size_t>(a.scalar_n()));
  for (auto& v : b) v = rng.uniform(-1, 1);

  auto resid_for = [&](int level) {
    const sparse::BlockIlu<double> f(a, level);
    Vec x(b.size()), r(b.size());
    f.solve(b, x);
    a.spmv(x, r);
    for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - r[i];
    return sparse::norm2(r) / sparse::norm2(b);
  };
  const double rf = resid_for(fill);
  EXPECT_LT(rf, 0.3) << "nb=" << nb << " fill=" << fill;
  if (fill > 0) {
    EXPECT_LE(rf, resid_for(fill - 1) * 1.01)
        << "more fill must not degrade accuracy";
  }
}

INSTANTIATE_TEST_SUITE_P(BlockAndFill, IluProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------
// Layout equivalence across block sizes: interlaced point CSR, BCSR and
// non-interlaced point CSR all represent the same operator.
class LayoutProperty : public ::testing::TestWithParam<int> {};

TEST_P(LayoutProperty, AllFormatsAgree) {
  const int nb = GetParam();
  auto m = mesh::generate_box_mesh(4, 3, 3);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s, 7);
  auto ab = sparse::build_bcsr(s, nb, fn);
  auto ai = sparse::build_point_csr(s, nb, fn, sparse::FieldLayout::kInterlaced);
  auto an =
      sparse::build_point_csr(s, nb, fn, sparse::FieldLayout::kNonInterlaced);

  Rng rng(nb);
  Vec x(static_cast<std::size_t>(s.n) * nb);
  for (auto& v : x) v = rng.uniform(-1, 1);
  Vec yb, yi;
  ab.spmv(x, yb);
  ai.spmv(x, yi);
  auto xn = sparse::convert_layout(x, sparse::FieldLayout::kInterlaced,
                                   sparse::FieldLayout::kNonInterlaced, s.n, nb);
  Vec yn;
  an.spmv(xn, yn);
  auto yn_i = sparse::convert_layout(yn, sparse::FieldLayout::kNonInterlaced,
                                     sparse::FieldLayout::kInterlaced, s.n, nb);
  for (std::size_t i = 0; i < yb.size(); ++i) {
    EXPECT_NEAR(yb[i], yi[i], 1e-13);
    EXPECT_NEAR(yb[i], yn_i[i], 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, LayoutProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Dual-mesh closure across mesh shapes: the discrete divergence identity
// must hold on any generated mesh, warped or not, shuffled or not.
struct MeshCase {
  const char* name;
  int nx, ny, nz;
  bool wing;
  bool shuffle;
};

// Print the case by name. gtest's default prints the raw bytes — the
// `name` pointer and the struct padding — which change from build to
// build and would leak into the registered ctest names.
void PrintTo(const MeshCase& c, std::ostream* os) { *os << c.name; }

class DualClosureProperty : public ::testing::TestWithParam<MeshCase> {};

TEST_P(DualClosureProperty, ClosureHolds) {
  const auto& c = GetParam();
  auto m = c.wing
               ? mesh::generate_wing_mesh(
                     mesh::WingMeshConfig{.nx = c.nx, .ny = c.ny, .nz = c.nz})
               : mesh::generate_box_mesh(c.nx, c.ny, c.nz);
  if (c.shuffle) mesh::shuffle_mesh(m, 3);
  auto d = mesh::compute_dual_metrics(m);
  EXPECT_LT(mesh::closure_defect(m, d), 1e-10) << c.name;
  // Volumes: positive everywhere and summing to the mesh volume.
  double sum = 0;
  for (double v : d.vertex_volume) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, m.total_volume(), 1e-10 * m.total_volume());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DualClosureProperty,
    ::testing::Values(MeshCase{"box small", 2, 2, 2, false, false},
                      MeshCase{"box flat", 8, 4, 1, false, false},
                      MeshCase{"box tall", 2, 2, 9, false, true},
                      MeshCase{"wing coarse", 6, 3, 3, true, false},
                      MeshCase{"wing shuffled", 10, 5, 5, true, true}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& ch : n)
        if (ch == ' ') ch = '_';
      return n;
    });

// ---------------------------------------------------------------------
// Flux fuzzing: consistency and conservation antisymmetry must hold for
// random admissible states and normals (both models).
TEST(FluxFuzz, ConsistencyAndAntisymmetryOverRandomStates) {
  Rng rng(99);
  for (int model = 0; model < 2; ++model) {
    cfd::FlowConfig cfg;
    cfg.model = model == 0 ? cfd::Model::kIncompressible
                           : cfd::Model::kCompressible;
    const int nb = cfg.nb();
    for (int trial = 0; trial < 200; ++trial) {
      double ql[cfd::kMaxComponents], qr[cfd::kMaxComponents], n[3];
      for (int d = 0; d < 3; ++d) n[d] = rng.uniform(-1, 1);
      if (cfg.model == cfd::Model::kIncompressible) {
        for (int c = 0; c < 4; ++c) {
          ql[c] = rng.uniform(-1, 1);
          qr[c] = rng.uniform(-1, 1);
        }
      } else {
        // Admissible compressible states: positive density & pressure.
        auto fill = [&](double* q) {
          q[0] = rng.uniform(0.5, 2.0);
          for (int c = 1; c < 4; ++c) q[c] = q[0] * rng.uniform(-0.5, 0.5);
          const double ke =
              0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / q[0];
          q[4] = ke + rng.uniform(0.5, 2.0) / (cfg.gamma - 1.0);
        };
        fill(ql);
        fill(qr);
      }
      double f1[cfd::kMaxComponents], f2[cfd::kMaxComponents],
          fp[cfd::kMaxComponents];
      // Consistency.
      cfd::rusanov_flux(cfg, ql, ql, n, f1);
      cfd::physical_flux(cfg, ql, n, fp);
      for (int c = 0; c < nb; ++c)
        ASSERT_NEAR(f1[c], fp[c], 1e-12 * (1 + std::abs(fp[c])));
      // Antisymmetry.
      const double nm[3] = {-n[0], -n[1], -n[2]};
      cfd::rusanov_flux(cfg, ql, qr, n, f1);
      cfd::rusanov_flux(cfg, qr, ql, nm, f2);
      for (int c = 0; c < nb; ++c)
        ASSERT_NEAR(f1[c], -f2[c], 1e-12 * (1 + std::abs(f1[c])));
    }
  }
}

// ---------------------------------------------------------------------
// Global conservation: interior edge fluxes telescope, so the sum of the
// residual over all vertices equals the net boundary flux alone.
TEST(Conservation, ResidualSumEqualsBoundaryFlux) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 8, .ny = 4, .nz = 4});
  for (int order : {1, 2}) {
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = order;
    cfd::EulerDiscretization disc(m, cfg);
    auto q = disc.make_freestream_field();
    Rng rng(5);
    for (int v = 0; v < q.num_vertices(); ++v)
      for (int c = 0; c < q.nb(); ++c)
        q.set(v, c, q.get(v, c) + 0.1 * rng.uniform(-1, 1));
    std::vector<double> r;
    disc.residual(q, r);

    // Component-wise sum of the residual.
    double rsum[cfd::kMaxComponents] = {0, 0, 0, 0, 0};
    for (int v = 0; v < q.num_vertices(); ++v)
      for (int c = 0; c < q.nb(); ++c) rsum[c] += r[q.base(v) + c * q.stride()];

    // Recompute only the boundary closure.
    double bsum[cfd::kMaxComponents] = {0, 0, 0, 0, 0};
    const auto& bfaces = m.boundary_faces();
    const auto& dual = disc.dual();
    double qv[cfd::kMaxComponents], f[cfd::kMaxComponents],
        qinf[cfd::kMaxComponents];
    cfd::freestream_state(cfg, qinf);
    for (std::size_t bf = 0; bf < bfaces.size(); ++bf) {
      const double n3[3] = {dual.bface_normal[bf][0] / 3.0,
                            dual.bface_normal[bf][1] / 3.0,
                            dual.bface_normal[bf][2] / 3.0};
      for (int lv = 0; lv < 3; ++lv) {
        const int v = bfaces[bf].v[lv];
        for (int c = 0; c < q.nb(); ++c)
          qv[c] = q.get(v, c);
        if (bfaces[bf].tag == mesh::BoundaryTag::kWall)
          cfd::wall_flux(cfg, qv, n3, f);
        else
          cfd::rusanov_flux(cfg, qv, qinf, n3, f);
        for (int c = 0; c < q.nb(); ++c) bsum[c] += f[c];
      }
    }
    for (int c = 0; c < q.nb(); ++c)
      EXPECT_NEAR(rsum[c], bsum[c], 1e-10 * (1 + std::abs(bsum[c])))
          << "order " << order << " component " << c;
  }
}

// ---------------------------------------------------------------------
// Renumbering invariance: permuting the mesh must not change the physics.
// The wall pressure force of a (partially converged) state mapped through
// the permutation must match exactly.
TEST(Invariance, ResidualCommutesWithVertexPermutation) {
  auto m1 = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  auto m2 = m1;
  std::vector<int> perm(m1.num_vertices());
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(8);
  shuffle(perm, rng);
  m2.permute_vertices(perm);
  m2.permute_edges(mesh::edge_order_sorted(m2));

  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization d1(m1, cfg), d2(m2, cfg);

  auto q1 = d1.make_freestream_field();
  for (int v = 0; v < q1.num_vertices(); ++v)
    for (int c = 0; c < q1.nb(); ++c)
      q1.set(v, c, q1.get(v, c) + 0.05 * std::sin(v * 0.7 + c));
  // Same physical state on the permuted mesh.
  auto q2 = d2.make_freestream_field();
  for (int v = 0; v < q1.num_vertices(); ++v)
    for (int c = 0; c < q1.nb(); ++c) q2.set(perm[v], c, q1.get(v, c));

  std::vector<double> r1, r2;
  d1.residual(q1, r1);
  d2.residual(q2, r2);
  for (int v = 0; v < q1.num_vertices(); ++v)
    for (int c = 0; c < q1.nb(); ++c)
      EXPECT_NEAR(r1[q1.base(v) + c * q1.stride()],
                  r2[q2.base(perm[v]) + c * q2.stride()], 1e-11)
          << "v=" << v << " c=" << c;
}

// ---------------------------------------------------------------------
// Schwarz/GMRES across type x precision on a fixed system: all variants
// must solve to the same answer.
class SchwarzMatrix
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SchwarzMatrix, AllVariantsSolve) {
  const auto [type_i, single] = GetParam();
  auto m = mesh::generate_box_mesh(5, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_bcsr(s, 4, fn);
  auto g = mesh::build_graph(m.num_vertices(), m.edges());
  auto partition = part::kway_grow(g, 6);

  solver::SchwarzOptions so;
  so.type = type_i == 0   ? solver::SchwarzType::kBlockJacobi
            : type_i == 1 ? solver::SchwarzType::kAsm
                          : solver::SchwarzType::kRasm;
  so.overlap = so.type == solver::SchwarzType::kBlockJacobi ? 0 : 1;
  so.fill_level = 0;
  so.single_precision = single;
  solver::SchwarzPreconditioner prec(a, partition, so);

  Rng rng(3);
  Vec x_true(static_cast<std::size_t>(a.scalar_n())), b(x_true.size());
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  a.spmv(x_true, b);

  solver::LinearOperator op;
  op.n = a.scalar_n();
  op.apply = [&](const double* xx, double* yy) { a.spmv(xx, yy); };
  Vec x(b.size(), 0.0);
  solver::GmresOptions o;
  o.rtol = 1e-10;
  o.max_iters = 300;
  auto res = solver::gmres(op, prec, b, x, o);
  EXPECT_TRUE(res.converged) << prec.name();
  double err = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x[i] - x_true[i]));
  EXPECT_LT(err, 1e-7) << prec.name();
}

INSTANTIATE_TEST_SUITE_P(TypesAndPrecision, SchwarzMatrix,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(false, true)));

// ---------------------------------------------------------------------
// Partitioners across counts: full coverage + every vertex in exactly one
// part; kway connectivity; balance-first near-perfect balance.
class PartitionerProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerProperty, InvariantsAcrossCounts) {
  const int np = GetParam();
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 10, .ny = 6, .nz = 6});
  auto g = mesh::build_graph(m.num_vertices(), m.edges());

  auto pk = part::kway_grow(g, np);
  auto qk = part::evaluate(g, pk);
  EXPECT_EQ(qk.max_components, 1) << "kway parts must be connected";
  EXPECT_GT(qk.min_size, 0);

  auto pb = part::balance_first(g, np);
  auto qb = part::evaluate(g, pb);
  // Striping balances to about +/- 1 vertex per chunk boundary.
  const double ideal = static_cast<double>(m.num_vertices()) / np;
  EXPECT_LT(qb.imbalance, (ideal + 2.0) / ideal) << "balance-first must balance";

  // Overlap monotonicity for both.
  for (const auto& p : {pk, pb}) {
    auto r0 = part::overlap_expand(g, p, 0);
    auto r1 = part::overlap_expand(g, p, 1);
    for (int s = 0; s < np; ++s) EXPECT_LE(r0[s].size(), r1[s].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, PartitionerProperty,
                         ::testing::Values(2, 3, 7, 16, 40));

// ---------------------------------------------------------------------
// Gradient exactness is ordering-invariant (second-order reconstruction
// must not care about edge order).
TEST(Invariance, GradientsIgnoreEdgeOrder) {
  auto m = mesh::generate_box_mesh(4, 4, 3);
  cfd::FlowConfig cfg;
  cfg.order = 2;
  cfd::EulerDiscretization d1(m, cfg);
  auto q = d1.make_freestream_field();
  Rng rng(12);
  for (int v = 0; v < q.num_vertices(); ++v)
    for (int c = 0; c < q.nb(); ++c)
      q.set(v, c, rng.uniform(-1, 1));
  std::vector<double> g1;
  d1.gradients(q, g1);

  auto m2 = m;
  m2.permute_edges(mesh::edge_order_random(m2, 77));
  cfd::EulerDiscretization d2(m2, cfg);
  std::vector<double> g2;
  d2.gradients(q, g2);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_NEAR(g1[i], g2[i], 1e-12);
}

}  // namespace
