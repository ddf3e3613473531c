// Tests for the Euler discretization: flux consistency, analytic
// Jacobians against finite differences, freestream preservation (the
// discrete divergence identity), gradient exactness, limiter bounds,
// layout invariance, and the limiter against its edge-ordered definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "cfd/euler.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "mesh/generator.hpp"
#include "sparse/ilu.hpp"

namespace {

using namespace f3d;
using namespace f3d::cfd;
using sparse::FieldLayout;

FlowConfig incompressible_cfg(int order = 1) {
  FlowConfig cfg;
  cfg.model = Model::kIncompressible;
  cfg.order = order;
  return cfg;
}

FlowConfig compressible_cfg(int order = 1) {
  FlowConfig cfg;
  cfg.model = Model::kCompressible;
  cfg.order = order;
  return cfg;
}

// A generic smooth non-trivial state for Jacobian tests.
void test_state(const FlowConfig& cfg, double* q) {
  if (cfg.model == Model::kIncompressible) {
    q[0] = 0.3;
    q[1] = 0.9;
    q[2] = -0.2;
    q[3] = 0.15;
  } else {
    q[0] = 1.1;
    q[1] = 0.4;
    q[2] = -0.1;
    q[3] = 0.2;
    q[4] = 2.2;
  }
}

// --- pointwise flux physics -------------------------------------------

TEST(Flux, RusanovConsistency) {
  // F(q, q, n) must equal the physical flux F(q, n).
  for (auto cfg : {incompressible_cfg(), compressible_cfg()}) {
    double q[kMaxComponents], f1[kMaxComponents], f2[kMaxComponents];
    test_state(cfg, q);
    const double n[3] = {0.3, -0.2, 0.5};
    physical_flux(cfg, q, n, f1);
    rusanov_flux(cfg, q, q, n, f2);
    for (int c = 0; c < cfg.nb(); ++c) EXPECT_NEAR(f1[c], f2[c], 1e-14);
  }
}

TEST(Flux, RusanovIsConservativeAntisymmetric) {
  // F(qL, qR, n) == -F(qR, qL, -n): what edge assembly relies on.
  for (auto cfg : {incompressible_cfg(), compressible_cfg()}) {
    double ql[kMaxComponents], qr[kMaxComponents];
    test_state(cfg, ql);
    test_state(cfg, qr);
    qr[0] += 0.1;
    qr[1] -= 0.2;
    const double n[3] = {0.3, -0.2, 0.5};
    const double nm[3] = {-0.3, 0.2, -0.5};
    double f1[kMaxComponents], f2[kMaxComponents];
    rusanov_flux(cfg, ql, qr, n, f1);
    rusanov_flux(cfg, qr, ql, nm, f2);
    for (int c = 0; c < cfg.nb(); ++c) EXPECT_NEAR(f1[c], -f2[c], 1e-14);
  }
}

TEST(Flux, WaveSpeedPositiveAndScalesWithArea) {
  for (auto cfg : {incompressible_cfg(), compressible_cfg()}) {
    double q[kMaxComponents];
    test_state(cfg, q);
    const double n[3] = {0.3, -0.2, 0.5};
    const double n2[3] = {0.6, -0.4, 1.0};
    const double l1 = max_wave_speed(cfg, q, n);
    const double l2 = max_wave_speed(cfg, q, n2);
    EXPECT_GT(l1, 0.0);
    EXPECT_NEAR(l2, 2 * l1, 1e-12);
  }
}

TEST(Flux, JacobianMatchesFiniteDifference) {
  for (auto cfg : {incompressible_cfg(), compressible_cfg()}) {
    const int nb = cfg.nb();
    double q[kMaxComponents];
    test_state(cfg, q);
    const double n[3] = {0.4, 0.1, -0.3};
    std::vector<double> a(nb * nb);
    flux_jacobian(cfg, q, n, a.data());

    const double eps = 1e-7;
    for (int j = 0; j < nb; ++j) {
      double qp[kMaxComponents], qm[kMaxComponents];
      std::copy(q, q + nb, qp);
      std::copy(q, q + nb, qm);
      qp[j] += eps;
      qm[j] -= eps;
      double fp[kMaxComponents], fm[kMaxComponents];
      physical_flux(cfg, qp, n, fp);
      physical_flux(cfg, qm, n, fm);
      for (int i = 0; i < nb; ++i) {
        const double fd = (fp[i] - fm[i]) / (2 * eps);
        EXPECT_NEAR(a[i * nb + j], fd, 1e-5 * (1 + std::abs(fd)))
            << "model=" << static_cast<int>(cfg.model) << " i=" << i
            << " j=" << j;
      }
    }
  }
}

TEST(Flux, WallJacobianMatchesFiniteDifference) {
  for (auto cfg : {incompressible_cfg(), compressible_cfg()}) {
    const int nb = cfg.nb();
    double q[kMaxComponents];
    test_state(cfg, q);
    const double n[3] = {0.0, 0.2, -0.7};
    std::vector<double> a(nb * nb);
    wall_flux_jacobian(cfg, q, n, a.data());
    const double eps = 1e-7;
    for (int j = 0; j < nb; ++j) {
      double qp[kMaxComponents], qm[kMaxComponents];
      std::copy(q, q + nb, qp);
      std::copy(q, q + nb, qm);
      qp[j] += eps;
      qm[j] -= eps;
      double fp[kMaxComponents], fm[kMaxComponents];
      wall_flux(cfg, qp, n, fp);
      wall_flux(cfg, qm, n, fm);
      for (int i = 0; i < nb; ++i)
        EXPECT_NEAR(a[i * nb + j], (fp[i] - fm[i]) / (2 * eps), 1e-6);
    }
  }
}

TEST(Flux, FreestreamHasUnitSoundSpeedCompressible) {
  auto cfg = compressible_cfg();
  double q[kMaxComponents];
  freestream_state(cfg, q);
  const double p = pressure(cfg, q);
  EXPECT_NEAR(std::sqrt(cfg.gamma * p / q[0]), 1.0, 1e-12);
  const double speed =
      std::sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / q[0];
  EXPECT_NEAR(speed, cfg.mach, 1e-12);
}

// --- discretization ----------------------------------------------------

class EulerDiscTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EulerDiscTest, FreestreamIsPreserved) {
  // The residual of the uniform freestream must vanish to roundoff: this
  // couples flux consistency with the dual-mesh closure identity.
  // Wall faces require the freestream to be wall-tangent, so use a flat
  // box (wall normal is exactly -z) and zero angle of attack.
  const auto [model_i, order] = GetParam();
  FlowConfig cfg = model_i == 0 ? incompressible_cfg(order)
                                : compressible_cfg(order);
  cfg.alpha_deg = 0.0;
  auto m = mesh::generate_box_mesh(6, 4, 4, 2.0, 1.0, 1.0);
  EulerDiscretization disc(m, cfg);
  auto q = disc.make_freestream_field();
  std::vector<double> r;
  disc.residual(q, r);
  double rn = 0;
  for (double v : r) rn = std::max(rn, std::abs(v));
  EXPECT_LT(rn, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(ModelsAndOrders, EulerDiscTest,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(1, 2)));

TEST(EulerDisc, WingProducesNonzeroResidualAtFreestream) {
  // With the bump and nonzero incidence the freestream is NOT a solution.
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 8, .ny = 4, .nz = 4});
  EulerDiscretization disc(m, incompressible_cfg(1));
  auto q = disc.make_freestream_field();
  std::vector<double> r;
  disc.residual(q, r);
  double rn = 0;
  for (double v : r) rn += v * v;
  EXPECT_GT(std::sqrt(rn), 1e-6);
}

TEST(EulerDisc, ResidualIsLayoutInvariant) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  for (int order : {1, 2}) {
    FlowConfig ci = incompressible_cfg(order);
    ci.layout = FieldLayout::kInterlaced;
    FlowConfig cn = ci;
    cn.layout = FieldLayout::kNonInterlaced;

    EulerDiscretization di(m, ci), dn(m, cn);
    auto qi = di.make_freestream_field();
    // Perturb deterministically so the residual is nontrivial.
    Rng rng(3);
    for (int v = 0; v < qi.num_vertices(); ++v)
      for (int c = 0; c < qi.nb(); ++c)
        qi.set(v, c, qi.get(v, c) + 0.05 * rng.uniform(-1, 1));
    auto qn = qi.as_layout(FieldLayout::kNonInterlaced);

    std::vector<double> ri, rn;
    di.residual(qi, ri);
    dn.residual(qn, rn);
    auto rn_conv = sparse::convert_layout(rn, FieldLayout::kNonInterlaced,
                                          FieldLayout::kInterlaced,
                                          qi.num_vertices(), qi.nb());
    ASSERT_EQ(ri.size(), rn_conv.size());
    for (std::size_t k = 0; k < ri.size(); ++k)
      EXPECT_NEAR(ri[k], rn_conv[k], 1e-12) << "order " << order;
  }
}

TEST(EulerDisc, GradientsExactForLinearField) {
  auto m = mesh::generate_box_mesh(5, 4, 3, 2.0, 1.5, 1.0);
  FlowConfig cfg = incompressible_cfg(2);
  EulerDiscretization disc(m, cfg);
  FlowField q(m.num_vertices(), cfg.nb(), cfg.layout);
  // q_c = a_c + g_c . x, exactly linear.
  const double g[4][3] = {{1, 2, 3}, {-1, 0.5, 0}, {0, 0, 2}, {0.25, -0.75, 1}};
  for (int v = 0; v < m.num_vertices(); ++v) {
    const auto& x = m.coords()[v];
    for (int c = 0; c < 4; ++c)
      q.set(v, c, 0.1 * c + g[c][0] * x[0] + g[c][1] * x[1] + g[c][2] * x[2]);
  }
  std::vector<double> grad;
  disc.gradients(q, grad);
  // Interior vertices (dual cell closed): gradient must be exact.
  std::vector<char> on_boundary(m.num_vertices(), 0);
  for (const auto& f : m.boundary_faces())
    for (int v : f.v) on_boundary[v] = 1;
  int checked = 0;
  for (int v = 0; v < m.num_vertices(); ++v) {
    if (on_boundary[v]) continue;
    ++checked;
    // SoA-blocked gradient layout: grad[(v*3 + d)*nb + c].
    for (int c = 0; c < 4; ++c)
      for (int d = 0; d < 3; ++d)
        EXPECT_NEAR(grad[(static_cast<std::size_t>(v) * 3 + d) * 4 + c],
                    g[c][d], 1e-10)
            << "v=" << v << " c=" << c << " d=" << d;
  }
  EXPECT_GT(checked, 0);
}

TEST(EulerDisc, LimitersInUnitInterval) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  FlowConfig cfg = incompressible_cfg(2);
  EulerDiscretization disc(m, cfg);
  auto q = disc.make_freestream_field();
  Rng rng(5);
  for (int v = 0; v < q.num_vertices(); ++v)
    for (int c = 0; c < q.nb(); ++c)
      q.set(v, c, q.get(v, c) + 0.3 * rng.uniform(-1, 1));
  std::vector<double> grad, phi;
  disc.gradients(q, grad);
  disc.limiters(q, grad, phi);
  for (double p : phi) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-12);
  }
}

// The Venkatakrishnan limiter as defined edge by edge, serially in the
// mesh's edge order: neighbor min/max from both endpoints of every edge,
// then each endpoint limited toward the edge midpoint. limiters() walks
// the stencil rows per vertex instead and must give the same bits.
template <class GS>
std::vector<GS> limiters_by_edge(const EulerDiscretization& disc,
                                 const FlowField& q,
                                 const std::vector<GS>& grad) {
  const auto& m = disc.mesh();
  const int nb = disc.nb();
  const auto at = [nb](int v, int c) {
    return static_cast<std::size_t>(v) * nb + c;
  };
  std::vector<double> qmin(static_cast<std::size_t>(m.num_vertices()) * nb);
  std::vector<double> qmax(qmin.size());
  for (int v = 0; v < m.num_vertices(); ++v)
    for (int c = 0; c < nb; ++c) qmin[at(v, c)] = qmax[at(v, c)] = q.get(v, c);
  for (const auto& e : m.edges())
    for (int c = 0; c < nb; ++c)
      for (int side = 0; side < 2; ++side) {
        const int v = e[side], other = e[1 - side];
        qmin[at(v, c)] = std::min(qmin[at(v, c)], q.get(other, c));
        qmax[at(v, c)] = std::max(qmax[at(v, c)], q.get(other, c));
      }
  const double k = disc.config().venkat_k;
  std::vector<GS> phi(qmin.size(), GS(1));
  for (const auto& e : m.edges()) {
    const auto& xi = m.coords()[e[0]];
    const auto& xj = m.coords()[e[1]];
    const double dx[3] = {xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]};
    for (int side = 0; side < 2; ++side) {
      const int v = e[side];
      const double sgn = side == 0 ? 0.5 : -0.5;
      const double eps2 = k * k * k * disc.dual().vertex_volume[v];
      for (int c = 0; c < nb; ++c) {
        const GS* g = &grad[static_cast<std::size_t>(v) * 3 * nb + c];
        const double d2 = sgn * (static_cast<double>(g[0]) * dx[0] +
                                 static_cast<double>(g[nb]) * dx[1] +
                                 static_cast<double>(g[2 * nb]) * dx[2]);
        if (d2 == 0) continue;
        const double dplus =
            (d2 > 0 ? qmax[at(v, c)] : qmin[at(v, c)]) - q.get(v, c);
        const double a = d2 > 0 ? dplus : -dplus, b = std::abs(d2);
        const double num = (a * a + eps2) * b + 2 * b * b * a;
        const double den = a * a + 2 * b * b + a * b + eps2;
        const double lim = den == 0 ? 1.0 : num / (den * b);
        phi[at(v, c)] = static_cast<GS>(
            std::min(static_cast<double>(phi[at(v, c)]), std::max(0.0, lim)));
      }
    }
  }
  return phi;
}

TEST(EulerDisc, LimiterMatchesEdgeDefinitionBitwise) {
  auto m = mesh::generate_wing_mesh_with_size(1500);
  mesh::shuffle_mesh(m, 7);
  for (FlowConfig cfg : {incompressible_cfg(2), compressible_cfg(2)}) {
    for (auto layout : {FieldLayout::kInterlaced, FieldLayout::kNonInterlaced}) {
      // The default K, and a small one that limits almost everywhere.
      for (double k : {cfg.venkat_k, 0.5}) {
        cfg.layout = layout;
        cfg.venkat_k = k;
        SCOPED_TRACE("nb " + std::to_string(cfg.nb()) + " layout " +
                     std::to_string(static_cast<int>(layout)) + " K " +
                     std::to_string(k));
        EulerDiscretization disc(m, cfg);
        auto q = disc.make_freestream_field();
        Rng rng(8);
        for (int v = 0; v < q.num_vertices(); ++v)
          for (int c = 0; c < q.nb(); ++c)
            q.set(v, c,
                  q.get(v, c) * (1 + 0.3 * rng.uniform(-1, 1)) +
                      0.3 * rng.uniform(-1, 1));
        std::vector<double> grad, phi;
        disc.gradients(q, grad);
        disc.limiters(q, grad, phi);
        const auto ref = limiters_by_edge(disc, q, grad);
        ASSERT_EQ(phi.size(), ref.size());
        EXPECT_EQ(
            std::memcmp(phi.data(), ref.data(), phi.size() * sizeof(double)),
            0);
        EXPECT_LT(*std::min_element(phi.begin(), phi.end()), 1.0);

        const std::vector<float> gradf(grad.begin(), grad.end());
        std::vector<float> phif;
        disc.limiters(q, gradf, phif);
        const auto reff = limiters_by_edge(disc, q, gradf);
        ASSERT_EQ(phif.size(), reff.size());
        EXPECT_EQ(
            std::memcmp(phif.data(), reff.data(), phif.size() * sizeof(float)),
            0);
      }
    }
  }
}

TEST(EulerDisc, JacobianApproximatesResidualDerivative) {
  // The assembled first-order Jacobian freezes the Rusanov dissipation
  // coefficient, so it is an approximation; it must still match a
  // directional finite difference of the first-order residual to a few
  // percent near freestream (this is the preconditioner-quality property
  // the NKS solver depends on).
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  for (auto base_cfg : {incompressible_cfg(1), compressible_cfg(1)}) {
    EulerDiscretization disc(m, base_cfg);
    auto q = disc.make_freestream_field();
    Rng rng(6);
    for (int v = 0; v < q.num_vertices(); ++v)
      for (int c = 0; c < q.nb(); ++c)
        q.set(v, c, q.get(v, c) * (1 + 0.02 * rng.uniform(-1, 1)) +
                        0.01 * rng.uniform(-1, 1));

    auto jac = disc.allocate_jacobian();
    disc.jacobian(q, jac);

    // Directional derivative: (r(q + eps d) - r(q)) / eps vs J d.
    std::vector<double> d(disc.num_unknowns());
    for (auto& v : d) v = rng.uniform(-1, 1);
    const double eps = 1e-6;
    FlowField qp = q;
    for (std::size_t k = 0; k < qp.data().size(); ++k)
      qp.data()[k] += eps * d[k];
    std::vector<double> r0, rp, jd(disc.num_unknowns());
    disc.residual(q, r0);
    disc.residual(qp, rp);
    jac.spmv(d.data(), jd.data());
    double num = 0, den = 0;
    for (int k = 0; k < disc.num_unknowns(); ++k) {
      const double fd = (rp[k] - r0[k]) / eps;
      num += (fd - jd[k]) * (fd - jd[k]);
      den += fd * fd;
    }
    EXPECT_LT(std::sqrt(num), 0.05 * std::sqrt(den))
        << "model " << static_cast<int>(base_cfg.model);
  }
}

TEST(EulerDisc, JacobianFillsAnyPatternHoldingTheStencil) {
  // The contract an ILU factor assembled in place relies on:
  // allocate_jacobian() gives the stencil with no values, and jacobian()
  // into a pattern with ILU(1) fill writes the stencil's blocks bit for bit
  // as into the stencil alone, +0.0 everywhere else, refilling in place.
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  for (auto cfg : {incompressible_cfg(1), compressible_cfg(1)}) {
    EulerDiscretization disc(m, cfg);
    auto q = disc.make_freestream_field();
    Rng rng(3);
    for (int v = 0; v < q.num_vertices(); ++v)
      for (int c = 0; c < q.nb(); ++c)
        q.set(v, c, q.get(v, c) * (1 + 0.02 * rng.uniform(-1, 1)));
    const auto stencil = disc.allocate_jacobian();
    EXPECT_TRUE(stencil.val.empty());
    const auto [pat, map] =
        sparse::principal_submatrix(stencil.ptr, stencil.col, {}, 1);
    ASSERT_GT(pat.nnz(), stencil.nblocks());
    const std::size_t bsz = static_cast<std::size_t>(stencil.nb) * stencil.nb;
    for (const int nt : {1, 4}) {
      exec::ThreadScope scope(nt);
      auto jac = stencil;
      disc.jacobian(q, jac);
      sparse::Bcsr<double> wide{.nb = stencil.nb, .nrows = pat.n,
                                .ptr = pat.ptr, .col = pat.col, .val = {}};
      disc.jacobian(q, wide);
      ASSERT_EQ(wide.val.size(), pat.nnz() * bsz);
      int stencil_diffs = 0, bad_fills = 0;
      for (std::size_t k = 0; k < pat.nnz(); ++k) {
        const double* got = &wide.val[k * bsz];
        if (map.src[k] >= 0) {
          const double* want = &jac.val[static_cast<std::size_t>(map.src[k]) * bsz];
          stencil_diffs += std::memcmp(got, want, bsz * sizeof(double)) != 0;
        } else {
          for (std::size_t e = 0; e < bsz; ++e)
            bad_fills += got[e] != 0.0 || std::signbit(got[e]);
        }
      }
      EXPECT_EQ(stencil_diffs, 0) << "threads " << nt;
      EXPECT_EQ(bad_fills, 0) << "threads " << nt;

      const std::vector<double> first = wide.val;
      const double* storage = wide.val.data();
      disc.jacobian(q, wide);
      EXPECT_EQ(wide.val.data(), storage);
      EXPECT_EQ(std::memcmp(wide.val.data(), first.data(),
                            first.size() * sizeof(double)),
                0);
    }
  }
}

TEST(EulerDisc, SpectralRadiusPositiveEverywhere) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  for (auto cfg : {incompressible_cfg(1), compressible_cfg(1)}) {
    EulerDiscretization disc(m, cfg);
    auto q = disc.make_freestream_field();
    std::vector<double> sr;
    disc.spectral_radius(q, sr);
    for (double v : sr) EXPECT_GT(v, 0.0);
  }
}

TEST(EulerDisc, ResidualFlopsPositiveAndScaleWithOrder) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  EulerDiscretization d1(m, incompressible_cfg(1));
  EulerDiscretization d2(m, incompressible_cfg(2));
  EXPECT_GT(d1.residual_flops(), 0.0);
  EXPECT_GT(d2.residual_flops(), d1.residual_flops());
}

}  // namespace
