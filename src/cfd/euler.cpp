#include "cfd/euler.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"

namespace f3d::cfd {

namespace {
// Edges per parallel_for chunk in for_each_edge: small enough to split a
// color class across threads, large enough that a class on a small mesh
// runs inline.
constexpr std::int64_t kEdgeGrain = 256;
constexpr std::int64_t kVertexGrain = 1024;

using simd::Vd;

// Elementwise scatter helpers for the edge loops. The pack paths perform
// the identical per-element arithmetic as the scalar tails (no
// reassociation), so enabling SIMD does not change a single bit of the
// scatter results — the per-configuration rounding caveat only applies
// to the horizontal reductions elsewhere.

/// dst[0..n) += src[0..n)
inline void acc_arr(bool use_simd, double* dst, const double* src,
                    std::size_t n) {
  std::size_t k = 0;
  if (use_simd)
    for (; k + simd::kDoubleLanes <= n; k += simd::kDoubleLanes)
      (Vd::loadu(dst + k) + Vd::loadu(src + k)).storeu(dst + k);
  for (; k < n; ++k) dst[k] += src[k];
}

/// dst[0..n) -= src[0..n)
inline void sub_arr(bool use_simd, double* dst, const double* src,
                    std::size_t n) {
  std::size_t k = 0;
  if (use_simd)
    for (; k + simd::kDoubleLanes <= n; k += simd::kDoubleLanes)
      (Vd::loadu(dst + k) - Vd::loadu(src + k)).storeu(dst + k);
  for (; k < n; ++k) dst[k] -= src[k];
}

/// out[0..nb) = q(v, ·): one vertex's state as a local array.
inline void gather_state(const FlowField& q, int v, double* out) {
  const double* qv = q.data().data() + q.base(v);
  const std::size_t st = q.stride();
  for (int c = 0; c < q.nb(); ++c) out[c] = qv[c * st];
}

/// Runs body(e, i, j) for every edge e = (i, j), over the conflict-free
/// color classes in sequence with the edges of each class in parallel.
/// Within a class no two edges share a vertex, so the body may scatter
/// into per-vertex slots of i and j without a race, and each vertex
/// receives its contributions in class order whatever the thread count:
/// every scatter written through here is bit-identical at any thread
/// count.
template <class Body>
void for_each_edge(const mesh::EdgeColoring& coloring,
                   const std::vector<std::array<int, 2>>& edges,
                   const Body& body) {
  auto& pool = exec::pool();
  for (int cc = 0; cc < coloring.num_colors(); ++cc)
    pool.parallel_for(
        coloring.class_ptr[cc], coloring.class_ptr[cc + 1],
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k) {
            const int e = coloring.edge[k];
            body(e, edges[e][0], edges[e][1]);
          }
        },
        kEdgeGrain);
}

/// Runs body(v, n3, tag) for the three vertices of every boundary face,
/// serially in face order (boundary work is a small fraction); n3 is each
/// vertex's third of the face's dual normal.
template <class Body>
void for_each_boundary_vertex(const mesh::UnstructuredMesh& mesh,
                              const mesh::DualMetrics& dual,
                              const Body& body) {
  const auto& bfaces = mesh.boundary_faces();
  for (std::size_t bf = 0; bf < bfaces.size(); ++bf) {
    const double n3[3] = {dual.bface_normal[bf][0] / 3.0,
                          dual.bface_normal[bf][1] / 3.0,
                          dual.bface_normal[bf][2] / 3.0};
    for (const int v : bfaces[bf].v) body(v, n3, bfaces[bf].tag);
  }
}
}  // namespace

std::shared_ptr<const SharedGeometry> SharedGeometry::compute(
    const mesh::UnstructuredMesh& mesh) {
  auto g = std::make_shared<SharedGeometry>();
  g->dual = mesh::compute_dual_metrics(mesh);
  g->stencil = sparse::stencil_from_mesh(mesh);
  g->coloring = mesh::edge_color_classes(mesh);
  g->num_vertices = mesh.num_vertices();
  return g;
}

EulerDiscretization::EulerDiscretization(
    const mesh::UnstructuredMesh& mesh, FlowConfig cfg,
    std::shared_ptr<const SharedGeometry> shared)
    : mesh_(mesh),
      cfg_(cfg),
      geom_(shared != nullptr ? std::move(shared)
                              : SharedGeometry::compute(mesh)),
      dual_(geom_->dual),
      stencil_(geom_->stencil),
      coloring_(geom_->coloring) {
  F3D_CHECK(cfg_.order == 1 || cfg_.order == 2);
  F3D_CHECK_MSG(geom_->num_vertices == mesh.num_vertices(),
                "shared geometry was computed from a different mesh");
  freestream_state(cfg_, qinf_);
}

FlowField EulerDiscretization::make_freestream_field() const {
  FlowField f(num_vertices(), nb(), cfg_.layout);
  for (int v = 0; v < num_vertices(); ++v)
    for (int c = 0; c < nb(); ++c) f.set(v, c, qinf_[c]);
  return f;
}

void EulerDiscretization::gradients(const FlowField& q,
                                    std::vector<double>& grad) const {
  F3D_OBS_SPAN("gradient");
  const int nv = num_vertices();
  const int ncomp = nb();
  grad.assign(static_cast<std::size_t>(nv) * ncomp * 3, 0.0);

  const double* qd = q.data().data();
  const std::size_t st = q.stride();

  // Edge-difference Green-Gauss: grad_i += 1/(2 V_i) n_ij (q_j - q_i),
  // accumulated into the SoA-blocked layout grad[(v*3 + d)*ncomp + c]:
  // all ncomp components of one direction contiguous, so at nb == 4 one
  // edge update is six pack multiply-adds (3 directions x 2 endpoints)
  // instead of 24 scalar ones. The pack path is elementwise —
  // bit-identical to the scalar path.
  const bool vec4 =
      simd::enabled() && st == 1 && ncomp == simd::kDoubleLanes;
  for_each_edge(coloring_, mesh_.edges(), [&, vec4](int e, int i, int j) {
    const auto& n = dual_.edge_normal[e];
    const std::size_t bi = q.base(i), bj = q.base(j);
    double* gi = &grad[static_cast<std::size_t>(i) * 3 * ncomp];
    double* gj = &grad[static_cast<std::size_t>(j) * 3 * ncomp];
    if (vec4) {
      const Vd dq = Vd::loadu(qd + bj) - Vd::loadu(qd + bi);
      for (int d = 0; d < 3; ++d) {
        const Vd w = Vd::broadcast(0.5 * n[d]);
        double* gid = gi + d * ncomp;
        double* gjd = gj + d * ncomp;
        (Vd::loadu(gid) + w * dq).storeu(gid);
        (Vd::loadu(gjd) + w * dq).storeu(gjd);
      }
    } else {
      for (int c = 0; c < ncomp; ++c) {
        const double dq = qd[bj + c * st] - qd[bi + c * st];
        for (int d = 0; d < 3; ++d) {
          gi[d * ncomp + c] += 0.5 * n[d] * dq;
          gj[d * ncomp + c] += 0.5 * n[d] * dq;
        }
      }
    }
  });
  const bool use_simd = simd::enabled();
  exec::pool().parallel_for(
      0, nv,
      [&, use_simd](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v) {
          const double inv_vol = 1.0 / dual_.vertex_volume[v];
          double* gv = &grad[static_cast<std::size_t>(v) * ncomp * 3];
          const std::size_t m = static_cast<std::size_t>(ncomp) * 3;
          std::size_t k = 0;
          if (use_simd) {
            const Vd w = Vd::broadcast(inv_vol);
            for (; k + simd::kDoubleLanes <= m; k += simd::kDoubleLanes)
              (Vd::loadu(gv + k) * w).storeu(gv + k);
          }
          for (; k < m; ++k) gv[k] *= inv_vol;
        }
      },
      kVertexGrain);
}

template <class GS>
void EulerDiscretization::gradients_t(const FlowField& q,
                                      std::vector<GS>& grad) const {
  if constexpr (std::is_same_v<GS, double>) {
    gradients(q, grad);
  } else {
    // Float-storage reconstruction: accumulate in double (the scatter
    // above), then narrow once. The narrowing pass is the only place the
    // stored operands lose bits — the flux arithmetic re-promotes.
    std::vector<double> tmp;
    gradients(q, tmp);
    grad.resize(tmp.size());
    exec::pool().parallel_for(
        0, static_cast<std::int64_t>(tmp.size()),
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k)
            grad[k] = static_cast<GS>(tmp[k]);
        },
        /*grain=*/8192);
  }
}

template <class GS>
void EulerDiscretization::limiters(const FlowField& q,
                                   const std::vector<GS>& grad,
                                   std::vector<GS>& phi) const {
  F3D_OBS_SPAN("limiter");
  const int nv = num_vertices();
  const int ncomp = nb();
  phi.resize(static_cast<std::size_t>(nv) * ncomp);

  const auto& coords = mesh_.coords();
  const double* qd = q.data().data();
  const std::size_t st = q.stride();
  // Venkatakrishnan limiter, eps^2 ~ (K^3) * cell volume (h^3 scale).
  const double k3 = cfg_.venkat_k * cfg_.venkat_k * cfg_.venkat_k;
  auto venkat = [](double dplus, double d2, double eps2) {
    const double num = (dplus * dplus + eps2) * d2 + 2 * d2 * d2 * dplus;
    const double den = dplus * dplus + 2 * d2 * d2 + dplus * d2 + eps2;
    return den == 0 ? 1.0 : num / (den * d2);
  };

  // One pass per vertex v over its stencil row (v and its neighbors):
  // the neighbor min/max per component, then phi_v = min(1, limiter
  // toward the midpoint of each edge (v, j)). Each vertex writes only its
  // own phi, so no coloring is needed. The result is bit-identical to the
  // edge-ordered definition (both endpoints of each edge in turn): min
  // and max are exact and order-free, also through the GS narrowing, and
  // x_v - x_j == -(x_j - x_v), so 1/2 g.dx seen from the other endpoint
  // differs only in sign (-ffp-contract=off); d2 == 0 is skipped either
  // way.
  exec::pool().parallel_for(
      0, nv,
      [&](std::int64_t lo, std::int64_t hi) {
        double qmin[kMaxComponents], qmax[kMaxComponents], p[kMaxComponents];
        for (std::int64_t v = lo; v < hi; ++v) {
          const int* row = stencil_.col.data() + stencil_.ptr[v];
          const int* row_end = stencil_.col.data() + stencil_.ptr[v + 1];
          const std::size_t bv = q.base(static_cast<int>(v));
          for (int c = 0; c < ncomp; ++c) {
            qmin[c] = qmax[c] = qd[bv + c * st];
            p[c] = 1.0;
          }
          for (const int* j = row; j != row_end; ++j) {
            if (*j == v) continue;
            const std::size_t bj = q.base(*j);
            for (int c = 0; c < ncomp; ++c) {
              qmin[c] = std::min(qmin[c], qd[bj + c * st]);
              qmax[c] = std::max(qmax[c], qd[bj + c * st]);
            }
          }
          const double eps2 = k3 * dual_.vertex_volume[v];
          for (const int* j = row; j != row_end; ++j) {
            if (*j == v) continue;
            const double dx[3] = {coords[*j][0] - coords[v][0],
                                  coords[*j][1] - coords[v][1],
                                  coords[*j][2] - coords[v][2]};
            for (int c = 0; c < ncomp; ++c) {
              // Gradient reads promote GS -> double; the SoA layout puts
              // direction d of component c at g[d * ncomp].
              const GS* g = &grad[static_cast<std::size_t>(v) * 3 * ncomp + c];
              const double d2 =
                  0.5 * (static_cast<double>(g[0]) * dx[0] +
                         static_cast<double>(g[ncomp]) * dx[1] +
                         static_cast<double>(g[2 * ncomp]) * dx[2]);
              if (d2 == 0) continue;
              const double qv = qd[bv + c * st];
              const double dplus = d2 > 0 ? qmax[c] - qv : qmin[c] - qv;
              const double lim =
                  venkat(d2 > 0 ? dplus : -dplus, std::abs(d2), eps2);
              p[c] = std::min(p[c], std::max(0.0, lim));
            }
          }
          for (int c = 0; c < ncomp; ++c)
            phi[static_cast<std::size_t>(v) * ncomp + c] = static_cast<GS>(p[c]);
        }
      },
      kVertexGrain);
}

template void EulerDiscretization::limiters<double>(
    const FlowField&, const std::vector<double>&, std::vector<double>&) const;
template void EulerDiscretization::limiters<float>(
    const FlowField&, const std::vector<float>&, std::vector<float>&) const;

template <class GS>
void EulerDiscretization::interface_states_t(const FlowField& q,
                                             const std::vector<GS>& grad,
                                             const std::vector<GS>& phi,
                                             int i, int j, double* ql,
                                             double* qr) const {
  const int ncomp = nb();
  const auto& coords = mesh_.coords();
  const double* qd = q.data().data();
  const std::size_t st = q.stride();
  const std::size_t bi = q.base(i), bj = q.base(j);
  const double dx[3] = {coords[j][0] - coords[i][0],
                        coords[j][1] - coords[i][1],
                        coords[j][2] - coords[i][2]};
  if (simd::enabled() && st == 1 && ncomp == simd::kDoubleLanes) {
    // SoA pack reconstruction: one promoting load per direction covers
    // all components; per-lane arithmetic matches the scalar path
    // (((gx*dx0 + gy*dx1) + gz*dx2) then * +-0.5), so this is
    // bit-identical to the loop below.
    const GS* gi = &grad[static_cast<std::size_t>(i) * 3 * ncomp];
    const GS* gj = &grad[static_cast<std::size_t>(j) * 3 * ncomp];
    const Vd b0 = Vd::broadcast(dx[0]), b1 = Vd::broadcast(dx[1]),
             b2 = Vd::broadcast(dx[2]);
    const Vd di = Vd::broadcast(0.5) *
                  ((Vd::loadu(gi) * b0 + Vd::loadu(gi + ncomp) * b1) +
                   Vd::loadu(gi + 2 * ncomp) * b2);
    const Vd dj = Vd::broadcast(-0.5) *
                  ((Vd::loadu(gj) * b0 + Vd::loadu(gj + ncomp) * b1) +
                   Vd::loadu(gj + 2 * ncomp) * b2);
    const Vd phi_i = Vd::loadu(&phi[static_cast<std::size_t>(i) * ncomp]);
    const Vd phi_j = Vd::loadu(&phi[static_cast<std::size_t>(j) * ncomp]);
    (Vd::loadu(qd + bi) + phi_i * di).storeu(ql);
    (Vd::loadu(qd + bj) + phi_j * dj).storeu(qr);
    return;
  }
  for (int c = 0; c < ncomp; ++c) {
    const GS* gi = &grad[static_cast<std::size_t>(i) * 3 * ncomp + c];
    const GS* gj = &grad[static_cast<std::size_t>(j) * 3 * ncomp + c];
    const double di =
        0.5 * ((static_cast<double>(gi[0]) * dx[0] +
                static_cast<double>(gi[ncomp]) * dx[1]) +
               static_cast<double>(gi[2 * ncomp]) * dx[2]);
    const double dj =
        -0.5 * ((static_cast<double>(gj[0]) * dx[0] +
                 static_cast<double>(gj[ncomp]) * dx[1]) +
                static_cast<double>(gj[2 * ncomp]) * dx[2]);
    ql[c] = qd[bi + c * st] +
            static_cast<double>(phi[static_cast<std::size_t>(i) * ncomp + c]) *
                di;
    qr[c] = qd[bj + c * st] +
            static_cast<double>(phi[static_cast<std::size_t>(j) * ncomp + c]) *
                dj;
  }
}

template <class GS>
void EulerDiscretization::residual_impl_t(const FlowField& q,
                                          std::vector<double>& r) const {
  const int nv = num_vertices();
  const int ncomp = nb();
  F3D_CHECK(q.num_vertices() == nv && q.nb() == ncomp);
  F3D_CHECK(q.layout() == cfg_.layout);
  r.assign(static_cast<std::size_t>(nv) * ncomp, 0.0);

  const bool second_order = cfg_.order == 2;
  std::vector<GS> grad, phi;
  if (second_order) {
    gradients_t(q, grad);
    limiters(q, grad, phi);
  }

  const std::size_t st = q.stride();
  double* out = r.data();

  F3D_OBS_SPAN("flux_scatter");
  // With an interlaced field the +-f scatter runs as packs (elementwise —
  // bit-identical to the scalar loop); the flux arithmetic itself is
  // always double.
  const bool use_simd = simd::enabled() && st == 1;
  for_each_edge(coloring_, mesh_.edges(), [&, use_simd](int e, int i, int j) {
    double ql[kMaxComponents], qr[kMaxComponents], f[kMaxComponents];
    if (second_order) {
      interface_states_t(q, grad, phi, i, j, ql, qr);
    } else {
      gather_state(q, i, ql);
      gather_state(q, j, qr);
    }
    rusanov_flux(cfg_, ql, qr, dual_.edge_normal[e].data(), f);
    const std::size_t bi = q.base(i), bj = q.base(j);
    if (use_simd) {
      acc_arr(true, out + bi, f, ncomp);
      sub_arr(true, out + bj, f, ncomp);
    } else {
      for (int c = 0; c < ncomp; ++c) {
        out[bi + c * st] += f[c];
        out[bj + c * st] -= f[c];
      }
    }
  });

  for_each_boundary_vertex(
      mesh_, dual_, [&](int v, const double* n3, mesh::BoundaryTag tag) {
        double qv[kMaxComponents], f[kMaxComponents];
        gather_state(q, v, qv);
        if (tag == mesh::BoundaryTag::kWall)
          wall_flux(cfg_, qv, n3, f);
        else
          rusanov_flux(cfg_, qv, qinf_, n3, f);
        const std::size_t b = q.base(v);
        for (int c = 0; c < ncomp; ++c) out[b + c * st] += f[c];
      });
}

void EulerDiscretization::residual(const FlowField& q,
                                   std::vector<double>& r) const {
  if (cfg_.order == 2 && cfg_.reco_single_precision)
    residual_impl_t<float>(q, r);
  else
    residual_impl_t<double>(q, r);
}

void EulerDiscretization::spectral_radius(const FlowField& q,
                                          std::vector<double>& sr) const {
  F3D_OBS_SPAN("spectral_radius");
  sr.assign(num_vertices(), 0.0);
  for_each_edge(coloring_, mesh_.edges(), [&](int e, int i, int j) {
    double qi[kMaxComponents], qj[kMaxComponents];
    gather_state(q, i, qi);
    gather_state(q, j, qj);
    const double* n = dual_.edge_normal[e].data();
    const double lam =
        std::max(max_wave_speed(cfg_, qi, n), max_wave_speed(cfg_, qj, n));
    sr[i] += lam;
    sr[j] += lam;
  });
  for_each_boundary_vertex(
      mesh_, dual_, [&](int v, const double* n3, mesh::BoundaryTag) {
        double qv[kMaxComponents];
        gather_state(q, v, qv);
        sr[v] += max_wave_speed(cfg_, qv, n3);
      });
}

sparse::Bcsr<double> EulerDiscretization::allocate_jacobian() const {
  sparse::Bcsr<double> jac;
  jac.nb = nb();
  jac.nrows = stencil_.n;
  jac.ptr = stencil_.ptr;
  jac.col = stencil_.col;
  return jac;
}

void EulerDiscretization::jacobian(const FlowField& q,
                                   sparse::Bcsr<double>& jac) const {
  F3D_OBS_SPAN("jacobian_assembly");
  const int ncomp = nb();
  const std::size_t bsz = static_cast<std::size_t>(ncomp) * ncomp;
  F3D_CHECK(jac.nrows == stencil_.n && jac.nb == ncomp);
  jac.val.assign(jac.nblocks() * bsz, 0.0);

  // Index of block (i, j) in jac's sparsity, via binary search per row.
  auto block_at = [&](int i, int j) -> double* {
    const int lo = jac.ptr[i], hi = jac.ptr[i + 1];
    auto it = std::lower_bound(jac.col.begin() + lo, jac.col.begin() + hi, j);
    F3D_CHECK(it != jac.col.begin() + hi && *it == j);
    return &jac.val[static_cast<std::size_t>(it - jac.col.begin()) * bsz];
  };

  // Edge (i, j) updates blocks (i,i), (i,j), (j,i), (j,j); two edges with
  // no shared vertex touch disjoint blocks. The block updates are
  // elementwise over nb*nb scalars — pack strip-mined, bit-identical to
  // the scalar loop.
  const bool use_simd = simd::enabled();
  for_each_edge(coloring_, mesh_.edges(), [&, use_simd](int e, int i, int j) {
    double qi[kMaxComponents], qj[kMaxComponents];
    double dl[kMaxComponents * kMaxComponents],
        dr[kMaxComponents * kMaxComponents];
    gather_state(q, i, qi);
    gather_state(q, j, qj);
    rusanov_flux_jacobian(cfg_, qi, qj, dual_.edge_normal[e].data(), dl, dr);
    acc_arr(use_simd, block_at(i, i), dl, bsz);
    acc_arr(use_simd, block_at(i, j), dr, bsz);
    sub_arr(use_simd, block_at(j, i), dl, bsz);
    sub_arr(use_simd, block_at(j, j), dr, bsz);
  });

  // Heap, not stack: as stack arrays, glibc's dynamic trim threshold kept
  // ~8 MB more freed heap in compwing-6k's peak RSS.
  std::vector<double> da(bsz), db(bsz);
  for_each_boundary_vertex(
      mesh_, dual_, [&](int v, const double* n3, mesh::BoundaryTag tag) {
        double qv[kMaxComponents];
        gather_state(q, v, qv);
        if (tag == mesh::BoundaryTag::kWall)
          wall_flux_jacobian(cfg_, qv, n3, da.data());
        else  // d/dq_v of rusanov(q_v, q_inf): the left-state Jacobian.
          rusanov_flux_jacobian(cfg_, qv, qinf_, n3, da.data(), db.data());
        double* jvv = block_at(v, v);
        for (std::size_t k = 0; k < bsz; ++k) jvv[k] += da[k];
      });
}

double EulerDiscretization::residual_flops() const {
  // Approximate per-edge flux cost (two physical fluxes, two wave speeds,
  // the Rusanov combination), plus reconstruction when second order.
  const int ncomp = nb();
  const double per_edge =
      cfg_.model == Model::kIncompressible ? 60.0 : 100.0;
  const double reco = cfg_.order == 2 ? 14.0 * ncomp + 30.0 : 0.0;
  return static_cast<double>(mesh_.num_edges()) * (per_edge + reco) +
         static_cast<double>(mesh_.num_boundary_faces()) * 3 *
             (per_edge * 0.7);
}

}  // namespace f3d::cfd
