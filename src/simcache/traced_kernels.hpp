#pragma once
// Instrumented versions of the performance-critical kernels. Each is a
// template over a Tracer policy: with MemoryTracer they drive the cache /
// TLB simulator (Figure 3); with NullTracer they compile to the plain
// kernel (zero instrumentation overhead), which tests use to prove the
// traced kernels compute identical results to the production ones.
//
// The traced access pattern mirrors the production kernels':
//  * index/value streaming through the matrix arrays,
//  * gather of x (the locality-sensitive part — layout-dependent),
//  * accumulate into y / the residual.

#include <array>
#include <vector>

#include "cfd/flux.hpp"
#include "cfd/state.hpp"
#include "mesh/dual.hpp"
#include "mesh/mesh.hpp"
#include "simcache/cache.hpp"
#include "sparse/csr.hpp"

namespace f3d::simcache {

/// y = A x for point CSR. The arithmetic funnels through the same
/// sparse::detail dot helpers (with the same SIMD dispatch) as the
/// production kernel, so the results stay bit-identical to production in
/// both the scalar and SIMD configurations.
template <class Tracer>
void traced_spmv_csr(const sparse::Csr<double>& a, const double* x, double* y,
                     Tracer& t) {
  const bool use_simd = f3d::simd::enabled();
  for (int i = 0; i < a.n; ++i) {
    t.touch(&a.ptr[i], 2 * sizeof(int));
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p) {
      t.touch(&a.col[p], sizeof(int));
      t.touch(&a.val[p], sizeof(double));
      t.touch(&x[a.col[p]], sizeof(double));
    }
    const int b = a.ptr[i];
    const int count = a.ptr[i + 1] - b;
    t.touch(&y[i], sizeof(double));
    y[i] = use_simd ? sparse::detail::row_dot_promote_simd(
                          a.val.data() + b, a.col.data() + b, count, x)
                    : sparse::detail::row_dot_promote(
                          a.val.data() + b, a.col.data() + b, count, x);
  }
}

/// y = A x for block CSR (one index load per block — the integer-traffic
/// reduction of structural blocking).
template <class Tracer>
void traced_spmv_bcsr(const sparse::Bcsr<double>& a, const double* x,
                      double* y, Tracer& t) {
  const int nb = a.nb;
  F3D_CHECK_MSG(nb <= dense::kMaxBlockSize,
                "block size " + std::to_string(nb) + " is above " +
                    std::to_string(dense::kMaxBlockSize));
  const std::size_t bsz = static_cast<std::size_t>(nb) * nb;
  const bool use_simd = f3d::simd::enabled();
  for (int i = 0; i < a.nrows; ++i) {
    t.touch(&a.ptr[i], 2 * sizeof(int));
    double acc[dense::kMaxBlockSize] = {};
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p) {
      t.touch(&a.col[p], sizeof(int));
      const double* b = &a.val[p * bsz];
      t.touch(b, bsz * sizeof(double));
      const double* xj = &x[static_cast<std::size_t>(a.col[p]) * nb];
      t.touch(xj, static_cast<std::size_t>(nb) * sizeof(double));
      for (int r = 0; r < nb; ++r)
        acc[r] += use_simd
                      ? sparse::detail::dense_dot_promote_simd(b + r * nb, xj,
                                                               nb)
                      : sparse::detail::dense_dot_promote(b + r * nb, xj, nb);
    }
    double* yi = &y[static_cast<std::size_t>(i) * nb];
    t.touch(yi, static_cast<std::size_t>(nb) * sizeof(double));
    for (int r = 0; r < nb; ++r) yi[r] = acc[r];
  }
}

/// First-order flux residual over the edge list (layout-aware through the
/// FlowField base/stride accessors). Touches: edge vertices, edge normal,
/// both states, both residual slots.
template <class Tracer>
void traced_flux(const mesh::UnstructuredMesh& mesh,
                 const mesh::DualMetrics& dual, const cfd::FlowConfig& cfg,
                 const cfd::FlowField& q, std::vector<double>& r, Tracer& t) {
  const int ncomp = cfg.nb();
  r.assign(q.data().size(), 0.0);
  const auto& edges = mesh.edges();
  const double* qd = q.data().data();
  const std::size_t st = q.stride();
  double ql[cfd::kMaxComponents], qr[cfd::kMaxComponents],
      f[cfd::kMaxComponents];
  for (int e = 0; e < mesh.num_edges(); ++e) {
    t.touch(&edges[e], sizeof(edges[e]));
    t.touch(&dual.edge_normal[e], sizeof(dual.edge_normal[e]));
    const int i = edges[e][0], j = edges[e][1];
    const double n[3] = {dual.edge_normal[e][0], dual.edge_normal[e][1],
                         dual.edge_normal[e][2]};
    const std::size_t bi = q.base(i), bj = q.base(j);
    for (int c = 0; c < ncomp; ++c) {
      t.touch(&qd[bi + c * st], sizeof(double));
      t.touch(&qd[bj + c * st], sizeof(double));
      ql[c] = qd[bi + c * st];
      qr[c] = qd[bj + c * st];
    }
    cfd::rusanov_flux(cfg, ql, qr, n, f);
    for (int c = 0; c < ncomp; ++c) {
      t.touch(&r[bi + c * st], sizeof(double));
      t.touch(&r[bj + c * st], sizeof(double));
      r[bi + c * st] += f[c];
      r[bj + c * st] -= f[c];
    }
  }
}

/// Second-order flux access pattern: like traced_flux, but additionally
/// touching the per-vertex data a reconstructing flux reads — coordinates,
/// gradients (nb x 3 doubles) and limiters (nb doubles) of both endpoints.
/// The gradient/limiter arrays are passed in (their *values* don't affect
/// miss counts; the layout-faithful address pattern does). This matches
/// the production second-order kernel's traffic, which is what makes the
/// L2 miss counts of Figure 3 respond to the edge ordering.
template <class Tracer>
void traced_flux_second_order(const mesh::UnstructuredMesh& mesh,
                              const mesh::DualMetrics& dual,
                              const cfd::FlowConfig& cfg,
                              const cfd::FlowField& q,
                              const std::vector<double>& grad,
                              const std::vector<double>& phi,
                              std::vector<double>& r, Tracer& t) {
  const int ncomp = cfg.nb();
  r.assign(q.data().size(), 0.0);
  const auto& edges = mesh.edges();
  const auto& coords = mesh.coords();
  const double* qd = q.data().data();
  const std::size_t st = q.stride();
  double ql[cfd::kMaxComponents], qr[cfd::kMaxComponents],
      f[cfd::kMaxComponents];
  for (int e = 0; e < mesh.num_edges(); ++e) {
    t.touch(&edges[e], sizeof(edges[e]));
    t.touch(&dual.edge_normal[e], sizeof(dual.edge_normal[e]));
    const int i = edges[e][0], j = edges[e][1];
    t.touch(&coords[i], sizeof(coords[i]));
    t.touch(&coords[j], sizeof(coords[j]));
    t.touch(&grad[(static_cast<std::size_t>(i) * ncomp) * 3],
            static_cast<std::size_t>(ncomp) * 3 * sizeof(double));
    t.touch(&grad[(static_cast<std::size_t>(j) * ncomp) * 3],
            static_cast<std::size_t>(ncomp) * 3 * sizeof(double));
    t.touch(&phi[static_cast<std::size_t>(i) * ncomp],
            static_cast<std::size_t>(ncomp) * sizeof(double));
    t.touch(&phi[static_cast<std::size_t>(j) * ncomp],
            static_cast<std::size_t>(ncomp) * sizeof(double));
    const double n[3] = {dual.edge_normal[e][0], dual.edge_normal[e][1],
                         dual.edge_normal[e][2]};
    const std::size_t bi = q.base(i), bj = q.base(j);
    for (int c = 0; c < ncomp; ++c) {
      t.touch(&qd[bi + c * st], sizeof(double));
      t.touch(&qd[bj + c * st], sizeof(double));
      ql[c] = qd[bi + c * st];
      qr[c] = qd[bj + c * st];
    }
    cfd::rusanov_flux(cfg, ql, qr, n, f);
    for (int c = 0; c < ncomp; ++c) {
      t.touch(&r[bi + c * st], sizeof(double));
      t.touch(&r[bj + c * st], sizeof(double));
      r[bi + c * st] += f[c];
      r[bj + c * st] -= f[c];
    }
  }
}

}  // namespace f3d::simcache
