#pragma once
// Edge-based median-dual finite-volume discretization of the Euler
// equations — the reimplementation of the paper's FUN3D workload.
//
// The residual at vertex i is the net flux out of its dual cell:
//   r_i = sum_{edges (i,j)} F(q_i, q_j, n_ij) + boundary fluxes.
// First-order uses vertex states directly; second-order reconstructs the
// interface states with Green-Gauss gradients and a Venkatakrishnan
// limiter (the paper's "flux-limited" convection scheme; §2.4.1's
// first/second-order switch is FlowConfig::order).
//
// The analytic first-order Jacobian (frozen-coefficient Rusanov) feeds the
// Schwarz/ILU preconditioner exactly as the paper prescribes; the true
// Jacobian action for Newton-Krylov is matrix-free (finite differencing
// of this residual), see solver/.

#include <memory>
#include <vector>

#include "cfd/flux.hpp"
#include "cfd/state.hpp"
#include "mesh/dual.hpp"
#include "mesh/mesh.hpp"
#include "mesh/ordering.hpp"
#include "sparse/assembly.hpp"
#include "sparse/csr.hpp"

namespace f3d::cfd {

/// Flow-independent geometry of a discretization: the dual-mesh metrics,
/// the vertex stencil (the Jacobian's coupling pattern and the limiter's
/// neighbor rows), and the conflict-free edge coloring of the edge
/// scatters. All three depend only on the (ordered) mesh, never on the flow
/// condition, so a batch of scenarios solving different Mach x AoA cases
/// on the same mesh can compute them once and share them immutably —
/// the fleet layer's shared-artifact contract (src/fleet/service.hpp).
struct SharedGeometry {
  mesh::DualMetrics dual;
  sparse::Stencil stencil;
  mesh::EdgeColoring coloring;
  int num_vertices = 0;  ///< of the producing mesh (validated on reuse)

  /// Compute from `mesh`, which must not be re-permuted afterwards.
  [[nodiscard]] static std::shared_ptr<const SharedGeometry> compute(
      const mesh::UnstructuredMesh& mesh);
};

class EulerDiscretization {
public:
  /// Borrows the mesh; the mesh must outlive the discretization and must
  /// not be re-permuted afterwards (metrics are cached). When `shared`
  /// is given it must have been computed from this exact mesh (vertex
  /// count is validated; the caller owns the stronger same-mesh claim)
  /// and the geometry pass is skipped entirely — per-scenario
  /// construction cost drops to the freestream state.
  EulerDiscretization(const mesh::UnstructuredMesh& mesh, FlowConfig cfg,
                      std::shared_ptr<const SharedGeometry> shared = nullptr);

  [[nodiscard]] const FlowConfig& config() const { return cfg_; }
  /// Mutable access for parameter continuation (e.g. first -> second
  /// order switchover during a run).
  FlowConfig& config() { return cfg_; }

  [[nodiscard]] const mesh::UnstructuredMesh& mesh() const { return mesh_; }
  [[nodiscard]] const mesh::DualMetrics& dual() const { return dual_; }
  [[nodiscard]] int nb() const { return cfg_.nb(); }
  [[nodiscard]] int num_vertices() const { return mesh_.num_vertices(); }
  [[nodiscard]] int num_unknowns() const { return num_vertices() * nb(); }

  /// Freestream-initialized field in the configured layout.
  [[nodiscard]] FlowField make_freestream_field() const;

  /// Steady residual r(q), same layout as q. Second-order if
  /// config().order == 2. Runs on the f3d::exec pool: the edge scatter
  /// processes the cached conflict-free color classes sequentially with
  /// the edges of each class in parallel, so the result is bit-identical
  /// for any thread count (each vertex receives at most one contribution
  /// per class — the accumulation order is the class order).
  void residual(const FlowField& q, std::vector<double>& r) const;

  /// The cached edge coloring driving the parallel scatters.
  [[nodiscard]] const mesh::EdgeColoring& edge_coloring() const {
    return coloring_;
  }

  /// Per-vertex spectral radius sum_faces (|Theta| + c |n|), for the local
  /// pseudo-timestep dt_i = CFL * V_i / sr_i.
  void spectral_radius(const FlowField& q, std::vector<double>& sr) const;

  /// Vertex coupling stencil (self + neighbors) of the first-order
  /// Jacobian; the limiter walks its rows.
  [[nodiscard]] const sparse::Stencil& stencil() const { return stencil_; }

  /// The block Jacobian's sparsity, the stencil, with `val` empty:
  /// jacobian() sizes it.
  [[nodiscard]] sparse::Bcsr<double> allocate_jacobian() const;

  /// Fill the analytic first-order Jacobian dr/dq at state q into `jac`,
  /// whose block sparsity must contain the stencil (allocate_jacobian's,
  /// or an ILU factor's with its fill): sizes `val` to jac.nblocks() nb^2
  /// entries, refilling it in place when it already has that size, and
  /// leaves the blocks outside the stencil +0.0. Always interlaced block
  /// layout.
  void jacobian(const FlowField& q, sparse::Bcsr<double>& jac) const;

  /// Green-Gauss gradients in the SoA-blocked layout:
  /// grad[(v*3 + d)*nb + c] = d q_c / d x_d at vertex v — the nb
  /// components of one direction are contiguous, which is the shape the
  /// SIMD reconstruction wants (one pack load per direction at nb == 4).
  /// Exposed for tests.
  void gradients(const FlowField& q, std::vector<double>& grad) const;

  /// Venkatakrishnan limiter values per (vertex, component) given the
  /// gradients, stored as GS (double, or float for the
  /// reco_single_precision path). 1 = unlimited. One vertex-parallel
  /// pass over the stencil rows; bit-identical to the edge-ordered
  /// definition at any thread count. Instantiated for double and float
  /// in euler.cpp.
  template <class GS>
  void limiters(const FlowField& q, const std::vector<GS>& grad,
                std::vector<GS>& phi) const;

  /// Approximate floating-point work of one residual() call (for Gflop/s
  /// reporting in the parallel experiments).
  [[nodiscard]] double residual_flops() const;

  /// The shared flow-independent geometry this discretization reads
  /// (owned here when constructed without one; pass it to further
  /// discretizations on the same mesh to share it).
  [[nodiscard]] const std::shared_ptr<const SharedGeometry>& geometry() const {
    return geom_;
  }

private:
  const mesh::UnstructuredMesh& mesh_;
  FlowConfig cfg_;
  // geom_ must precede the references below (initialization order).
  std::shared_ptr<const SharedGeometry> geom_;
  const mesh::DualMetrics& dual_;
  const sparse::Stencil& stencil_;
  const mesh::EdgeColoring& coloring_;
  double qinf_[kMaxComponents];

  // The second-order path is templated on the reconstruction-operand
  // storage scalar GS (double, or float when
  // config().reco_single_precision): gradients and limiter values are
  // *stored* as GS and promoted to double on load, so the flux
  // arithmetic itself never narrows (definitions in euler.cpp).
  template <class GS>
  void residual_impl_t(const FlowField& q, std::vector<double>& r) const;
  template <class GS>
  void gradients_t(const FlowField& q, std::vector<GS>& grad) const;
  template <class GS>
  void interface_states_t(const FlowField& q, const std::vector<GS>& grad,
                          const std::vector<GS>& phi, int i, int j,
                          double* ql, double* qr) const;
};

}  // namespace f3d::cfd
