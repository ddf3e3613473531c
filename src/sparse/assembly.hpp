#pragma once
// Matrix assembly from a mesh stencil.
//
// The Jacobian of a vertex-centered scheme couples each vertex to itself
// and its edge neighbors, with an nb x nb dense block per coupling. The
// same operator can be realized as:
//  * Bcsr            — block CSR over the vertex graph (paper's "structural
//                      blocking", interlaced by construction);
//  * point CSR, interlaced     — scalar rows v*nb+c;
//  * point CSR, non-interlaced — scalar rows c*N+v (the vector-machine
//                      layout whose bandwidth is ~N, paper Eq. 1).
// All three multiply identical vectors to identical results (up to layout
// permutation); tests enforce this.

#include <functional>

#include "mesh/mesh.hpp"
#include "sparse/csr.hpp"
#include "sparse/layout.hpp"

namespace f3d::sparse {

/// Vertex coupling stencil: CSR adjacency including the self-coupling,
/// sorted ascending within each row.
struct Stencil {
  int n = 0;
  std::vector<int> ptr;
  std::vector<int> col;

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

/// Stencil from mesh connectivity (self + edge neighbors).
Stencil stencil_from_mesh(const mesh::UnstructuredMesh& mesh);

/// Block value callback: fill `block` (nb*nb row-major) for coupling
/// (row_vertex, col_vertex).
using BlockValueFn =
    std::function<void(int row_vertex, int col_vertex, int nb, double* block)>;

/// Deterministic synthetic Jacobian-like values: strongly diagonally
/// dominant self-coupling blocks, O(1) off-diagonal entries pseudo-random
/// in the coupling indices. Good enough to exercise every kernel and keep
/// ILU stable.
BlockValueFn synthetic_values(const Stencil& stencil, unsigned seed = 0);

/// Assemble block CSR over the vertex graph.
Bcsr<double> build_bcsr(const Stencil& stencil, int nb, const BlockValueFn& fn);

/// Assemble point CSR with the given field layout. The operator equals the
/// Bcsr from the same (stencil, fn) after layout permutation of x and y.
Csr<double> build_point_csr(const Stencil& stencil, int nb,
                            const BlockValueFn& fn, FieldLayout layout);

}  // namespace f3d::sparse
