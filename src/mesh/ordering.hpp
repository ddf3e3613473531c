#pragma once
// Vertex and edge orderings — the paper's §2.1.3 layout optimization.
//
// Vertex orderings control the Jacobian matrix bandwidth (the beta in the
// conflict-miss bound, paper Eq. 2); the paper uses Reverse Cuthill-McKee.
// Edge orderings control the access pattern of the edge-based flux loop:
//  * sorted  — sort edges by (tail, head) vertex: converts the edge loop
//              into a near vertex-based loop with high cache-line reuse
//              (the paper's reordering);
//  * colored — greedy conflict-free coloring, the original FUN3D ordering
//              tuned for vector machines: consecutive edges never share a
//              vertex, which destroys temporal locality on cache machines
//              (the paper's "NOER" baseline behaves like this);
//  * random  — worst-case shuffle, for stress tests.

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mesh/graph.hpp"
#include "mesh/mesh.hpp"

namespace f3d::tune {
class Registry;
}

namespace f3d::mesh {

/// Reverse Cuthill-McKee: returns perm with new_id = perm[old_id],
/// suitable for UnstructuredMesh::permute_vertices. Handles disconnected
/// graphs (each component ordered from its own pseudo-peripheral vertex).
std::vector<int> rcm_ordering(const Graph& g);

/// Space-filling-curve (Morton / Z-order) vertex ordering: an
/// alternative locality ordering to RCM that clusters vertices by 3-D
/// position rather than graph distance. Comparable TLB behaviour, usually
/// slightly larger matrix bandwidth than RCM (ablated in
/// bench_micro_kernels). Returns perm with new_id = perm[old_id].
std::vector<int> morton_ordering(const UnstructuredMesh& mesh);

/// Edge order sorting edges lexicographically by (v[0], v[1]); result is a
/// list `order` where the new k-th edge is mesh.edges()[order[k]].
std::vector<int> edge_order_sorted(const UnstructuredMesh& mesh);

/// Vector-machine-style conflict-free coloring order: edges grouped by
/// greedy color; no two consecutive edges within a color share a vertex.
std::vector<int> edge_order_colored(const UnstructuredMesh& mesh);

/// Deterministic random shuffle.
std::vector<int> edge_order_random(const UnstructuredMesh& mesh, unsigned seed);

/// Conflict-free edge color classes for the parallel scatter loops of the
/// execution layer (f3d::exec): a partition of the edge ids such that no
/// two edges in a class share a vertex. Processing classes sequentially
/// and the edges within a class in parallel makes the edge-based
/// residual/gradient/Jacobian scatters race-free without per-thread
/// replicated arrays — and, because each vertex receives at most one
/// contribution per class, the per-vertex accumulation order is the class
/// order: fixed, independent of the thread count.
struct EdgeColoring {
  std::vector<int> class_ptr;  ///< size num_colors()+1
  std::vector<int> edge;       ///< edge ids grouped by class, ascending within
  [[nodiscard]] int num_colors() const {
    return static_cast<int>(class_ptr.empty() ? 0 : class_ptr.size() - 1);
  }
};
EdgeColoring edge_color_classes(const UnstructuredMesh& mesh);

/// Apply RCM vertex ordering + sorted edge ordering in place — the paper's
/// recommended layout.
void apply_best_ordering(UnstructuredMesh& mesh);

/// The §2.1.3 layout decisions as a tunable policy: which vertex
/// renumbering and which edge traversal order to apply to an as-delivered
/// mesh. apply_ordering() realizes the policy in place; bind() exposes
/// both choices as enum knobs so the autotuner searches the paper's
/// Table 1 reordering axis alongside the solver knobs.
struct OrderingOptions {
  enum class VertexOrder {
    kAsGiven,  ///< keep the delivered numbering (the "NOER"-ish baseline)
    kRcm,      ///< Reverse Cuthill-McKee (the paper's choice)
    kMorton,   ///< space-filling-curve locality ordering
  };
  enum class EdgeOrder {
    kAsGiven,  ///< keep the delivered edge order
    kSorted,   ///< lexicographic (tail, head) — the paper's reordering
    kColored,  ///< vector-machine conflict-free coloring order
  };
  VertexOrder vertex_order = VertexOrder::kRcm;
  EdgeOrder edge_order = EdgeOrder::kSorted;

  /// Register both orderings as enum knobs under `prefix`. The registry
  /// borrows this struct: it must outlive the registry.
  void bind(tune::Registry& reg, const std::string& prefix = "mesh.");
};

/// Permute `mesh` in place per the policy (defaults = apply_best_ordering).
void apply_ordering(UnstructuredMesh& mesh, const OrderingOptions& opts);

}  // namespace f3d::mesh
