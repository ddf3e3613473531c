#include "mesh/ordering.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>

#include "common/error.hpp"
#include "tune/registry.hpp"

namespace f3d::mesh {

std::vector<int> rcm_ordering(const Graph& g) {
  const int n = static_cast<int>(g.ptr.size()) - 1;
  std::vector<int> degree(n);
  for (int i = 0; i < n; ++i) degree[i] = g.ptr[i + 1] - g.ptr[i];

  std::vector<int> cm_order;  // cm_order[k] = old id visited k-th
  cm_order.reserve(n);
  std::vector<char> visited(n, 0);
  std::vector<int> nbrs;

  for (int seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    // Start each component at a pseudo-peripheral vertex for minimal
    // level-set width (hence minimal bandwidth).
    int start = seed;
    {
      // Restrict the peripheral search to this component.
      auto dist = bfs_levels(g, seed);
      int far_v = seed, far_d = 0;
      for (int i = 0; i < n; ++i)
        if (!visited[i] && dist[i] > far_d) {
          far_d = dist[i];
          far_v = i;
        }
      start = far_v;
    }
    std::size_t head = cm_order.size();
    cm_order.push_back(start);
    visited[start] = 1;
    while (head < cm_order.size()) {
      int v = cm_order[head++];
      nbrs.clear();
      for (int p = g.ptr[v]; p < g.ptr[v + 1]; ++p)
        if (!visited[g.adj[p]]) nbrs.push_back(g.adj[p]);
      std::sort(nbrs.begin(), nbrs.end(), [&](int a, int b) {
        return degree[a] != degree[b] ? degree[a] < degree[b] : a < b;
      });
      for (int w : nbrs) {
        visited[w] = 1;
        cm_order.push_back(w);
      }
    }
  }
  F3D_CHECK(static_cast<int>(cm_order.size()) == n);

  // Reverse, then convert visit order to a permutation old_id -> new_id.
  std::vector<int> perm(n);
  for (int k = 0; k < n; ++k) perm[cm_order[k]] = n - 1 - k;
  return perm;
}

namespace {
// Spread the low 21 bits of v so consecutive bits land 3 apart.
std::uint64_t spread3(std::uint64_t v) {
  v &= (1ULL << 21) - 1;
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}
}  // namespace

std::vector<int> morton_ordering(const UnstructuredMesh& mesh) {
  const auto& coords = mesh.coords();
  const int n = mesh.num_vertices();
  // Bounding box for quantization.
  std::array<double, 3> lo = coords[0], hi = coords[0];
  for (const auto& p : coords)
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  std::vector<std::pair<std::uint64_t, int>> keys(n);
  for (int v = 0; v < n; ++v) {
    std::uint64_t key = 0;
    for (int d = 0; d < 3; ++d) {
      const double span = hi[d] - lo[d];
      const double t = span > 0 ? (coords[v][d] - lo[d]) / span : 0.0;
      const auto q = static_cast<std::uint64_t>(
          t * static_cast<double>((1 << 21) - 1));
      key |= spread3(q) << d;
    }
    keys[v] = {key, v};
  }
  std::sort(keys.begin(), keys.end());
  std::vector<int> perm(n);
  for (int rank = 0; rank < n; ++rank) perm[keys[rank].second] = rank;
  return perm;
}

std::vector<int> edge_order_sorted(const UnstructuredMesh& mesh) {
  const auto& edges = mesh.edges();
  std::vector<int> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return edges[a] < edges[b];
  });
  return order;
}

namespace {

// Greedy coloring: scan edges, give each the smallest color not already
// used by an edge at either endpoint. Color counts are small (bounded by
// ~2x the max vertex degree), so a per-vertex color list suffices.
// Returns per-edge colors; sets num_colors.
std::vector<int> greedy_edge_colors(const UnstructuredMesh& mesh,
                                    int* num_colors) {
  const auto& edges = mesh.edges();
  const int ne = static_cast<int>(edges.size());
  std::vector<int> color(ne, -1);
  std::vector<std::vector<int>> vertex_colors(mesh.num_vertices());
  int nc = 0;
  for (int e = 0; e < ne; ++e) {
    const auto& uv = edges[e];
    int c = 0;
    auto used = [&](int col) {
      const auto& a = vertex_colors[uv[0]];
      const auto& b = vertex_colors[uv[1]];
      return std::find(a.begin(), a.end(), col) != a.end() ||
             std::find(b.begin(), b.end(), col) != b.end();
    };
    while (used(c)) ++c;
    color[e] = c;
    vertex_colors[uv[0]].push_back(c);
    vertex_colors[uv[1]].push_back(c);
    nc = std::max(nc, c + 1);
  }
  if (num_colors != nullptr) *num_colors = nc;
  return color;
}

}  // namespace

std::vector<int> edge_order_colored(const UnstructuredMesh& mesh) {
  const int ne = mesh.num_edges();
  auto color = greedy_edge_colors(mesh, nullptr);

  // Order = concatenate color classes (stable within a class).
  std::vector<int> order(ne);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return color[a] < color[b]; });
  return order;
}

EdgeColoring edge_color_classes(const UnstructuredMesh& mesh) {
  const int ne = mesh.num_edges();
  int nc = 0;
  auto color = greedy_edge_colors(mesh, &nc);

  EdgeColoring co;
  co.class_ptr.assign(nc + 1, 0);
  for (int e = 0; e < ne; ++e) ++co.class_ptr[color[e] + 1];
  for (int c = 0; c < nc; ++c) co.class_ptr[c + 1] += co.class_ptr[c];
  co.edge.resize(ne);
  std::vector<int> next(co.class_ptr.begin(), co.class_ptr.end() - 1);
  for (int e = 0; e < ne; ++e) co.edge[next[color[e]]++] = e;
  return co;
}

std::vector<int> edge_order_random(const UnstructuredMesh& mesh, unsigned seed) {
  std::vector<int> order(mesh.num_edges());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  shuffle(order, rng);
  return order;
}

void apply_best_ordering(UnstructuredMesh& mesh) {
  auto perm = rcm_ordering(mesh.vertex_adjacency());
  mesh.permute_vertices(perm);
  mesh.permute_edges(edge_order_sorted(mesh));
}

void OrderingOptions::bind(tune::Registry& reg, const std::string& prefix) {
  reg.add_enum(prefix + "vertex_order", &vertex_order,
               {"as_given", "rcm", "morton"},
               "vertex renumbering before discretization; controls matrix "
               "bandwidth / TLB reuse (paper §2.1.3, Table 1)");
  reg.add_enum(prefix + "edge_order", &edge_order,
               {"as_given", "sorted", "colored"},
               "edge traversal order of the flux loop; sorted = the paper's "
               "cache reordering, colored = the vector-era baseline "
               "(paper §2.1.3, Table 1)");
}

void apply_ordering(UnstructuredMesh& mesh, const OrderingOptions& opts) {
  switch (opts.vertex_order) {
    case OrderingOptions::VertexOrder::kAsGiven: break;
    case OrderingOptions::VertexOrder::kRcm:
      mesh.permute_vertices(rcm_ordering(mesh.vertex_adjacency()));
      break;
    case OrderingOptions::VertexOrder::kMorton:
      mesh.permute_vertices(morton_ordering(mesh));
      break;
  }
  switch (opts.edge_order) {
    case OrderingOptions::EdgeOrder::kAsGiven: break;
    case OrderingOptions::EdgeOrder::kSorted:
      mesh.permute_edges(edge_order_sorted(mesh));
      break;
    case OrderingOptions::EdgeOrder::kColored:
      mesh.permute_edges(edge_order_colored(mesh));
      break;
  }
}

}  // namespace f3d::mesh
