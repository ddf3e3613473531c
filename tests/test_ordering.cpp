// Tests for vertex (RCM) and edge orderings — the paper's §2.1 layout
// machinery. Key properties: RCM reduces bandwidth; sorted edge order is
// monotone in the tail vertex; colored order has no vertex shared between
// consecutive edges of a class.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"

namespace {

using namespace f3d::mesh;

TEST(Rcm, PermutationIsBijection) {
  auto m = generate_box_mesh(4, 4, 4);
  shuffle_mesh(m, 1);
  auto perm = rcm_ordering(m.vertex_adjacency());
  std::set<int> s(perm.begin(), perm.end());
  EXPECT_EQ(static_cast<int>(s.size()), m.num_vertices());
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), m.num_vertices() - 1);
}

TEST(Rcm, ReducesBandwidthOfShuffledMesh) {
  auto m = generate_wing_mesh(WingMeshConfig{.nx = 10, .ny = 6, .nz = 6});
  shuffle_mesh(m, 17);
  const int bw_before = m.bandwidth();
  m.permute_vertices(rcm_ordering(m.vertex_adjacency()));
  const int bw_after = m.bandwidth();
  EXPECT_LT(bw_after, bw_before / 4) << "RCM should cut bandwidth sharply";
}

TEST(Rcm, HandlesDisconnectedGraph) {
  // Two 4-cliques not connected to each other.
  std::vector<std::array<int, 2>> edges;
  for (int base : {0, 4})
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j) edges.push_back({base + i, base + j});
  auto g = build_graph(8, edges);
  auto perm = rcm_ordering(g);
  std::set<int> s(perm.begin(), perm.end());
  EXPECT_EQ(s.size(), 8u);
}

TEST(Rcm, PathGraphGetsBandwidthOne) {
  std::vector<std::array<int, 2>> edges;
  const int n = 20;
  // Scrambled path: i <-> i+1 under a fixed scramble.
  std::vector<int> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::swap(label[0], label[13]);
  std::swap(label[5], label[17]);
  for (int i = 0; i + 1 < n; ++i) edges.push_back({std::min(label[i], label[i + 1]),
                                                   std::max(label[i], label[i + 1])});
  auto g = build_graph(n, edges);
  auto perm = rcm_ordering(g);
  int bw = 0;
  for (const auto& e : edges)
    bw = std::max(bw, std::abs(perm[e[0]] - perm[e[1]]));
  EXPECT_EQ(bw, 1);
}

TEST(EdgeOrder, SortedIsLexicographic) {
  auto m = generate_box_mesh(3, 3, 3);
  shuffle_mesh(m, 3);
  m.permute_edges(edge_order_sorted(m));
  const auto& e = m.edges();
  for (std::size_t k = 1; k < e.size(); ++k) EXPECT_LE(e[k - 1], e[k]);
}

TEST(EdgeOrder, ColoredOrderIsPermutation) {
  auto m = generate_box_mesh(3, 3, 3);
  auto order = edge_order_colored(m);
  std::set<int> s(order.begin(), order.end());
  EXPECT_EQ(static_cast<int>(s.size()), m.num_edges());
}

TEST(EdgeOrder, ColoredHasWorseLocalityThanSorted) {
  // Locality proxy: mean |tail(k+1) - tail(k)| across the edge sequence.
  auto measure = [](const UnstructuredMesh& m) {
    const auto& e = m.edges();
    double s = 0;
    for (std::size_t k = 1; k < e.size(); ++k)
      s += std::abs(e[k][0] - e[k - 1][0]);
    return s / static_cast<double>(e.size() - 1);
  };
  auto m = generate_wing_mesh(WingMeshConfig{.nx = 10, .ny = 6, .nz = 6});
  auto sorted_mesh = m;
  sorted_mesh.permute_edges(edge_order_sorted(sorted_mesh));
  auto colored_mesh = m;
  colored_mesh.permute_edges(edge_order_colored(colored_mesh));
  EXPECT_LT(measure(sorted_mesh) * 5, measure(colored_mesh))
      << "colored (vector) order should jump wildly between tail vertices";
}

TEST(EdgeOrder, RandomIsDeterministicInSeed) {
  auto m = generate_box_mesh(3, 3, 3);
  EXPECT_EQ(edge_order_random(m, 7), edge_order_random(m, 7));
  EXPECT_NE(edge_order_random(m, 7), edge_order_random(m, 8));
}

TEST(BestOrdering, ImprovesBandwidthAndSortsEdges) {
  auto m = generate_wing_mesh(WingMeshConfig{.nx = 8, .ny = 6, .nz = 6});
  shuffle_mesh(m, 5);
  const int bw_before = m.bandwidth();
  apply_best_ordering(m);
  EXPECT_LT(m.bandwidth(), bw_before);
  const auto& e = m.edges();
  for (std::size_t k = 1; k < e.size(); ++k) EXPECT_LE(e[k - 1], e[k]);
}

}  // namespace
