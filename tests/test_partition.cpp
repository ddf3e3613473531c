// Tests for the partitioners: coverage, balance/connectivity contrasts
// (the Figure 4 phenomenon) and overlap expansion.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mesh/generator.hpp"
#include "partition/partition.hpp"

namespace {

using namespace f3d;
using namespace f3d::part;

mesh::Graph wing_graph(int nx = 10, int ny = 6, int nz = 6) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = nx, .ny = ny, .nz = nz});
  return mesh::build_graph(m.num_vertices(), m.edges());
}

TEST(Partition, KwayCoversAllVertices) {
  auto g = wing_graph();
  for (int np : {1, 2, 4, 8, 16}) {
    auto p = kway_grow(g, np);
    EXPECT_EQ(p.nparts, np);
    std::set<int> used(p.part.begin(), p.part.end());
    EXPECT_EQ(static_cast<int>(used.size()), np) << np << " parts";
    for (int v : p.part) EXPECT_TRUE(v >= 0 && v < np);
  }
}

TEST(Partition, KwayPartsAreConnected) {
  auto g = wing_graph();
  auto p = kway_grow(g, 8);
  auto q = evaluate(g, p);
  // Greedy BFS growth produces connected parts (reseeding only occurs on
  // disconnected graphs, and the mesh is connected).
  EXPECT_EQ(q.max_components, 1);
  EXPECT_EQ(q.total_components, 8);
}

TEST(Partition, KwayBalanceIsReasonable) {
  auto g = wing_graph();
  auto p = kway_grow(g, 8);
  auto q = evaluate(g, p);
  EXPECT_LT(q.imbalance, 1.6);
  EXPECT_GT(q.min_size, 0);
}

TEST(Partition, BalanceFirstIsNearPerfectlyBalanced) {
  auto g = wing_graph();
  auto p = balance_first(g, 8);
  auto q = evaluate(g, p);
  EXPECT_LE(q.max_size - q.min_size, 8);  // striping: near-exact balance
  EXPECT_LT(q.imbalance, 1.05);
}

TEST(Partition, BalanceFirstFragmentsSubdomains) {
  // The p-MeTiS emulation must create disconnected pieces per part —
  // that's the mechanism the paper blames for its worse convergence.
  auto g = wing_graph();
  auto pk = kway_grow(g, 8);
  auto pb = balance_first(g, 8, 4);
  auto qk = evaluate(g, pk);
  auto qb = evaluate(g, pb);
  EXPECT_GT(qb.total_components, qk.total_components);
  EXPECT_GE(qb.max_components, 2);
}

TEST(Partition, EdgeCutGrowsWithParts) {
  auto g = wing_graph();
  auto q2 = evaluate(g, kway_grow(g, 2));
  auto q16 = evaluate(g, kway_grow(g, 16));
  EXPECT_GT(q16.edge_cut, q2.edge_cut);
}

TEST(Partition, DeterministicInSeed) {
  auto g = wing_graph();
  auto p1 = kway_grow(g, 4, 7);
  auto p2 = kway_grow(g, 4, 7);
  EXPECT_EQ(p1.part, p2.part);
}

TEST(Partition, SinglePartTrivial) {
  auto g = wing_graph(4, 3, 3);
  auto p = kway_grow(g, 1);
  for (int v : p.part) EXPECT_EQ(v, 0);
  auto q = evaluate(g, p);
  EXPECT_EQ(q.edge_cut, 0);
  EXPECT_DOUBLE_EQ(q.imbalance, 1.0);
}

TEST(Overlap, LevelZeroIsOwnedSet) {
  auto g = wing_graph(6, 4, 4);
  auto p = kway_grow(g, 4);
  auto regions = overlap_expand(g, p, 0);
  for (int s = 0; s < 4; ++s) {
    for (int v : regions[s]) EXPECT_EQ(p.part[v], s);
    int count = 0;
    for (int v = 0; v < p.num_vertices(); ++v) count += p.part[v] == s;
    EXPECT_EQ(static_cast<int>(regions[s].size()), count);
  }
}

TEST(Overlap, GrowsMonotonicallyAndIsSorted) {
  auto g = wing_graph(6, 4, 4);
  auto p = kway_grow(g, 4);
  auto r0 = overlap_expand(g, p, 0);
  auto r1 = overlap_expand(g, p, 1);
  auto r2 = overlap_expand(g, p, 2);
  for (int s = 0; s < 4; ++s) {
    EXPECT_LT(r0[s].size(), r1[s].size());
    EXPECT_LE(r1[s].size(), r2[s].size());
    EXPECT_TRUE(std::is_sorted(r1[s].begin(), r1[s].end()));
    // r0 subset of r1.
    EXPECT_TRUE(std::includes(r1[s].begin(), r1[s].end(), r0[s].begin(),
                              r0[s].end()));
  }
}

TEST(Overlap, Level1AddsExactlyBoundaryNeighbors) {
  auto g = wing_graph(6, 4, 4);
  auto p = kway_grow(g, 4);
  auto r1 = overlap_expand(g, p, 1);
  for (int s = 0; s < 4; ++s) {
    for (int v : r1[s]) {
      if (p.part[v] == s) continue;
      // Every overlap vertex must touch an owned vertex.
      bool touches = false;
      for (int e = g.ptr[v]; e < g.ptr[v + 1]; ++e)
        if (p.part[g.adj[e]] == s) touches = true;
      EXPECT_TRUE(touches);
    }
  }
}

}  // namespace
