#include "partition/partition.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mesh/ordering.hpp"

namespace f3d::part {

Partition kway_grow(const mesh::Graph& g, int nparts, unsigned seed) {
  const int n = static_cast<int>(g.ptr.size()) - 1;
  F3D_CHECK(nparts >= 1 && nparts <= n);
  Partition p;
  p.nparts = nparts;
  p.part.assign(n, -1);
  if (nparts == 1) {
    std::fill(p.part.begin(), p.part.end(), 0);
    return p;
  }

  // Seeds: k-center heuristic — first a pseudo-peripheral vertex, then
  // repeatedly the vertex farthest from all chosen seeds.
  Rng rng(seed);
  std::vector<int> seeds;
  seeds.push_back(mesh::pseudo_peripheral_vertex(
      g, static_cast<int>(rng.below(static_cast<std::uint64_t>(n)))));
  std::vector<int> min_dist(n, 1 << 29);
  while (static_cast<int>(seeds.size()) < nparts) {
    auto d = mesh::bfs_levels(g, seeds.back());
    int far_v = -1, far_d = -1;
    for (int v = 0; v < n; ++v) {
      if (d[v] >= 0) min_dist[v] = std::min(min_dist[v], d[v]);
      // Unreached vertices (disconnected graph) are the farthest of all.
      const int dv = d[v] < 0 ? (1 << 29) : min_dist[v];
      if (dv > far_d) {
        far_d = dv;
        far_v = v;
      }
    }
    seeds.push_back(far_v);
  }

  // Smallest-part-first BFS growth.
  std::vector<std::deque<int>> frontier(nparts);
  std::vector<int> size(nparts, 0);
  for (int s = 0; s < nparts; ++s) {
    if (p.part[seeds[s]] < 0) {
      p.part[seeds[s]] = s;
      ++size[s];
      frontier[s].push_back(seeds[s]);
    }
  }
  int assigned = 0;
  for (int v = 0; v < n; ++v) assigned += p.part[v] >= 0 ? 1 : 0;

  int next_unassigned = 0;
  while (assigned < n) {
    // Pick the smallest part that can still grow.
    int best = -1;
    for (int s = 0; s < nparts; ++s)
      if (!frontier[s].empty() && (best < 0 || size[s] < size[best])) best = s;
    if (best < 0) {
      // All frontiers empty but vertices remain (disconnected graph):
      // reseed the smallest part at an unassigned vertex.
      while (p.part[next_unassigned] >= 0) ++next_unassigned;
      int smallest = 0;
      for (int s = 1; s < nparts; ++s)
        if (size[s] < size[smallest]) smallest = s;
      p.part[next_unassigned] = smallest;
      ++size[smallest];
      ++assigned;
      frontier[smallest].push_back(next_unassigned);
      continue;
    }
    const int v = frontier[best].front();
    frontier[best].pop_front();
    for (int q = g.ptr[v]; q < g.ptr[v + 1]; ++q) {
      const int w = g.adj[q];
      if (p.part[w] < 0) {
        p.part[w] = best;
        ++size[best];
        ++assigned;
        frontier[best].push_back(w);
      }
    }
  }
  return p;
}

Partition balance_first(const mesh::Graph& g, int nparts, int chunks_per_part) {
  const int n = static_cast<int>(g.ptr.size()) - 1;
  F3D_CHECK(nparts >= 1 && nparts <= n);
  F3D_CHECK(chunks_per_part >= 0);
  if (chunks_per_part == 0)
    chunks_per_part = std::clamp(1 + nparts / 16, 1, 8);
  Partition p;
  p.nparts = nparts;
  p.part.assign(n, -1);

  // Order vertices by RCM so chunks are locally contiguous, then stripe
  // chunks round-robin across parts: perfect +/-1 balance, fragmented
  // subdomains.
  auto perm = mesh::rcm_ordering(g);  // old -> new
  std::vector<int> order(n);          // order[k] = vertex ranked k-th
  for (int v = 0; v < n; ++v) order[perm[v]] = v;

  const long long total_chunks =
      static_cast<long long>(nparts) * chunks_per_part;
  for (int k = 0; k < n; ++k) {
    const long long chunk = static_cast<long long>(k) * total_chunks / n;
    p.part[order[k]] = static_cast<int>(chunk % nparts);
  }
  return p;
}

PartitionQuality evaluate(const mesh::Graph& g, const Partition& p) {
  const int n = static_cast<int>(g.ptr.size()) - 1;
  F3D_CHECK(p.num_vertices() == n);
  PartitionQuality q;
  std::vector<int> size(p.nparts, 0);
  for (int v = 0; v < n; ++v) {
    F3D_CHECK(p.part[v] >= 0 && p.part[v] < p.nparts);
    ++size[p.part[v]];
  }
  q.min_size = *std::min_element(size.begin(), size.end());
  q.max_size = *std::max_element(size.begin(), size.end());
  q.imbalance = static_cast<double>(q.max_size) * p.nparts / n;

  for (int v = 0; v < n; ++v)
    for (int e = g.ptr[v]; e < g.ptr[v + 1]; ++e)
      if (g.adj[e] > v && p.part[g.adj[e]] != p.part[v]) ++q.edge_cut;

  for (int s = 0; s < p.nparts; ++s) {
    std::vector<char> mask(n, 0);
    for (int v = 0; v < n; ++v) mask[v] = p.part[v] == s ? 1 : 0;
    std::vector<int> comp;
    const int nc = mesh::connected_components(g, comp, mask);
    q.total_components += nc;
    q.max_components = std::max(q.max_components, nc);
  }
  return q;
}

std::vector<std::vector<int>> overlap_expand(const mesh::Graph& g,
                                             const Partition& p, int levels) {
  const int n = static_cast<int>(g.ptr.size()) - 1;
  F3D_CHECK(levels >= 0);
  std::vector<std::vector<int>> result(p.nparts);
  for (int s = 0; s < p.nparts; ++s) {
    std::vector<char> in(n, 0);
    std::vector<int> current;
    for (int v = 0; v < n; ++v)
      if (p.part[v] == s) {
        in[v] = 1;
        current.push_back(v);
      }
    for (int lvl = 0; lvl < levels; ++lvl) {
      std::vector<int> next;
      for (int v : current)
        for (int e = g.ptr[v]; e < g.ptr[v + 1]; ++e) {
          const int w = g.adj[e];
          if (!in[w]) {
            in[w] = 1;
            next.push_back(w);
          }
        }
      current = std::move(next);
    }
    auto& out = result[s];
    for (int v = 0; v < n; ++v)
      if (in[v]) out.push_back(v);
  }
  return result;
}

}  // namespace f3d::part
