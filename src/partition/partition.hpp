#pragma once
// Mesh partitioners — stand-ins for the MeTiS variants of the paper's
// §2.3.2 / Figure 4 experiment.
//
//  * kway_grow      — greedy multi-seed BFS region growing with
//    smallest-part-first scheduling: produces *connected*, slightly
//    imbalanced subdomains (the behaviour Figure 4 attributes to k-MeTiS).
//  * balance_first  — strict round-robin striping of fixed-size chunks of
//    a bandwidth-reducing order: produces *perfectly balanced* subdomains
//    that consist of several disconnected pieces (the behaviour Figure 4
//    attributes to p-MeTiS; the paper explains its poorer convergence by
//    exactly this fragmentation, which effectively raises the block count
//    of block Jacobi / additive Schwarz).
//
// Both are deterministic given the seed.

#include <cstdint>
#include <vector>

#include "mesh/graph.hpp"

namespace f3d::part {

struct Partition {
  int nparts = 0;
  std::vector<int> part;  ///< vertex -> part id in [0, nparts)

  [[nodiscard]] int num_vertices() const { return static_cast<int>(part.size()); }
};

/// Connectivity-seeking greedy growth ("k-MeTiS"-like).
Partition kway_grow(const mesh::Graph& g, int nparts, unsigned seed = 0);

/// Balance-first striping ("p-MeTiS"-like). `chunks_per_part` controls the
/// fragmentation (number of stripes, hence roughly the number of connected
/// components each part is broken into). 0 = automatic: fragmentation
/// grows with the part count, matching the paper's observation that
/// p-MeTiS's disconnected pieces are a fine-granularity pathology
/// (nearly connected at small P, increasingly fragmented as subdomains
/// shrink).
Partition balance_first(const mesh::Graph& g, int nparts,
                        int chunks_per_part = 0);

struct PartitionQuality {
  double imbalance = 0;       ///< max part size / ideal part size
  std::int64_t edge_cut = 0;  ///< edges crossing parts
  int total_components = 0;   ///< sum over parts of connected components
  int max_components = 0;     ///< worst single part
  int min_size = 0, max_size = 0;
};
PartitionQuality evaluate(const mesh::Graph& g, const Partition& p);

/// Vertices of each part expanded by `levels` of BFS overlap. Level 0 =
/// owned vertices only. Result[s] is sorted ascending.
std::vector<std::vector<int>> overlap_expand(const mesh::Graph& g,
                                             const Partition& p, int levels);

/// What an incremental shrink recovery did to the decomposition.
struct RepartitionReport {
  int moved_vertices = 0;    ///< vertices reassigned off the dead part
  int receiving_parts = 0;   ///< distinct surviving parts that absorbed them
  int fallback_vertices = 0; ///< islands with no surviving neighbor part
  /// max part size / ideal size over *non-empty* parts.
  double imbalance_before = 0, imbalance_after = 0;
};

/// Incremental shrink-and-repartition after a fail-stop loss of
/// `dead_part`: every one of its vertices is handed to an adjacent
/// surviving part (smallest-receiver-first, wavefront order, so interior
/// vertices follow their already-moved neighbors); vertices in islands
/// with no surviving neighbor go to the globally smallest non-empty
/// surviving part. The partition keeps its `nparts` — the dead part is
/// simply left empty (par::measure_load excludes empty parts from its
/// per-processor averages), so part ids stay stable across repeated
/// failures. Throws if no non-empty surviving part exists.
Partition repartition_after_failure(const mesh::Graph& g, const Partition& p,
                                    int dead_part,
                                    RepartitionReport* report = nullptr);

/// Weighted execution-time imbalance of a partition under per-part
/// processor speeds: max_s(size_s / speed_s) over non-empty parts,
/// normalized by the ideal time n / sum(speed_s of non-empty parts).
/// 1.0 = perfectly speed-proportional; >= 1 always.
double weighted_imbalance(const Partition& p, const std::vector<double>& speed);

/// Incremental diffusive rebalance for a fail-SLOW rank (alive but
/// degraded): `speed[s]` is part s's measured relative processor speed
/// (1.0 = healthy; a 4x straggler is 0.25). Boundary vertices migrate,
/// one at a time, from the part with the largest weighted load
/// L_s = size_s / speed_s to the adjacent non-empty part minimizing
/// L_r + 1/speed_r, accepting a move only when that strictly undercuts
/// the donor's load — so the weighted makespan max_s(L_s) is monotone
/// non-increasing and the sorted load vector strictly decreases
/// lexicographically (termination). Parts keep their ids; a fully
/// drained donor is left empty. Deterministic: ties break on the lowest
/// part id, then the lowest vertex id. `report` gets the *weighted*
/// imbalance before/after and the migration counts.
Partition repartition_for_imbalance(const mesh::Graph& g, const Partition& p,
                                    const std::vector<double>& speed,
                                    RepartitionReport* report = nullptr);

}  // namespace f3d::part
