// Tests for the virtual parallel machine: load measurement, the surface
// law fit/extrapolation, the step-time model's qualitative behaviour
// (what Figures 1-2 and Tables 3/5 rely on), and the efficiency
// decomposition identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "mesh/generator.hpp"
#include "par/loadmodel.hpp"
#include "par/stepmodel.hpp"
#include "perf/machine.hpp"

namespace {

using namespace f3d;
using namespace f3d::par;

mesh::Graph wing_graph() {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 14, .ny = 8, .nz = 8});
  return mesh::build_graph(m.num_vertices(), m.edges());
}

TEST(LoadModel, OwnedSumsToTotal) {
  auto g = wing_graph();
  auto p = part::kway_grow(g, 8);
  auto load = measure_load(g, p);
  EXPECT_EQ(load.procs, 8);
  EXPECT_NEAR(load.avg_owned * 8, load.total_vertices, 1e-9);
  EXPECT_GE(load.max_owned, load.avg_owned);
}

TEST(LoadModel, RedundantEdgeWorkGrowsWithParts) {
  auto g = wing_graph();
  auto l4 = measure_load(g, part::kway_grow(g, 4));
  auto l32 = measure_load(g, part::kway_grow(g, 32));
  // Total computed edges = unique + cut (double-counted): the redundant
  // fraction rises with P (Fig 1's observation).
  const double redundant4 = l4.avg_edges * 4 - l4.total_edges;
  const double redundant32 = l32.avg_edges * 32 - l32.total_edges;
  EXPECT_GT(redundant32, redundant4);
  EXPECT_GE(redundant4, 0);
}

TEST(LoadModel, GhostsAndNeighborsMatchManualCount) {
  // Each part's ghosts (remote vertices adjacent to its owned set: the
  // values a scatter receives) and neighbor parts (its messages),
  // recounted by hand over all parts.
  auto g = wing_graph();
  auto p = part::kway_grow(g, 4);
  auto load = measure_load(g, p);
  double sum_ghosts = 0, max_ghosts = 0, max_neighbors = 0;
  for (int s = 0; s < p.nparts; ++s) {
    std::set<int> ghosts, neighbors;
    for (int v = 0; v < p.num_vertices(); ++v) {
      if (p.part[v] != s) continue;
      for (int e = g.ptr[v]; e < g.ptr[v + 1]; ++e) {
        const int w = g.adj[e];
        if (p.part[w] == s) continue;
        ghosts.insert(w);
        neighbors.insert(p.part[w]);
      }
    }
    sum_ghosts += static_cast<double>(ghosts.size());
    max_ghosts = std::max(max_ghosts, static_cast<double>(ghosts.size()));
    max_neighbors =
        std::max(max_neighbors, static_cast<double>(neighbors.size()));
  }
  EXPECT_GT(max_ghosts, 0);
  EXPECT_EQ(load.max_ghosts, max_ghosts);
  EXPECT_DOUBLE_EQ(load.avg_ghosts, sum_ghosts / p.nparts);
  EXPECT_EQ(load.max_neighbors, max_neighbors);
}

TEST(LoadModel, GhostTotalGrowsWithParts) {
  // The paper (§2.3.1): with more subdomains a higher fraction of points
  // must be communicated, so the total ghost count grows with P.
  auto g = wing_graph();
  auto l4 = measure_load(g, part::kway_grow(g, 4));
  auto l16 = measure_load(g, part::kway_grow(g, 16));
  EXPECT_GT(l16.avg_ghosts * 16, l4.avg_ghosts * 4);
}

TEST(LoadModel, SurfaceFitRoundTrips) {
  auto g = wing_graph();
  std::vector<PartitionLoad> samples;
  for (int np : {4, 8, 16, 32})
    samples.push_back(measure_load(g, part::kway_grow(g, np)));
  auto law = fit_surface_law(samples);
  EXPECT_GT(law.ghost_coeff, 0);
  EXPECT_GT(law.edges_per_vertex, 5.0);  // tets: ~7 edges/vertex
  EXPECT_LT(law.edges_per_vertex, 9.0);
  EXPECT_GE(law.imbalance_coeff, 0.0);
  EXPECT_GE(law.imbalance_at(1000), 1.0);

  // Synthesize at a measured size: ghost prediction within 2x.
  auto synth = synthesize_load(samples[1].total_vertices, 8, law);
  EXPECT_GT(synth.avg_ghosts, samples[1].avg_ghosts * 0.5);
  EXPECT_LT(synth.avg_ghosts, samples[1].avg_ghosts * 2.0);
}

// --- degenerate decompositions (single proc, more parts than vertices,
// --- empty parts after a fail-stop shrink) -------------------------------

TEST(LoadModel, SingleProcHasNoSurfaceQuantities) {
  auto g = wing_graph();
  part::Partition p;
  p.nparts = 1;
  p.part.assign(static_cast<std::size_t>(g.ptr.size()) - 1, 0);
  auto load = measure_load(g, p);
  EXPECT_EQ(load.procs, 1);
  EXPECT_EQ(load.active_procs, 1);
  EXPECT_EQ(load.avg_ghosts, 0.0);
  EXPECT_EQ(load.avg_neighbors, 0.0);
  EXPECT_NEAR(load.avg_owned, load.total_vertices, 1e-12);
  // A P=1 sample cannot constrain the surface law but must not poison
  // the fit with NaNs; alone it yields the defined all-zero law.
  auto law = fit_surface_law({load});
  EXPECT_EQ(law.ghost_coeff, 0.0);
  EXPECT_EQ(law.imbalance_coeff, 0.0);
  EXPECT_TRUE(std::isfinite(law.imbalance_at(1000)));
  // And the all-zero law still synthesizes a finite (commless) load.
  auto synth = synthesize_load(1000, 4, law);
  EXPECT_TRUE(std::isfinite(synth.max_edges));
  EXPECT_EQ(synth.avg_ghosts, 0.0);
}

TEST(LoadModel, MorePartsThanVerticesAveragesOverNonEmpty) {
  // 4 vertices on a path, striped over 16 parts: 12 parts are empty.
  auto g = mesh::build_graph(4, {{{0, 1}}, {{1, 2}}, {{2, 3}}});
  part::Partition p;
  p.nparts = 16;
  p.part = {0, 1, 2, 3};
  auto load = measure_load(g, p);
  EXPECT_EQ(load.procs, 16);
  EXPECT_EQ(load.active_procs, 4);
  // Averages describe the processors that actually hold vertices.
  EXPECT_NEAR(load.avg_owned, 1.0, 1e-12);
  EXPECT_NEAR(load.max_owned, 1.0, 1e-12);
  EXPECT_TRUE(std::isfinite(load.avg_ghosts));
}

TEST(LoadModel, DegenerateSamplesAreSkippedByTheFit) {
  auto g = wing_graph();
  std::vector<PartitionLoad> good;
  for (int np : {4, 8, 16})
    good.push_back(measure_load(g, part::kway_grow(g, np)));
  // The same fit with degenerate samples mixed in: a P=1 load and an
  // all-zero (post-failure, empty) load must be skipped, not averaged.
  std::vector<PartitionLoad> mixed = good;
  part::Partition p1;
  p1.nparts = 1;
  p1.part.assign(static_cast<std::size_t>(g.ptr.size()) - 1, 0);
  mixed.push_back(measure_load(g, p1));
  mixed.push_back(PartitionLoad{});
  auto law_good = fit_surface_law(good);
  auto law_mixed = fit_surface_law(mixed);
  EXPECT_EQ(law_mixed.ghost_coeff, law_good.ghost_coeff);
  EXPECT_EQ(law_mixed.cut_coeff, law_good.cut_coeff);
  EXPECT_EQ(law_mixed.imbalance_coeff, law_good.imbalance_coeff);
  EXPECT_THROW(fit_surface_law({}), Error);
}

TEST(LoadModel, SynthesizedGhostFractionRisesWithProcs) {
  SurfaceLaw law{.edges_per_vertex = 7,
                 .ghost_coeff = 3.0,
                 .cut_coeff = 5.0,
                 .imbalance_coeff = 0.7,
                 .neighbor_base = 12};
  auto l128 = synthesize_load(2.8e6, 128, law);
  auto l1024 = synthesize_load(2.8e6, 1024, law);
  EXPECT_GT(l1024.avg_ghosts / l1024.avg_owned,
            l128.avg_ghosts / l128.avg_owned);
  // Total communicated data still grows with P (Table 3: 2.0 -> 5.3 GB).
  EXPECT_GT(l1024.avg_ghosts * 1024, l128.avg_ghosts * 128);
}

// --- step model ----------------------------------------------------------

WorkCoefficients coeffs() {
  WorkCoefficients w;
  w.nb = 4;
  w.flux_flops_per_edge = 75;
  w.sparse_bytes_per_vertex_it = 2500;
  w.sparse_flops_per_vertex_it = 450;
  return w;
}

SurfaceLaw default_law() {
  // Coefficients in the range the real partition measurements produce
  // for tetrahedral meshes (see LoadModel.SurfaceFitRoundTrips).
  return SurfaceLaw{.edges_per_vertex = 7,
                    .ghost_coeff = 6.0,
                    .cut_coeff = 20.0,
                    .imbalance_coeff = 0.8,
                    .neighbor_base = 12};
}

TEST(StepModel, TimeDropsWithProcs) {
  auto m = perf::asci_red();
  auto law = default_law();
  StepCounts c;
  c.linear_its = 24;
  const double t128 =
      model_step(m, synthesize_load(2.8e6, 128, law), coeffs(), c).total();
  const double t1024 =
      model_step(m, synthesize_load(2.8e6, 1024, law), coeffs(), c).total();
  EXPECT_LT(t1024, t128);
  EXPECT_GT(t1024, t128 / 8.0 * 0.8);  // but sublinear speedup (8x procs)
}

TEST(StepModel, ScatterPercentageGrowsWithProcs) {
  // Table 3: ghost point scatter share rises 3% -> 6% from 128 to 1024.
  auto m = perf::asci_red();
  auto law = default_law();
  StepCounts c;
  c.linear_its = 24;
  auto b128 = model_step(m, synthesize_load(2.8e6, 128, law), coeffs(), c);
  auto b1024 = model_step(m, synthesize_load(2.8e6, 1024, law), coeffs(), c);
  EXPECT_GT(b1024.pct(b1024.t_scatter), b128.pct(b128.t_scatter));
}

TEST(StepModel, EffectiveBandwidthBelowWire) {
  // Table 3's point: application-level effective bandwidth (includes
  // packing and contention) is far below hardware bandwidth.
  auto m = perf::asci_red();
  auto b = model_step(m, synthesize_load(2.8e6, 512, default_law()), coeffs(),
                      StepCounts{});
  EXPECT_GT(b.effective_bw_per_node_mbs, 0);
  EXPECT_LT(b.effective_bw_per_node_mbs, m.net_bw_mbs / 4);
}

TEST(StepModel, GflopsPositiveAndScalesWithMachine) {
  auto law = default_law();
  auto load = synthesize_load(2.8e6, 512, law);
  StepCounts c;
  c.linear_its = 24;
  auto red = model_step(perf::asci_red(), load, coeffs(), c);
  auto t3e = model_step(perf::cray_t3e(), load, coeffs(), c);
  EXPECT_GT(red.gflops(), 0);
  EXPECT_GT(t3e.gflops(), 0);
}

TEST(StepModel, HybridMpiCrossoverMatchesTable5) {
  // Table 5's shape: at 256 nodes 2 MPI ranks/node edge out 2 OpenMP
  // threads (the replicated-array gather is a full memory pass at large
  // subdomains); at 3072 nodes the hybrid wins (gather is cache-resident,
  // while doubling the rank count inflates redundant cut-edge work).
  auto m = perf::asci_red();
  auto law = default_law();
  const double n = 2.8e6;
  auto w = coeffs();

  auto times = [&](int nodes) {
    const double t_mpi1 = model_flux_phase(
        m, synthesize_load(n, nodes, law), w, NodeMode::kMpi1);
    const double t_mpi2 = model_flux_phase(
        m, synthesize_load(n, 2 * nodes, law), w, NodeMode::kMpi2);
    const double t_omp2 = model_flux_phase(
        m, synthesize_load(n, nodes, law), w, NodeMode::kHybridOmp2);
    return std::array<double, 3>{t_mpi1, t_mpi2, t_omp2};
  };

  const auto low = times(256);
  EXPECT_LT(low[1], low[0]);  // second CPU helps either way
  EXPECT_LT(low[2], low[0]);
  EXPECT_LT(low[1], low[2]);  // MPI x2 wins at coarse granularity

  const auto high = times(3072);
  EXPECT_LT(high[2], high[0]);
  EXPECT_LT(high[2], high[1]);  // hybrid wins at fine granularity
  EXPECT_LT(high[1], high[0]);
}

TEST(StepModel, ImplicitSyncReflectsImbalance) {
  auto m = perf::asci_red();
  auto law_bal = default_law();
  auto law_imb = law_bal;
  law_imb.imbalance_coeff = 8.0;
  StepCounts c;
  auto b1 = model_step(m, synthesize_load(2.8e6, 512, law_bal), coeffs(), c);
  auto b2 = model_step(m, synthesize_load(2.8e6, 512, law_imb), coeffs(), c);
  EXPECT_GT(b2.t_implicit_sync, b1.t_implicit_sync);
}

TEST(SolveSimulation, AggregatesPerStepBreakdowns) {
  auto m = perf::asci_red();
  auto law = default_law();
  auto load = synthesize_load(2.8e6, 256, law);
  // A realistic history: iterations ramp as the CFL grows.
  std::vector<StepCounts> steps;
  for (int s = 0; s < 10; ++s) {
    StepCounts c;
    c.linear_its = 10 + 2 * s;
    steps.push_back(c);
  }
  auto sim = simulate_solve(m, load, coeffs(), steps);
  EXPECT_EQ(sim.step_seconds.size(), 10u);
  double sum = 0;
  for (double t : sim.step_seconds) sum += t;
  EXPECT_NEAR(sim.total_seconds, sum, 1e-12);
  EXPECT_NEAR(sim.total_seconds, sim.aggregate.total(), 1e-9);
  // Later (more iterations) steps cost more.
  EXPECT_GT(sim.step_seconds.back(), sim.step_seconds.front());
  EXPECT_GT(sim.aggregate.gflops(), 0);
  EXPECT_GT(sim.aggregate.effective_bw_per_node_mbs, 0);
}

// --- efficiency decomposition --------------------------------------------

TEST(Efficiency, IdentityAtBase) {
  std::vector<ScalingPoint> pts = {{128, 22, 2039}, {256, 24, 1144}};
  auto rows = efficiency_decomposition(pts);
  EXPECT_DOUBLE_EQ(rows[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].eta_overall, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].eta_alg, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].eta_impl, 1.0);
}

TEST(Efficiency, ReproducesPaperTable3Arithmetic) {
  // Feed the paper's own numbers; the decomposition must return the
  // paper's efficiency columns.
  std::vector<ScalingPoint> pts = {
      {128, 22, 2039}, {256, 24, 1144}, {512, 26, 638},
      {768, 27, 441},  {1024, 29, 362},
  };
  auto rows = efficiency_decomposition(pts);
  EXPECT_NEAR(rows[1].speedup, 1.78, 0.01);
  EXPECT_NEAR(rows[1].eta_overall, 0.89, 0.01);
  EXPECT_NEAR(rows[1].eta_alg, 0.92, 0.01);
  EXPECT_NEAR(rows[1].eta_impl, 0.97, 0.01);
  EXPECT_NEAR(rows[4].speedup, 5.63, 0.01);
  EXPECT_NEAR(rows[4].eta_overall, 0.70, 0.01);
  EXPECT_NEAR(rows[4].eta_alg, 0.76, 0.01);
  EXPECT_NEAR(rows[4].eta_impl, 0.93, 0.015);
}

TEST(Efficiency, ProductIdentityHolds) {
  std::vector<ScalingPoint> pts = {{128, 22, 2039}, {512, 26, 638}};
  auto rows = efficiency_decomposition(pts);
  for (const auto& r : rows)
    EXPECT_NEAR(r.eta_overall, r.eta_alg * r.eta_impl, 1e-12);
}

}  // namespace
