// Reproduces Table 5: time in the flux (function evaluation) phase for
// the 2.8M-vertex case on ASCI Red, comparing the second CPU of each node
// used as an extra MPI rank versus as an OpenMP thread.
//
// Two parts:
//  1. REAL host measurement: the flux kernel on the f3d::exec pool
//     (edge-colored conflict-free scatter) with 1 vs 2 worker threads,
//     demonstrating the shared-memory code path.
//  2. Virtual ASCI Red at the paper's node counts: kMpi1 / kMpi2 /
//     kHybridOmp2 flux-phase times, which reproduce the paper's crossover
//     (MPI x2 best at 256 nodes, hybrid best at 2560-3072).
//
// Usage: bench_table5_hybrid [-vertices 16000] [-reps 3]

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "exec/pool.hpp"
#include "par/stepmodel.hpp"
#include "perf/machine.hpp"

namespace {
using namespace f3d;
}

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 16000);
  const int reps = opts.get_int("reps", 3);

  benchutil::print_header(
      "Table 5 - flux phase: MPI ranks vs OpenMP threads per node",
      "paper Table 5: 2.8M vertices, ASCI Red; 2 MPI/node wins at 256 "
      "nodes (456s->258s), hybrid wins at 2560+ (76s->39s vs 72s->45s)");

  // --- real threaded flux kernel --------------------------------------
  auto mesh = benchutil::make_ordered_wing(vertices);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc(mesh, cfg);
  auto q = disc.make_freestream_field();
  std::vector<double> r;

  auto time_flux = [&](int threads) {
    exec::ThreadScope scope(threads);
    double best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      disc.residual(q, r);
      best = std::min(best, t.seconds());
    }
    return best;
  };
  const double t1 = time_flux(1);
  const double t2 = time_flux(2);
  std::printf(
      "host flux kernel (exec pool, edge-colored), %d vertices: 1 thread "
      "%.1fms, 2 threads %.1fms (host has %u hardware thread%s; "
      "single-core hosts show only the pool's sync overhead)\n\n",
      mesh.num_vertices(), t1 * 1e3, t2 * 1e3,
      std::thread::hardware_concurrency(),
      std::thread::hardware_concurrency() == 1 ? "" : "s");

  // --- virtual ASCI Red at the paper's scale ---------------------------
  auto law = benchutil::measure_surface_law(mesh, {8, 16, 32, 64});
  auto work = benchutil::calibrate_work(disc, 0, false);
  auto machine = perf::asci_red();
  const double paper_nv = 2.8e6;

  // The paper reports cumulative function-evaluation time over a full
  // run; we normalize to 1000 flux evaluations (its "couple of thousand"
  // order of magnitude).
  const double evals = 1000;
  Table t({"Nodes", "MPI 1/node", "MPI 2/node", "OMP 2/node",
           "paper(MPI 1/2, OMP 2)"});
  struct PaperRow {
    int nodes;
    const char* ref;
  };
  const PaperRow rows[] = {{256, "456s/258s, 261s"},
                           {2560, "72s/45s, 39s"},
                           {3072, "62s/40s, 33s"}};
  for (const auto& row : rows) {
    const double tm1 =
        evals * par::model_flux_phase(machine,
                                      par::synthesize_load(paper_nv, row.nodes, law),
                                      work, par::NodeMode::kMpi1);
    const double tm2 =
        evals * par::model_flux_phase(
                    machine, par::synthesize_load(paper_nv, 2 * row.nodes, law),
                    work, par::NodeMode::kMpi2);
    const double to2 =
        evals * par::model_flux_phase(machine,
                                      par::synthesize_load(paper_nv, row.nodes, law),
                                      work, par::NodeMode::kHybridOmp2);
    t.add_row({Table::num(static_cast<long long>(row.nodes)),
               Table::num(tm1, 1) + "s", Table::num(tm2, 1) + "s",
               Table::num(to2, 1) + "s", row.ref});
  }
  t.print();
  std::printf(
      "\nShape check (paper): both dual-CPU modes beat one rank per node;\n"
      "2 MPI ranks/node edges out the hybrid at 256 nodes, while at\n"
      "2560-3072 nodes the hybrid wins (cache-resident gather vs inflated\n"
      "redundant cut-edge work of 2x more, smaller subdomains).\n");
  return 0;
}
