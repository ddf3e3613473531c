// Shared-memory thread scaling of the solver's four hot kernels on the
// f3d::exec pool: second-order flux residual (edge-colored scatter),
// block SpMV (row-parallel), ILU(0) triangular solves (level-scheduled),
// and the Krylov dot product (fixed-block tree reduction).
//
// Every kernel is bit-deterministic by construction — the sweep gates
// that the outputs at every thread count are byte-identical to the
// 1-thread run, and that the level-scheduled triangular solve is
// byte-identical to the serial solve. Results (best-of-reps wall times,
// speedups, determinism gates) go to BENCH_threading.json via
// benchutil::write_json.
//
// Usage: bench_threading [-vertices 16000] [-reps 5] [-max-threads 4]
//                        [-out BENCH_threading.json]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"
#include "sparse/ilu.hpp"

namespace {

using namespace f3d;

struct SweepPoint {
  int threads = 0;
  double seconds = 0;
  double speedup = 1;
  bool bit_identical = true;
};

// Time `run` (which writes `out_n` doubles at `out`) at 1..max_threads
// pool threads; best of `reps`, outputs compared bytewise to 1 thread.
template <class Run>
std::vector<SweepPoint> sweep_kernel(int max_threads, int reps, Run&& run,
                                     const double* out, std::size_t out_n) {
  std::vector<SweepPoint> pts;
  std::vector<double> baseline;
  double t1 = 0;
  for (int nt = 1; nt <= max_threads; ++nt) {
    exec::ThreadScope scope(nt);
    run();  // warm-up (and the output compared below)
    double best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      run();
      best = std::min(best, t.seconds());
    }
    SweepPoint p;
    p.threads = nt;
    p.seconds = best;
    if (nt == 1) {
      t1 = best;
      baseline.assign(out, out + out_n);
    } else {
      p.bit_identical =
          std::memcmp(baseline.data(), out, out_n * sizeof(double)) == 0;
    }
    p.speedup = best > 0 ? t1 / best : 1.0;
    pts.push_back(p);
  }
  return pts;
}

benchutil::Json to_json(const std::vector<SweepPoint>& pts) {
  auto arr = benchutil::Json::array();
  for (const auto& p : pts) {
    auto o = benchutil::Json::object();
    o.set("threads", p.threads)
        .set("seconds", p.seconds)
        .set("speedup", p.speedup)
        .set("bit_identical", p.bit_identical);
    arr.push(std::move(o));
  }
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 16000);
  const int reps = opts.get_int("reps", 5);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int max_threads =
      opts.get_int("max-threads", std::max(4, static_cast<int>(hw)));
  const std::string out_path = opts.get_string("out", "BENCH_threading.json");

  benchutil::print_header(
      "Thread scaling - exec pool: flux / SpMV / ILU trisolve / dot",
      "paper Table 5 context: shared-memory workers inside a node; all "
      "kernels bit-deterministic for any thread count");

  auto mesh = benchutil::make_ordered_wing(vertices);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc(mesh, cfg);
  const auto q = disc.make_freestream_field();
  const int n = disc.num_unknowns();

  // --- flux residual (edge-colored scatter) ---------------------------
  std::vector<double> r;
  disc.residual(q, r);  // allocate before timing
  auto flux = sweep_kernel(
      max_threads, reps, [&] { disc.residual(q, r); }, r.data(), r.size());

  // --- block SpMV (row-parallel) --------------------------------------
  auto jac = disc.allocate_jacobian();
  disc.jacobian(q, jac);
  // Pseudo-transient diagonal term: keeps the ILU(0) pivots safely
  // nonsingular at the freestream state (as in the real ptc loop).
  for (int i = 0; i < jac.nrows; ++i) {
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) x[i] = 1.0 + 0.001 * (i % 97);
  auto spmv = sweep_kernel(
      max_threads, reps, [&] { jac.spmv(x.data(), y.data()); }, y.data(),
      y.size());

  // --- ILU(0) triangular solves (level-scheduled) ---------------------
  const sparse::BlockIlu<double> ilu(jac, 0);
  const int fwd_levels = sparse::lower_levels(ilu.pattern()).num_levels();
  const int bwd_levels = sparse::upper_levels(ilu.pattern()).num_levels();
  std::vector<double> z(n), zserial(n);
  ilu.solve(x.data(), zserial.data());
  auto tri = sweep_kernel(
      max_threads, reps,
      [&] { ilu.solve_levels(x.data(), z.data()); }, z.data(),
      z.size());
  const bool tri_matches_serial =
      std::memcmp(z.data(), zserial.data(), z.size() * sizeof(double)) == 0;

  // --- Krylov dot (fixed-block tree reduction) ------------------------
  double dval = 0;
  auto dot = sweep_kernel(
      max_threads, reps, [&] { dval = exec::dot(n, x.data(), y.data()); },
      &dval, 1);

  // --- vectorization A/B (same binary, runtime toggle) ----------------
  // The thread sweeps above ran in the build's default SIMD state; here
  // the two hot kernels are re-timed at max threads with explicit SIMD
  // off and on, isolating the vector-width effect from thread scaling.
  auto ab_time = [&](bool simd_on, auto&& run) {
    simd::EnabledScope scope(simd_on);
    exec::ThreadScope threads(max_threads);
    run();  // warm-up
    double best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      run();
      best = std::min(best, t.seconds());
    }
    return best;
  };
  const double flux_scalar = ab_time(false, [&] { disc.residual(q, r); });
  const double flux_simd = ab_time(true, [&] { disc.residual(q, r); });
  const double spmv_scalar =
      ab_time(false, [&] { jac.spmv(x.data(), y.data()); });
  const double spmv_simd = ab_time(true, [&] { jac.spmv(x.data(), y.data()); });

  // --- report ---------------------------------------------------------
  Table t({"Kernel", "t(1)", "t(" + std::to_string(max_threads) + ")",
           "speedup"});
  benchutil::Gates gates;
  auto add = [&](const std::string& name, const std::vector<SweepPoint>& pts) {
    t.add_row({name, Table::num(pts.front().seconds * 1e3, 3) + "ms",
               Table::num(pts.back().seconds * 1e3, 3) + "ms",
               Table::num(pts.back().speedup, 2) + "x"});
    for (const auto& p : pts)
      gates.check("kernels." + name + ".bit_identical[threads=" +
                      std::to_string(p.threads) + "]",
                  p.bit_identical);
  };
  add("flux_residual", flux);
  add("block_spmv", spmv);
  add("ilu0_trisolve", tri);
  add("dot", dot);
  gates.check("trisolve_matches_serial", tri_matches_serial);
  t.print();

  const double combined1 = flux.front().seconds + spmv.front().seconds;
  const double combinedN = flux.back().seconds + spmv.back().seconds;
  const double combined_speedup = combinedN > 0 ? combined1 / combinedN : 1.0;
  std::printf(
      "\nflux+SpMV speedup at %d threads: %.2fx (host has %u hardware "
      "thread%s)\ntrisolve fwd/bwd levels: %d/%d over %d rows\n",
      max_threads, combined_speedup, hw, hw == 1 ? "" : "s",
      fwd_levels, bwd_levels, jac.nrows);
  if (hw < static_cast<unsigned>(max_threads))
    std::printf(
        "note: oversubscribed sweep (threads > cores); speedups above "
        "1x need >= %d physical cores\n",
        max_threads);

  auto root = benchutil::Json::object();
  root.set("bench", "threading")
      .set("hardware_threads", static_cast<int>(hw))
      .set("reps", reps)
      .set("vertices", mesh.num_vertices())
      .set("edges", mesh.num_edges())
      .set("edge_colors", disc.edge_coloring().num_colors())
      .set("unknowns", n)
      .set("ilu_forward_levels", fwd_levels)
      .set("ilu_backward_levels", bwd_levels)
      .set("flux_spmv_speedup_at_max_threads", combined_speedup);
  auto kernels = benchutil::Json::object();
  kernels.set("flux_residual", to_json(flux))
      .set("block_spmv", to_json(spmv))
      .set("ilu0_trisolve", to_json(tri))
      .set("dot", to_json(dot));
  root.set("kernels", std::move(kernels));
  auto simd_ab = benchutil::Json::object();
  simd_ab.set("simd_compiled", simd::compiled())
      .set("threads", max_threads)
      .set("flux_scalar_seconds", flux_scalar)
      .set("flux_simd_seconds", flux_simd)
      .set("flux_simd_speedup", flux_simd > 0 ? flux_scalar / flux_simd : 1.0)
      .set("spmv_scalar_seconds", spmv_scalar)
      .set("spmv_simd_seconds", spmv_simd)
      .set("spmv_simd_speedup", spmv_simd > 0 ? spmv_scalar / spmv_simd : 1.0);
  root.set("simd_ab", std::move(simd_ab));
  std::printf("SIMD A/B at %d thread(s): flux %.2fx, SpMV %.2fx (%s)\n",
              max_threads, flux_simd > 0 ? flux_scalar / flux_simd : 1.0,
              spmv_simd > 0 ? spmv_scalar / spmv_simd : 1.0,
              simd::isa_name());
  gates.print();
  benchutil::write_json(out_path, root, gates);
  std::printf("wrote %s\n", out_path.c_str());
  return gates.exit_status();
}
