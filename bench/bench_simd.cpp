// Three-way vectorization / precision A/B on the solver's hot paths:
//   scalar-double  — SIMD kernels disabled, double storage everywhere
//   simd-double    — explicit SIMD kernels, double storage
//   simd-mixed     — explicit SIMD kernels, float *storage* with double
//                    accumulation (Bcsr<float> operator, float ILU
//                    factors, float gradient/limiter arrays)
// on four workloads: the second-order flux residual (edge-colored
// scatter), block SpMV, ILU(0) triangular solve, and a short full psi-NKS
// solve. The mixed configurations must converge to the same tolerance as
// the double ones — precision is traded in storage only, the paper's
// Table 2 move.
//
// Measured speedups land next to the modeled expectations: the paper's
// Table 1 layout ratio (up to 5.7x) bounds what data-layout work can buy,
// and the Table 2 precision ratio (~2x on the bandwidth-bound linear
// phase, <= 2x from the traffic model) bounds what float storage can buy.
// On narrow-width or single-core hosts the measured SIMD gain can sit
// well below the modeled headroom; the JSON records both, and the 1.3x
// speedup gates are advisory: a miss is annotated, not failed.
//
// Usage: bench_simd [-vertices 16000] [-reps 5] [-solve-steps 8]
//                   [-out BENCH_simd.json]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "cfd/problem.hpp"
#include "common/options.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "solver/newton.hpp"
#include "sparse/ilu.hpp"

namespace {

using namespace f3d;

struct Ab3 {
  double scalar_double = 0;  ///< seconds, best of reps
  double simd_double = 0;
  double simd_mixed = 0;
  [[nodiscard]] double speedup_simd() const {
    return simd_double > 0 ? scalar_double / simd_double : 1.0;
  }
  [[nodiscard]] double speedup_mixed() const {
    return simd_mixed > 0 ? scalar_double / simd_mixed : 1.0;
  }
};

benchutil::Json to_json(const Ab3& a) {
  auto o = benchutil::Json::object();
  o.set("scalar_double_seconds", a.scalar_double)
      .set("simd_double_seconds", a.simd_double)
      .set("simd_mixed_seconds", a.simd_mixed)
      .set("speedup_simd_double", a.speedup_simd())
      .set("speedup_simd_mixed", a.speedup_mixed());
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 16000);
  const int reps = opts.get_int("reps", 5);
  const int solve_steps = opts.get_int("solve-steps", 8);
  const std::string out_path = opts.get_string("out", "BENCH_simd.json");

  benchutil::print_header(
      "SIMD + mixed precision A/B: flux / SpMV / trisolve / full solve",
      "paper Tables 1-2 context: layout buys up to 5.7x, float storage "
      "~2x on the bandwidth-bound linear phase; explicit SIMD rides the "
      "same data-layout work");

  std::printf("isa: %s (%d double lanes, simd %s)\n", simd::isa_name(),
              simd::double_lanes(),
              simd::compiled() ? "compiled in" : "NOT compiled in");

  auto mesh = benchutil::make_ordered_wing(vertices);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfd::EulerDiscretization disc(mesh, cfg);
  cfd::FlowConfig cfg_mixed = cfg;
  cfg_mixed.reco_single_precision = true;  // float gradient/limiter storage
  cfd::EulerDiscretization disc_mixed(mesh, cfg_mixed);
  const auto q = disc.make_freestream_field();
  const int n = disc.num_unknowns();

  auto best_of = [&](auto&& run) {
    run();  // warm-up
    double best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      run();
      best = std::min(best, t.seconds());
    }
    return best;
  };

  // --- flux residual (second order: gradients + limiters + scatter) ---
  std::vector<double> r;
  disc.residual(q, r);
  Ab3 flux;
  {
    simd::EnabledScope off(false);
    flux.scalar_double = best_of([&] { disc.residual(q, r); });
  }
  {
    simd::EnabledScope on(true);
    flux.simd_double = best_of([&] { disc.residual(q, r); });
    flux.simd_mixed = best_of([&] { disc_mixed.residual(q, r); });
  }

  // --- block SpMV: Bcsr<double> vs Bcsr<float> (double accumulate) ----
  auto jac = disc.allocate_jacobian();
  disc.jacobian(q, jac);
  for (int i = 0; i < jac.nrows; ++i) {
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  const auto jac_f = jac.convert<float>();
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) x[i] = 1.0 + 0.001 * (i % 97);
  Ab3 spmv;
  {
    simd::EnabledScope off(false);
    spmv.scalar_double = best_of([&] { jac.spmv(x.data(), y.data()); });
  }
  {
    simd::EnabledScope on(true);
    spmv.simd_double = best_of([&] { jac.spmv(x.data(), y.data()); });
    spmv.simd_mixed = best_of([&] { jac_f.spmv(x.data(), y.data()); });
  }

  // --- ILU(0) triangular solve: double vs float factors ---------------
  const sparse::BlockIlu<double> ilu_d(jac, 0);
  const sparse::BlockIlu<float> ilu_f(jac, 0);
  std::vector<double> z(n);
  Ab3 tri;
  {
    simd::EnabledScope off(false);
    tri.scalar_double = best_of([&] { ilu_d.solve(x.data(), z.data()); });
  }
  {
    simd::EnabledScope on(true);
    tri.simd_double = best_of([&] { ilu_d.solve(x.data(), z.data()); });
    tri.simd_mixed = best_of([&] { ilu_f.solve(x.data(), z.data()); });
  }

  // --- full psi-NKS solve ---------------------------------------------
  // First order (the implicit workhorse), 4 subdomains, fixed step count;
  // the mixed run turns on every float-storage lever at once and must
  // reach the same residual drop.
  cfd::FlowConfig cfg1 = cfg;
  cfg1.order = 1;
  cfd::EulerDiscretization disc1(mesh, cfg1);
  cfd::EulerProblem prob(disc1, -1.0);
  auto run_solve = [&](bool mixed, double& rdrop, bool& converged) {
    solver::PtcOptions po;
    po.max_steps = solve_steps;
    po.rtol = 1e-8;
    po.cfl0 = 10.0;
    po.num_subdomains = 4;
    po.gmres.restart = 20;
    po.gmres.rtol = 1e-3;
    po.gmres.max_iters = 120;
    po.matrix_single_precision = mixed;
    po.schwarz.single_precision = mixed;
    auto x0 = prob.initial_state();
    Timer t;
    auto res = solver::ptc_solve(prob, x0, po);
    rdrop = res.initial_residual > 0
                ? res.final_residual / res.initial_residual
                : 0.0;
    converged = res.converged;
    return t.seconds();
  };
  Ab3 solve;
  double drop_scalar = 0, drop_simd = 0, drop_mixed = 0;
  bool conv_scalar = false, conv_simd = false, conv_mixed = false;
  {
    simd::EnabledScope off(false);
    solve.scalar_double = run_solve(false, drop_scalar, conv_scalar);
  }
  {
    simd::EnabledScope on(true);
    solve.simd_double = run_solve(false, drop_simd, conv_simd);
    solve.simd_mixed = run_solve(true, drop_mixed, conv_mixed);
  }
  // Same-tolerance check: float storage perturbs the *preconditioner and
  // operator representation*, not the residual definition, so the runs
  // must reach a comparable residual drop over the same step count.
  const bool mixed_converges =
      conv_mixed == conv_scalar && drop_mixed <= 10.0 * drop_scalar;

  // --- modeled expectations -------------------------------------------
  const auto wd = benchutil::calibrate_work(disc1, 0, false);
  const auto wf = benchutil::calibrate_work(disc1, 0, true);
  const double traffic_precision_bound =
      wf.sparse_bytes_per_vertex_it > 0
          ? wd.sparse_bytes_per_vertex_it / wf.sparse_bytes_per_vertex_it
          : 1.0;

  // --- report ---------------------------------------------------------
  Table t({"Workload", "scalar-dbl", "simd-dbl", "simd-mixed", "simd x",
           "mixed x"});
  auto add = [&](const char* name, const Ab3& a) {
    t.add_row({name, Table::num(a.scalar_double * 1e3, 3) + "ms",
               Table::num(a.simd_double * 1e3, 3) + "ms",
               Table::num(a.simd_mixed * 1e3, 3) + "ms",
               Table::num(a.speedup_simd(), 2) + "x",
               Table::num(a.speedup_mixed(), 2) + "x"});
  };
  add("flux residual (2nd)", flux);
  add("block SpMV", spmv);
  add("ILU(0) trisolve", tri);
  add("full psi-NKS solve", solve);
  t.print();
  std::printf(
      "\nmodeled: Table 1 layout ratio up to 5.7x, Table 2 precision ~2x "
      "(traffic-model bound here: %.2fx on the linear phase)\n"
      "mixed solve residual drop %.3g vs scalar-double %.3g over %d "
      "steps\n",
      traffic_precision_bound, drop_mixed, drop_scalar, solve_steps);

  benchutil::Gates gates;
  gates.check("mixed_solve.same_tolerance", mixed_converges);
  const std::string miss_note =
      "measured simd-mixed speedup below gate on this host; modeled "
      "ratios recorded in `model` and discussed in EXPERIMENTS.md";
  gates.advisory("kernels.flux_residual.speedup_simd_mixed",
                 flux.speedup_mixed(), ">=", 1.3, miss_note);
  gates.advisory("kernels.block_spmv.speedup_simd_mixed",
                 spmv.speedup_mixed(), ">=", 1.3, miss_note);
  gates.print();

  auto root = benchutil::Json::object();
  root.set("bench", "simd")
      .set("vertices", mesh.num_vertices())
      .set("edges", mesh.num_edges())
      .set("unknowns", n)
      .set("reps", reps)
      .set("solve_steps", solve_steps)
      .set("configs", [] {
        auto a = benchutil::Json::array();
        a.push("scalar-double");
        a.push("simd-double");
        a.push("simd-mixed");
        return a;
      }());
  auto kernels = benchutil::Json::object();
  kernels.set("flux_residual", to_json(flux))
      .set("block_spmv", to_json(spmv))
      .set("ilu0_trisolve", to_json(tri))
      .set("full_solve", to_json(solve));
  root.set("kernels", std::move(kernels));
  auto model = benchutil::Json::object();
  model.set("paper_table1_layout_ratio", 5.7)
      .set("paper_table2_precision_ratio", 2.0)
      .set("traffic_model_precision_bound", traffic_precision_bound);
  root.set("model", std::move(model));
  root.set("mixed_solve", [&] {
    auto o = benchutil::Json::object();
    o.set("residual_drop_scalar_double", drop_scalar)
        .set("residual_drop_simd_double", drop_simd)
        .set("residual_drop_simd_mixed", drop_mixed)
        .set("same_tolerance", mixed_converges);
    return o;
  }());
  benchutil::write_json(out_path, root, gates);
  std::printf("wrote %s\n", out_path.c_str());
  return gates.exit_status();
}
