// Reproduces Table 2: execution times with single vs double precision
// *storage* of the ILU preconditioner factors (all arithmetic stays
// double). The paper ran the 357,900-vertex case on 16-120 Origin 2000
// processors and saw the linear-solve phase run ~2x faster with float
// storage, "clearly identifying memory bandwidth as the bottleneck".
//
// Here: (a) real host measurement of the triangular-solve phase with both
// storage precisions (same iteration counts — the preconditioner is
// approximate by design, so convergence is unaffected, which we verify);
// (b) the Origin 2000 virtual-machine projection across 16-120 CPUs.
//
// Usage: bench_table2_precision [-vertices 30000] [-its 60] [-reps 3]

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "cfd/problem.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "perf/machine.hpp"
#include "solver/newton.hpp"
#include "sparse/ilu.hpp"

namespace {
using namespace f3d;
}

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 30000);
  const int linear_its = opts.get_int("its", 60);
  const int reps = opts.get_int("reps", 3);

  benchutil::print_header(
      "Table 2 - single vs double precision preconditioner storage",
      "paper Table 2: 357,900-vertex case, Origin 2000; float storage runs "
      "the linear solve ~2x faster at identical convergence");

  auto mesh = benchutil::make_ordered_wing(vertices);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(mesh, cfg);
  std::printf("mesh: %d vertices (%d DOFs)\n", mesh.num_vertices(),
              mesh.num_vertices() * 4);

  // Assemble a representative Jacobian at freestream + pseudo-time shift.
  auto q = disc.make_freestream_field();
  auto jac = disc.allocate_jacobian();
  disc.jacobian(q, jac);
  std::vector<double> sr;
  disc.spectral_radius(q, sr);
  for (int v = 0; v < mesh.num_vertices(); ++v) {
    double* blk = jac.find_block(v, v);
    for (int c = 0; c < 4; ++c)
      blk[c * 4 + c] += sr[v] / 10.0;  // CFL ~ 10 shift
  }

  const sparse::BlockIlu<double> fd(jac, 0);
  const sparse::BlockIlu<float> ff(jac, 0);

  const std::size_t n = static_cast<std::size_t>(jac.scalar_n());
  std::vector<double> b(n, 1.0), x(n);

  auto time_solves = [&](auto& f) {
    double best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      for (int k = 0; k < linear_its; ++k) {
        f.solve(b.data(), x.data());
        // A matvec alternates with the trisolve in the real Krylov loop.
        jac.spmv(x.data(), b.data());
      }
      best = std::min(best, t.seconds());
    }
    return best;
  };

  const double t_double = time_solves(fd);
  const double t_float = time_solves(ff);

  // Convergence equivalence: one GMRES solve with each.
  solver::LinearOperator op;
  op.n = static_cast<int>(n);
  op.apply = [&](const double* xx, double* yy) { jac.spmv(xx, yy); };
  auto pd = solver::make_global_ilu(jac, 0, false);
  auto pf = solver::make_global_ilu(jac, 0, true);
  std::vector<double> rhs(n, 1.0), x1(n, 0.0), x2(n, 0.0);
  solver::GmresOptions go;
  go.rtol = 1e-8;
  go.max_iters = 300;
  auto rd = solver::gmres(op, *pd, rhs, x1, go);
  auto rf = solver::gmres(op, *pf, rhs, x2, go);

  std::printf("\nHost measurement (%d trisolve+spmv pairs):\n", linear_its);
  Table host({"Storage", "Linear phase", "Factor bytes", "GMRES its to 1e-8"});
  host.add_row({"Double", Table::num(t_double * 1e3, 1) + "ms",
                Table::num(static_cast<long long>(pd->factor_bytes())),
                Table::num(static_cast<long long>(rd.iterations))});
  host.add_row({"Single", Table::num(t_float * 1e3, 1) + "ms",
                Table::num(static_cast<long long>(pf->factor_bytes())),
                Table::num(static_cast<long long>(rf.iterations))});
  host.print();
  std::printf("measured speedup: %.2fx (paper: 1.6-1.9x; bound from the "
              "traffic model: <= 2x)\n",
              t_double / t_float);

  // Origin 2000 projection at the paper's processor counts.
  auto law = benchutil::measure_surface_law(mesh, {4, 8, 16});
  auto machine = perf::origin2000();
  const double nv = 357900;
  par::StepCounts counts;
  counts.linear_its = 18;  // per-step order of magnitude from our runs
  Table proj({"Procs", "Linear Solve Dbl", "Linear Solve Sgl", "Overall Dbl",
              "Overall Sgl", "paper (lin slv D/S)"});
  const char* paper_ref[] = {"223s/136s", "117s/67s", "60s/34s", "31s/16s"};
  const int procs_list[] = {16, 32, 64, 120};
  for (int i = 0; i < 4; ++i) {
    const int p = procs_list[i];
    auto load = par::synthesize_load(nv, p, law);
    auto wd = benchutil::calibrate_work(disc, 0, false);
    auto wf = benchutil::calibrate_work(disc, 0, true);
    auto bd = par::model_step(machine, load, wd, counts);
    auto bf = par::model_step(machine, load, wf, counts);
    // "Linear solve" phase = sparse + its share of comm; "overall" adds
    // the flux phases. Report per 60 pseudo-steps like the paper's runs.
    const double steps = 60;
    proj.add_row({Table::num(static_cast<long long>(p)),
                  Table::num(steps * (bd.t_sparse + bd.t_implicit_sync), 0) + "s",
                  Table::num(steps * (bf.t_sparse + bf.t_implicit_sync), 0) + "s",
                  Table::num(steps * bd.total(), 0) + "s",
                  Table::num(steps * bf.total(), 0) + "s", paper_ref[i]});
  }
  std::printf("\nOrigin 2000 projection (357,900 vertices, 60 pseudo-steps):\n");
  proj.print();
  return 0;
}
