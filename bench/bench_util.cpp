#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "mesh/ordering.hpp"
#include "obs/trace.hpp"
#include "partition/multilevel.hpp"
#include "sparse/ilu.hpp"

namespace f3d::benchutil {

void print_header(const std::string& experiment, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

mesh::UnstructuredMesh make_shuffled_wing(int target_vertices, unsigned seed) {
  auto m = mesh::generate_wing_mesh_with_size(target_vertices);
  mesh::shuffle_mesh(m, seed);
  return m;
}

mesh::UnstructuredMesh make_ordered_wing(int target_vertices, unsigned seed) {
  auto m = make_shuffled_wing(target_vertices, seed);
  mesh::apply_best_ordering(m);
  return m;
}

par::WorkCoefficients calibrate_work(const cfd::EulerDiscretization& disc,
                                     int ilu_fill, bool single_precision) {
  par::WorkCoefficients w;
  w.nb = disc.nb();
  w.flux_flops_per_edge =
      disc.residual_flops() / std::max(1, disc.mesh().num_edges());

  // Sparse traffic per owned vertex per Krylov iteration: one ILU(k)
  // triangular solve (stream the factors once) plus ~6 Krylov vector
  // passes (orthogonalization + update).
  const auto& st = disc.stencil();
  const double blocks_per_vertex =
      static_cast<double>(st.nnz()) / std::max(1, st.n);
  // ILU(k) fill growth measured coarsely: level 1 ~ 1.6x, level 2 ~ 2.3x
  // the level-0 block count on tetrahedral stencils.
  const double fill_factor = ilu_fill == 0 ? 1.0 : (ilu_fill == 1 ? 1.6 : 2.3);
  const double factor_scalar_bytes = single_precision ? 4.0 : 8.0;
  const double factor_bytes = blocks_per_vertex * fill_factor * w.nb * w.nb *
                              factor_scalar_bytes;
  const double vector_bytes = 6.0 * w.nb * 8.0;
  w.sparse_bytes_per_vertex_it = factor_bytes + vector_bytes;
  w.sparse_flops_per_vertex_it =
      2.0 * blocks_per_vertex * fill_factor * w.nb * w.nb + 8.0 * w.nb;
  // Single-precision runs ship float halos: half the ghost-exchange
  // payload per scatter (the beta term of the comm model).
  w.halo_scalar_bytes = single_precision ? 4.0 : 8.0;
  return w;
}

NksProbe probe_nks(const mesh::UnstructuredMesh& mesh, int subdomains,
                   const solver::SchwarzOptions& schwarz, int steps,
                   Partitioner partitioner, double rtol) {
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(mesh, cfg);
  cfd::EulerProblem prob(disc, -1.0);

  auto g = mesh::build_graph(mesh.num_vertices(), mesh.edges());
  solver::PtcOptions opts;
  opts.max_steps = steps;
  opts.rtol = rtol;
  opts.cfl0 = 10.0;
  opts.num_subdomains = subdomains;
  opts.schwarz = schwarz;
  opts.gmres.restart = 20;
  opts.gmres.rtol = 1e-3;
  opts.gmres.max_iters = 120;
  switch (partitioner) {
    case Partitioner::kKway:
      opts.partition = part::kway_grow(g, subdomains);
      break;
    case Partitioner::kBalanceFirst:
      opts.partition = part::balance_first(g, subdomains);
      break;
    case Partitioner::kMultilevel:
      opts.partition = part::multilevel_kway(g, subdomains);
      break;
  }

  auto x = prob.initial_state();
  Timer t;
  auto res = solver::ptc_solve(prob, x, opts);
  NksProbe probe;
  probe.subdomains = subdomains;
  probe.steps = res.steps;
  probe.total_linear_its = res.total_linear_iterations;
  probe.linear_its_per_step =
      res.steps > 0 ? static_cast<double>(res.total_linear_iterations) /
                          res.steps
                    : 0;
  probe.flux_evals_per_step =
      res.steps > 0
          ? static_cast<double>(res.function_evaluations) / res.steps
          : 0;
  probe.wall_seconds = t.seconds();
  probe.converged = res.converged;
  return probe;
}

double fit_iteration_growth(
    const std::vector<std::pair<int, double>>& its_by_procs) {
  // Least squares slope of log(its) vs log(P).
  F3D_CHECK(its_by_procs.size() >= 2);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(its_by_procs.size());
  for (const auto& [p, its] : its_by_procs) {
    const double x = std::log(static_cast<double>(p));
    const double y = std::log(std::max(its, 1e-9));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

par::SurfaceLaw measure_surface_law(const mesh::UnstructuredMesh& mesh,
                                    const std::vector<int>& part_counts,
                                    Partitioner partitioner) {
  auto g = mesh::build_graph(mesh.num_vertices(), mesh.edges());
  std::vector<par::PartitionLoad> samples;
  for (int np : part_counts) {
    part::Partition p;
    switch (partitioner) {
      case Partitioner::kKway:
        p = part::kway_grow(g, np);
        break;
      case Partitioner::kBalanceFirst:
        p = part::balance_first(g, np);
        break;
      case Partitioner::kMultilevel:
        p = part::multilevel_kway(g, np);
        break;
    }
    samples.push_back(par::measure_load(g, p));
  }
  return par::fit_surface_law(samples);
}

namespace {

// "results/BENCH_threading.json" -> "threading"; the envelope's
// meta.experiment.
std::string experiment_from_path(const std::string& path) {
  std::string name = path;
  const std::size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("BENCH_", 0) == 0) name = name.substr(6);
  const std::size_t dot = name.rfind('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name.empty() ? "unknown" : name;
}

bool compare(double value, const std::string& op, double threshold) {
  if (op == ">=") return value >= threshold;
  if (op == ">") return value > threshold;
  if (op == "<=") return value <= threshold;
  if (op == "<") return value < threshold;
  F3D_CHECK_MSG(op == "==", "unknown gate op '" + op + "'");
  return value == threshold;
}

std::string format_value(const Json& v) {
  if (v.kind == Json::Kind::kBool) return v.b ? "true" : "false";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v.number());
  return buf;
}

}  // namespace

void Gates::check(std::string name, double value, const std::string& op,
                  double threshold) {
  const bool pass = compare(value, op, threshold);
  add({std::move(name), value, op, threshold, pass, false, {}});
}

void Gates::check(std::string name, bool value) {
  add({std::move(name), value, "==", true, value, false, {}});
}

void Gates::advisory(std::string name, double value, const std::string& op,
                     double threshold, std::string note) {
  const bool pass = compare(value, op, threshold);
  add({std::move(name), value, op, threshold, pass, true, std::move(note)});
}

void Gates::advisory(std::string name, bool value, std::string note) {
  add({std::move(name), value, "==", true, value, true, std::move(note)});
}

void Gates::add(Gate g) {
  F3D_CHECK_MSG(g.pass || !g.advisory || !g.note.empty(),
                "failed advisory gate " + g.name + " needs a note");
  for (const auto& other : gates_)
    F3D_CHECK_MSG(other.name != g.name, "duplicate gate " + g.name);
  gates_.push_back(std::move(g));
}

int Gates::exit_status() const {
  for (const auto& g : gates_)
    if (!g.pass && !g.advisory) return 1;
  return 0;
}

void Gates::print() const {
  Table t({"gate", "value", "op", "threshold", "verdict"});
  for (const auto& g : gates_)
    t.add_row({g.name, format_value(g.value), g.op, format_value(g.threshold),
               g.pass ? "pass" : g.advisory ? "miss (advisory)" : "FAIL"});
  std::printf("\ngates:\n");
  t.print();
  for (const auto& g : gates_)
    if (!g.pass && g.advisory)
      std::printf("note: %s: %s\n", g.name.c_str(), g.note.c_str());
}

Json Gates::to_json() const {
  Json arr = Json::array();
  for (const auto& g : gates_) {
    Json o = Json::object();
    o.set("name", g.name)
        .set("value", g.value)
        .set("op", g.op)
        .set("threshold", g.threshold)
        .set("pass", g.pass);
    if (g.advisory) o.set("advisory", true);
    if (g.advisory && !g.pass) o.set("note", g.note);
    arr.push(std::move(o));
  }
  return arr;
}

void write_json(const std::string& path, Json series, const Gates& gates) {
  F3D_CHECK_MSG(!gates.empty(), path + ": an artifact must carry its gates");
  series.set("gates", gates.to_json());
  Json report =
      obs::make_bench_report(experiment_from_path(path), std::move(series));
  // Every artifact records the host ISA the numbers were produced on —
  // a SIMD A/B ratio is meaningless without the vector width behind it.
  Json isa = Json::object();
  isa.set("isa", simd::isa_name())
      .set("arch", simd::target_arch())
      .set("double_lanes", simd::double_lanes())
      .set("simd_compiled", simd::compiled())
      .set("simd_enabled", simd::enabled());
  Json meta = *report.find("meta");
  meta.set("host_isa", std::move(isa));
  report.set("meta", std::move(meta));
  F3D_CHECK_MSG(obs::write_json_file(path, report), "cannot write " + path);
}

PairedRatio paired_ratio(const std::function<double()>& off,
                         const std::function<double()>& on) {
  // Odd, for a true median. Single solve times on a shared host scatter
  // by up to +-30%; the median of nine pairs ignores four disturbed ones.
  constexpr int pairs = 9;
  PairedRatio out;
  for (int p = 0; p < pairs; ++p) {
    double t_off = 0, t_on = 0;
    if (p % 2 == 0) {
      t_off = off();
      t_on = on();
    } else {
      t_on = on();
      t_off = off();
    }
    out.ratios.push_back(t_on / t_off);
  }
  std::vector<double> sorted = out.ratios;
  std::nth_element(sorted.begin(), sorted.begin() + pairs / 2, sorted.end());
  out.median = sorted[static_cast<std::size_t>(pairs / 2)];
  return out;
}

}  // namespace f3d::benchutil
