// perfbench: one canonical psi-NKS workload, timed end to end and, in a
// traced run, layer by layer. run.py builds this program, runs it and
// judges its output; README.md describes the workloads and the metrics.
//
//   perfbench --workload incomp2-20k --seed 1 --seconds 20 --trace 0
//
// --seed shuffles the generated mesh's vertex and edge numbering (the
// "as-delivered" order) before the RCM + sorted-edge reordering; a
// negative seed keeps the generator's own order. A run is a fixed number
// of rounds, about --seconds worth: set up, then solve (traced runs: solve
// untraced, then traced). Round 0 keeps the generator's order; each later
// round has its own shuffle drawn from the seed.
// Traced runs also check the ledger's span folding on a synthetic tree
// and probe single kernels on the converged state. The program prints one
// JSON object of raw samples on stdout.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cfd/problem.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "ledger.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "mesh/ordering.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "partition/partition.hpp"
#include "perf/models.hpp"
#include "perf/stream.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace f3d;
using Json = obs::Json;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads -------------------------------------------------------------

struct Workload {
  int vertices = 0;
  /// Typical solve time on the reference host (README.md). It only sizes
  /// the solve count, so that every run of a workload does the same work.
  double nominal_solve_s = 0;
  cfd::FlowConfig flow;
  double switch_to_second_at = 0.0;  ///< EulerProblem's order switch
  solver::PtcOptions ptc;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.flow.alpha_deg = 2.0;
  w.ptc.rtol = 1e-8;
  w.ptc.schwarz.fill_level = 1;
  if (name == "incomp2-20k") {
    // The 20k quickstart: second order from step 0, matrix-free GMRES,
    // one subdomain with ILU(1).
    w.vertices = 20000;
    w.nominal_solve_s = 8.0;
    w.flow.model = cfd::Model::kIncompressible;
    w.flow.order = 2;
    w.ptc.cfl0 = 50.0;
    w.ptc.max_steps = 60;
  } else if (name == "compwing-6k") {
    // The compressible wing: first order until two orders of residual
    // reduction, then second order; the Jacobian is refreshed every step.
    w.vertices = 6000;
    w.nominal_solve_s = 2.5;
    w.flow.model = cfd::Model::kCompressible;
    w.flow.mach = 0.5;
    w.flow.order = 2;
    w.switch_to_second_at = 1e-2;
    w.ptc.cfl0 = 5.0;
    w.ptc.ser_exponent = 1.0;
    w.ptc.max_steps = 80;
  } else if (name == "rasm64-1st-20k") {
    // The paper's Table 4 regime: first order, assembled operator,
    // 64 RASM subdomains with overlap 1 and ILU(0), GMRES(30).
    w.vertices = 20000;
    w.nominal_solve_s = 6.5;
    w.flow.model = cfd::Model::kIncompressible;
    w.flow.order = 1;
    w.switch_to_second_at = -1.0;
    w.ptc.cfl0 = 50.0;
    w.ptc.max_steps = 60;
    w.ptc.matrix_free = false;
    w.ptc.num_subdomains = 64;
    w.ptc.schwarz.type = solver::SchwarzType::kRasm;
    w.ptc.schwarz.overlap = 1;
    w.ptc.schwarz.fill_level = 0;
    w.ptc.gmres.restart = 30;
    w.ptc.gmres.rtol = 1e-5;
    w.ptc.gmres.max_iters = 300;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// --- set-up ----------------------------------------------------------------

/// Mesh, ordering, discretization and initial state of one workload. Held
/// by pointer: the discretization borrows the mesh.
struct Setup {
  mesh::UnstructuredMesh mesh;
  std::unique_ptr<cfd::EulerDiscretization> disc;
  std::vector<double> x0;
  double generate_s = 0, ordering_s = 0, geometry_s = 0, initial_s = 0;
  [[nodiscard]] double total_s() const {
    return generate_s + ordering_s + geometry_s + initial_s;
  }
};

std::unique_ptr<Setup> set_up(const Workload& w,
                              std::optional<unsigned> shuffle) {
  auto s = std::make_unique<Setup>();
  auto t = Clock::now();
  s->mesh = mesh::generate_wing_mesh_with_size(w.vertices);
  s->generate_s = since(t);
  // The shuffle makes the benchmark's input; it is not timed.
  if (shuffle) mesh::shuffle_mesh(s->mesh, *shuffle);
  t = Clock::now();
  mesh::apply_best_ordering(s->mesh);
  s->ordering_s = since(t);
  t = Clock::now();
  s->disc = std::make_unique<cfd::EulerDiscretization>(s->mesh, w.flow);
  s->geometry_s = since(t);
  t = Clock::now();
  s->x0 = cfd::EulerProblem(*s->disc, w.switch_to_second_at).initial_state();
  s->initial_s = since(t);
  return s;
}

// --- the cfd decorator -------------------------------------------------------

/// Times every call ptc_solve makes into the cfd problem, and wraps each
/// in a span of the benchmark's own so the traced ledger sees the cfd
/// layer boundary.
class TimedProblem final : public solver::NonlinearProblem {
 public:
  struct Tally {
    long long calls = 0;
    double seconds = 0;
  };

  explicit TimedProblem(solver::NonlinearProblem& inner) : inner_(inner) {}

  [[nodiscard]] int num_vertices() const override {
    return inner_.num_vertices();
  }
  [[nodiscard]] int nb() const override { return inner_.nb(); }
  void residual(const std::vector<double>& x, std::vector<double>& r) override {
    Timed t(residual_, "cfd.residual");
    inner_.residual(x, r);
  }
  [[nodiscard]] sparse::Bcsr<double> allocate_jacobian() const override {
    return inner_.allocate_jacobian();
  }
  void jacobian(const std::vector<double>& x,
                sparse::Bcsr<double>& jac) override {
    Timed t(jacobian_, "cfd.jacobian");
    inner_.jacobian(x, jac);
  }
  void timestep_scale(const std::vector<double>& x,
                      std::vector<double>& vol_over_sr) override {
    Timed t(timestep_scale_, "cfd.timestep_scale");
    inner_.timestep_scale(x, vol_over_sr);
  }
  void cell_volumes(std::vector<double>& vol) const override {
    inner_.cell_volumes(vol);
  }
  void on_step(int step, double residual_ratio) override {
    inner_.on_step(step, residual_ratio);
  }
  [[nodiscard]] bool admissible(const std::vector<double>& x) const override {
    return inner_.admissible(x);
  }

  [[nodiscard]] const Tally& residual_tally() const { return residual_; }
  [[nodiscard]] const Tally& jacobian_tally() const { return jacobian_; }
  [[nodiscard]] const Tally& timestep_scale_tally() const {
    return timestep_scale_;
  }

 private:
  class Timed {
   public:
    Timed(Tally& tally, const char* span) : tally_(tally), span_(span) {}
    ~Timed() {
      ++tally_.calls;
      tally_.seconds += since(t0_);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    Tally& tally_;
    Clock::time_point t0_ = Clock::now();
    obs::Span span_;
  };

  solver::NonlinearProblem& inner_;
  Tally residual_, jacobian_, timestep_scale_;
};

Json tally_json(const TimedProblem::Tally& t) {
  return Json::object().set("calls", t.calls).set("seconds", t.seconds);
}

// --- one solve -----------------------------------------------------------------

/// Pressure force on the wall: sum over wall faces of p * n / 3 per vertex.
std::vector<double> wall_force(const Setup& s, const std::vector<double>& x) {
  const auto& cfg = s.disc->config();
  const int nb = cfg.nb();
  auto pressure = [&](int v) {
    const double* q = &x[static_cast<std::size_t>(v) * nb];
    if (cfg.model == cfd::Model::kIncompressible) return q[0];
    const double m2 = q[1] * q[1] + q[2] * q[2] + q[3] * q[3];
    return (cfg.gamma - 1.0) * (q[4] - 0.5 * m2 / q[0]);
  };
  std::vector<double> f(3, 0.0);
  const auto& faces = s.mesh.boundary_faces();
  const auto& normal = s.disc->dual().bface_normal;
  for (std::size_t i = 0; i < faces.size(); ++i) {
    if (faces[i].tag != mesh::BoundaryTag::kWall) continue;
    for (int lv = 0; lv < 3; ++lv) {
      const double p = pressure(faces[i].v[lv]);
      for (int d = 0; d < 3; ++d) f[d] += p * normal[i][d] / 3.0;
    }
  }
  return f;
}

struct SolveOutcome {
  Json record;
  std::vector<double> x;  ///< converged state
  double last_cfl = 0;
};

SolveOutcome solve(const Workload& w, Setup& s, bool traced) {
  cfd::EulerProblem euler(*s.disc, w.switch_to_second_at);
  TimedProblem problem(euler);
  SolveOutcome out;
  out.x = s.x0;
  auto& tracer = obs::Tracer::global();
  if (traced) {
    tracer.clear();
    obs::set_tracing(true);
  }
  const auto t0 = Clock::now();
  const auto res = solver::ptc_solve(problem, out.x, w.ptc);
  const double wall = since(t0);
  obs::set_tracing(false);
  if (!res.history.empty()) out.last_cfl = res.history.back().cfl;

  Json rec = Json::object();
  rec.set("traced", traced)
      .set("wall_s", wall)
      .set("verdict", guard::verdict_name(res.verdict))
      .set("initial_residual", res.initial_residual)
      .set("final_residual", res.final_residual)
      .set("steps", res.steps)
      .set("linear_its", res.total_linear_iterations)
      .set("residual_evals", res.function_evaluations)
      .set("work_units", res.work_units)
      .set("residual", tally_json(problem.residual_tally()))
      .set("jacobian", tally_json(problem.jacobian_tally()))
      .set("timestep_scale", tally_json(problem.timestep_scale_tally()));
  Json force = Json::array();
  for (double f : wall_force(s, out.x)) force.push(f);
  rec.set("force", std::move(force));
  if (traced) {
    perfbench::Ledger ledger;
    perfbench::fold_exclusive(tracer.drain(), perfbench::layer_map(), ledger);
    Json layers = Json::object();
    for (const auto& [layer, sec] : ledger.self_s) layers.set(layer, sec);
    Json counts = Json::object();
    for (const auto& [name, n] : ledger.span_count) counts.set(name, n);
    rec.set("layers", std::move(layers))
        .set("span_counts", std::move(counts))
        .set("span_root_s", ledger.root_s)
        .set("span_roots", ledger.roots)
        .set("spans_dropped", static_cast<long long>(tracer.dropped()));
  }
  out.record = std::move(rec);
  return out;
}

// --- kernel probes on the converged state ------------------------------------

/// Median seconds per call of `fn`, over 5 batches sized to ~budget_s/5.
template <class F>
double seconds_per_call(F&& fn, double budget_s) {
  auto t = Clock::now();
  fn();  // warm caches and lazy allocations
  const double one = std::max(since(t), 1e-7);
  const int reps = std::max(1, static_cast<int>(budget_s / 5.0 / one));
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    t = Clock::now();
    for (int i = 0; i < reps; ++i) fn();
    per_call.push_back(since(t) / reps);
  }
  return median(per_call);
}

mesh::Graph graph_of(const sparse::Bcsr<double>& a) {
  std::vector<std::array<int, 2>> edges;
  for (int i = 0; i < a.nrows; ++i)
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
      if (a.col[p] > i) edges.push_back({i, a.col[p]});
  return mesh::build_graph(a.nrows, edges);
}

Json probe(const Workload& w, Setup& s, const SolveOutcome& last) {
  auto& disc = *s.disc;
  const int nv = disc.num_vertices();
  const int nb = disc.nb();
  const int n = nv * nb;
  Json out = Json::object();

  // cfd: one residual evaluation at the order the solve finished with.
  cfd::FlowField field(nv, nb, sparse::FieldLayout::kInterlaced);
  field.data() = last.x;
  std::vector<double> r(n);
  const double res_s = seconds_per_call([&] { disc.residual(field, r); }, 0.5);
  out.set("residual_s", res_s).set("edges", s.mesh.num_edges());

  // The preconditioner's operator at the last step: first-order Jacobian
  // plus the pseudo-time diagonal V_i / (CFL dt-scale_i).
  cfd::EulerProblem euler(disc, 0.0);
  auto jac = euler.allocate_jacobian();
  euler.jacobian(last.x, jac);
  std::vector<double> vol, scale;
  euler.cell_volumes(vol);
  euler.timestep_scale(last.x, scale);
  for (int v = 0; v < nv; ++v) {
    double* blk = jac.find_block(v, v);
    for (int c = 0; c < nb; ++c)
      blk[c * nb + c] += vol[v] / (last.last_cfl * scale[v]);
  }

  // SpMV, with bytes from the paper's traffic model (perfect x reuse).
  std::vector<double> y(n);
  const double spmv_s =
      seconds_per_call([&] { jac.spmv(last.x.data(), y.data()); }, 0.5);
  perf::SpmvShape shape;
  shape.block_rows = static_cast<std::uint64_t>(jac.nrows);
  shape.blocks = jac.nblocks();
  shape.nb = nb;
  out.set("spmv_s", spmv_s)
      .set("spmv_bytes", perf::spmv_traffic(shape).total());

  // Schwarz apply with the workload's own subdomains and subdomain solver.
  const auto partition = part::kway_grow(graph_of(jac), w.ptc.num_subdomains);
  solver::SchwarzPreconditioner pc(jac, partition, w.ptc.schwarz);
  std::vector<double> rhs(n, 1.0), z(n);
  const double apply_s =
      seconds_per_call([&] { pc.apply(rhs.data(), z.data()); }, 0.5);
  const double factor_bytes = static_cast<double>(pc.factor_bytes());
  out.set("schwarz_apply_s", apply_s)
      .set("factor_bytes", factor_bytes)
      // Factor values streamed once, plus r read and z written.
      .set("schwarz_apply_bytes",
           factor_bytes + 2.0 * n * static_cast<double>(sizeof(double)));
  return out;
}

// --- host -----------------------------------------------------------------------

std::uint64_t burn(std::uint64_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Throughput of `ways` threads running the same scalar loop at once,
/// relative to one thread: `ways` on an unshared machine, ~1 when the
/// CPUs reported are time-sliced onto one core.
double effective_parallelism(int ways) {
  static std::atomic<std::uint64_t> sink{0};
  std::uint64_t iters = 1 << 20;
  for (;;) {  // size the loop to ~40 ms on one thread
    const auto t = Clock::now();
    sink += burn(iters);
    if (since(t) > 0.04) break;
    iters *= 2;
  }
  std::vector<double> one;
  for (int k = 0; k < 3; ++k) {
    const auto t = Clock::now();
    sink += burn(iters);
    one.push_back(since(t));
  }
  const auto t = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int k = 0; k < ways; ++k)
      threads.emplace_back([iters] { sink += burn(iters); });
  }
  return ways * median(one) / since(t);
}

Json host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  return Json::object()
      .set("isa", simd::isa_name())
      .set("arch", simd::target_arch())
      .set("simd_enabled", simd::enabled())
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("nproc", nproc)
      .set("exec_threads", exec::pool().num_threads())
      .set("effective_parallelism", effective_parallelism(4));
}

std::string precision_name(const Workload& w) {
  auto p = [](bool single) { return single ? "float" : "double"; };
  return std::string("reco=") + p(w.flow.reco_single_precision) +
         " factors=" + p(w.ptc.schwarz.single_precision) +
         " operator=" + p(w.ptc.matrix_single_precision);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

// --- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::stoll(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = std::stoi(v) != 0;
    else
      throw std::invalid_argument("unknown flag " + k);
  }
  return a;
}

/// The shuffle of round k >= 1 of a run: a fixed function of (seed, k), so
/// the same seed gives the same inputs, while the rounds of one run average
/// over several as-delivered orders. Negative seed: no shuffle.
std::optional<unsigned> round_shuffle(long long seed, long k) {
  if (seed < 0) return std::nullopt;
  std::uint64_t z = static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(k);  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<unsigned>(z ^ (z >> 31));
}

constexpr int kSetupsPerRound = 3;

int run(const Args& a) {
  const Workload w = make_workload(a.workload);
  Json out = Json::object();
  out.set("workload", a.workload)
      .set("seed", a.seed)
      .set("trace", a.trace)
      .set("rtol", w.ptc.rtol)
      .set("host", host_json().set("precision", precision_name(w)));

  // A fixed number of rounds for the workload and --seconds, so that the
  // work, and with it the peak memory, repeats from run to run. Each round
  // sets up its own mesh, then solves on it; traced runs solve untraced and
  // then traced, so both see the same input and machine state.
  const int per_round = a.trace ? 2 : 1;
  const auto rounds = std::max(
      1L, std::lround(a.seconds / (per_round * w.nominal_solve_s)));
  Json setups = Json::array();
  Json solves = Json::array();
  std::unique_ptr<Setup> s;
  SolveOutcome last;
  for (long k = 0; k < rounds; ++k) {
    // Round 0 keeps the generator's own order, the same in every run: the
    // first solve in a process grows the heap, and its layout decides much
    // of the run's peak memory. Several set-ups per round, since one is
    // short enough for a noisy moment to dominate it; the round solves on
    // the last.
    for (int i = 0; i < kSetupsPerRound; ++i) {
      s.reset();  // free the previous mesh first
      s = set_up(w, k == 0 ? std::nullopt : round_shuffle(a.seed, k));
      setups.push(Json::object()
                      .set("generate_s", s->generate_s)
                      .set("ordering_s", s->ordering_s)
                      .set("geometry_s", s->geometry_s)
                      .set("initial_s", s->initial_s)
                      .set("total_s", s->total_s()));
    }
    for (bool traced : {false, true}) {
      if (traced && !a.trace) continue;
      last = solve(w, *s, traced);
      solves.push(
          std::move(last.record.set("round", static_cast<long long>(k))));
    }
  }
  out.set("setups", std::move(setups)).set("solves", std::move(solves));

  if (a.trace) {
    out.set("fold_error", perfbench::self_test_fold());
    out.set("probe", probe(w, *s, last));
    out.set("stream_triad_gbs", perf::run_stream().triad_mbs * 1e-3);
  }
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
