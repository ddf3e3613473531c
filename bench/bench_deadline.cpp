// Run-to-completion guarantees under deadline pressure: the f3d::guard
// oracle campaign.
//
// Three lanes over real psi-NKS solves on a wing mesh:
//
//   on-time   budget x scenario-hardness x policy sweep. Each scenario is
//             first calibrated unbounded (its clean cost U in guard work
//             units), then re-run under budgets that are fractions of U,
//             with the graceful-degradation ladder off (baseline) and on.
//             A run is ON TIME when it converges to the scenario's outer
//             tolerance within the budget; the ladder trades linear-solve
//             accuracy and Jacobian freshness for exactly that.
//   watchdog  the livelock detector must stay silent on every clean
//             converging scenario (zero false positives — it is wall-
//             clock-free and deterministic by design) and must fire on
//             the stall scenario (an unreachable tolerance that plateaus
//             at the residual floor).
//   cancel    cooperative cancellation armed mid-solve at deterministic
//             work units, swept over 1/2/4 pool threads. Measured p99
//             latency (work units charged after the trip) must stay
//             under guard::kCancelLatencyBoundUnits, and the returned
//             best-committed state must hash bit-identically at every
//             thread count.
//
// Writes BENCH_deadline.json (f3d-bench-v1 envelope); the gates set the
// exit status and are written as series.gates.
//
// Usage: bench_deadline [-vertices 400] [-out BENCH_deadline.json]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cfd/problem.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "exec/pool.hpp"
#include "guard/guard.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "solver/newton.hpp"

namespace {

using namespace f3d;

struct Scenario {
  const char* name;
  double cfl0;
  double rtol;
  int max_steps;
};

// Hardness = how far the continuation has to carry the solve: a timid
// initial CFL means many more pseudo-timesteps (and work units) to the
// same tolerance.
const std::vector<Scenario> kScenarios = {
    {"easy", 8.0, 1e-8, 100},
    {"medium", 2.5, 1e-8, 150},
    {"hard", 1.0, 1e-9, 250},
};

struct Rig {
  mesh::UnstructuredMesh mesh;

  explicit Rig(int vertices)
      : mesh(mesh::generate_wing_mesh_with_size(vertices)) {
    mesh::apply_best_ordering(mesh);
  }

  solver::PtcResult run(const Scenario& sc, const solver::PtcGuardOptions& g,
                        std::vector<double>* x_out = nullptr) const {
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 1;
    cfd::EulerDiscretization disc(mesh, cfg);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    solver::PtcOptions o;
    o.cfl0 = sc.cfl0;
    o.rtol = sc.rtol;
    o.max_steps = sc.max_steps;
    o.num_subdomains = 2;
    o.schwarz.fill_level = 1;
    o.guard = g;
    auto res = solver::ptc_solve(prob, x, o);
    if (x_out != nullptr) *x_out = x;
    return res;
  }
};

/// The progress watchdog's verdict, read from the solve's recovery log.
bool stalled(const solver::PtcResult& res) {
  return res.recovery_log.count(resilience::RecoveryAction::kDetectStall) > 0;
}

std::uint64_t fnv1a(const std::vector<double>& x) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct SweepCell {
  std::string scenario;
  double budget_frac = 0;
  bool ladder = false;
  guard::SolveVerdict verdict = guard::SolveVerdict::kMaxIters;
  bool on_time = false;
  long long budget_units = 0;
  long long work_units = 0;
  double drop_orders = 0;
  int degrade_rungs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 400);
  const std::string out_path = opts.get_string("out", "BENCH_deadline.json");

  benchutil::print_header(
      "Run-to-completion guarantees - budgets, cancellation, degradation",
      "on-time = converged within the work budget; ladder trades linear "
      "accuracy + Jacobian freshness for on-time completion");

  Rig rig(vertices);
  std::printf("mesh: %d vertices\n\n", rig.mesh.num_vertices());

  // --- calibration: clean unbounded cost per scenario ----------------------
  struct Calibration {
    long long units = 0;
    int steps = 0;
    double drop_orders = 0;
  };
  std::vector<Calibration> cal;
  for (const auto& sc : kScenarios) {
    const auto res = rig.run(sc, {});
    if (res.verdict != guard::SolveVerdict::kConverged) {
      std::printf("FATAL: clean scenario '%s' did not converge (%s)\n",
                  sc.name, guard::verdict_name(res.verdict));
      return 1;
    }
    cal.push_back({res.work_units, res.steps, res.residual_drop_orders});
    std::printf("calibrate %-6s  %5d steps  %8lld units  %.1f orders\n",
                sc.name, res.steps, res.work_units, res.residual_drop_orders);
  }

  // --- lane 1: budget x hardness x policy ----------------------------------
  const std::vector<double> budget_fracs = {0.9, 1.0, 1.1};
  std::vector<SweepCell> cells;
  int ladder_on_time = 0, ladder_runs = 0;
  int none_on_time = 0, none_runs = 0;
  for (std::size_t s = 0; s < kScenarios.size(); ++s) {
    for (double frac : budget_fracs) {
      for (bool ladder : {false, true}) {
        SweepCell cell;
        cell.scenario = kScenarios[s].name;
        cell.budget_frac = frac;
        cell.ladder = ladder;
        cell.budget_units =
            static_cast<long long>(frac * static_cast<double>(cal[s].units));
        solver::PtcGuardOptions g;
        g.budget.max_work_units = cell.budget_units;
        g.degrade = ladder;
        const auto res = rig.run(kScenarios[s], g);
        cell.verdict = res.verdict;
        cell.on_time = res.verdict == guard::SolveVerdict::kConverged;
        cell.work_units = res.work_units;
        cell.drop_orders = res.residual_drop_orders;
        cell.degrade_rungs =
            res.recovery_log.count(resilience::RecoveryAction::kDegradeRung);
        if (ladder) {
          ++ladder_runs;
          ladder_on_time += cell.on_time ? 1 : 0;
        } else {
          ++none_runs;
          none_on_time += cell.on_time ? 1 : 0;
        }
        cells.push_back(cell);
      }
    }
  }
  const double rate_ladder =
      static_cast<double>(ladder_on_time) / static_cast<double>(ladder_runs);
  const double rate_none =
      static_cast<double>(none_on_time) / static_cast<double>(none_runs);

  Table tab({"scenario", "budget", "ladder", "verdict", "on-time", "units",
             "budget units", "orders", "rungs"});
  for (const auto& c : cells)
    tab.add_row({c.scenario, Table::num(c.budget_frac, 2),
                 c.ladder ? "on" : "off", guard::verdict_name(c.verdict),
                 c.on_time ? "yes" : "NO", std::to_string(c.work_units),
                 std::to_string(c.budget_units), Table::num(c.drop_orders, 1),
                 std::to_string(c.degrade_rungs)});
  tab.print();
  std::printf("\non-time rate: ladder %.0f %%, baseline %.0f %%\n",
              100.0 * rate_ladder, 100.0 * rate_none);

  // --- lane 2: watchdog false positives + stall detection ------------------
  int clean_runs = 0, watchdog_false_positives = 0;
  for (const auto& sc : kScenarios) {
    solver::PtcGuardOptions g;
    g.watchdog = true;
    const auto res = rig.run(sc, g);
    ++clean_runs;
    if (stalled(res)) ++watchdog_false_positives;
  }
  Scenario stall{"stall", 20.0, 1e-300, 80};  // unreachable tolerance
  bool stall_detected;
  {
    solver::PtcGuardOptions g;
    g.watchdog = true;
    const auto res = rig.run(stall, g);
    stall_detected =
        stalled(res) && res.verdict == guard::SolveVerdict::kStagnated;
  }

  // --- lane 3: cancellation latency at 1/2/4 threads -----------------------
  const std::vector<double> arm_fracs = {0.25, 0.5, 0.75};
  struct LatencyRow {
    int threads = 0;
    long long p99 = 0;
    long long worst = 0;
    int samples = 0;
  };
  std::vector<LatencyRow> latency;
  bool hashes_consistent = true;
  const long long bound = guard::kCancelLatencyBoundUnits;
  std::vector<std::uint64_t> ref_hashes;  // per (scenario, arm), at 1 thread
  for (int nt : {1, 2, 4}) {
    exec::ThreadScope threads(nt);
    LatencyRow row;
    row.threads = nt;
    std::vector<long long> samples;
    std::size_t cell_idx = 0;
    for (std::size_t s = 0; s < kScenarios.size(); ++s) {
      for (double frac : arm_fracs) {
        guard::CancelToken tok;
        tok.cancel_at_work(static_cast<long long>(
            frac * static_cast<double>(cal[s].units)));
        solver::PtcGuardOptions g;
        g.budget.cancel = &tok;
        std::vector<double> x;
        const auto res = rig.run(kScenarios[s], g, &x);
        if (res.verdict != guard::SolveVerdict::kCancelled) {
          std::printf("FATAL: cancel arm not honored (%s, frac %.2f)\n",
                      kScenarios[s].name, frac);
          return 1;
        }
        samples.push_back(res.cancel_latency_units);
        const std::uint64_t h = fnv1a(x);
        if (nt == 1) {
          ref_hashes.push_back(h);
        } else if (h != ref_hashes[cell_idx]) {
          hashes_consistent = false;
        }
        ++cell_idx;
      }
    }
    std::sort(samples.begin(), samples.end());
    row.samples = static_cast<int>(samples.size());
    row.worst = samples.back();
    row.p99 = samples[static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(samples.size())) - 1)];
    latency.push_back(row);
    std::printf("cancel @ %d thread(s): %d samples, p99 latency %lld / "
                "bound %lld units, worst %lld\n",
                nt, row.samples, row.p99, bound, row.worst);
  }

  // --- gates ---------------------------------------------------------------
  benchutil::Gates gates;
  gates.check("on_time_rate_ladder", rate_ladder, ">=", 0.95);
  gates.check("on_time_rate_none", rate_none, "<", rate_ladder);
  gates.check("watchdog_false_positives", watchdog_false_positives, "==", 0);
  gates.check("stall_detected", stall_detected);
  gates.check("clean_runs", clean_runs, ">=", 1);
  for (const auto& row : latency)
    gates.check("cancel_latency.p99_latency_units[threads=" +
                    std::to_string(row.threads) + "]",
                row.p99, "<=", bound);
  gates.check("cancel_states_thread_invariant", hashes_consistent);
  gates.print();

  // --- report --------------------------------------------------------------
  benchutil::Json sweep = benchutil::Json::array();
  for (const auto& c : cells)
    sweep.push(benchutil::Json::object()
                   .set("scenario", benchutil::Json(c.scenario))
                   .set("budget_frac", benchutil::Json(c.budget_frac))
                   .set("ladder", benchutil::Json(c.ladder))
                   .set("verdict", benchutil::Json(std::string(
                                       guard::verdict_name(c.verdict))))
                   .set("on_time", benchutil::Json(c.on_time))
                   .set("budget_units", benchutil::Json(c.budget_units))
                   .set("work_units", benchutil::Json(c.work_units))
                   .set("residual_drop_orders", benchutil::Json(c.drop_orders))
                   .set("degrade_rungs", benchutil::Json(
                                             static_cast<long long>(
                                                 c.degrade_rungs))));

  benchutil::Json lat = benchutil::Json::array();
  for (const auto& row : latency)
    lat.push(benchutil::Json::object()
                 .set("threads", benchutil::Json(
                                     static_cast<long long>(row.threads)))
                 .set("samples", benchutil::Json(
                                     static_cast<long long>(row.samples)))
                 .set("p99_latency_units", benchutil::Json(row.p99))
                 .set("worst_latency_units", benchutil::Json(row.worst))
                 .set("bound_units", benchutil::Json(bound)));

  benchutil::Json series =
      benchutil::Json::object()
          .set("vertices", benchutil::Json(
                               static_cast<long long>(rig.mesh.num_vertices())))
          .set("sweep", std::move(sweep))
          .set("on_time_rate_ladder", benchutil::Json(rate_ladder))
          .set("on_time_rate_none", benchutil::Json(rate_none))
          .set("clean_runs", benchutil::Json(
                                 static_cast<long long>(clean_runs)))
          .set("watchdog_false_positives",
               benchutil::Json(static_cast<long long>(watchdog_false_positives)))
          .set("stall_detected", benchutil::Json(stall_detected))
          .set("cancel_latency", std::move(lat))
          .set("cancel_latency_bound_units", benchutil::Json(bound))
          .set("cancel_states_thread_invariant",
               benchutil::Json(hashes_consistent));
  benchutil::write_json(out_path, series, gates);
  std::printf("wrote %s\n", out_path.c_str());
  return gates.exit_status();
}
