// Fail-slow mitigation ladder: efficiency recovered per rung, measured
// against an oracle that knows the slow rank.
//
// Sweep fault pattern (persistent straggler, noisy-neighbor jitter,
// degraded NIC) x severity x mitigation policy over seeded campaigns on
// the virtual parallel machine. Every arm of a sweep faces the identical
// fault sequence (the injector draws all fail-slow sites every step,
// armed or not), so arm differences are pure policy effects. Each
// (pattern, severity, seed) cell is normalized by two reference runs:
//
//   none    the control arm - detect and log, never mitigate,
//   oracle  a scheduler that knew the sick resource before step 0 and
//           placed work around it: the fault-free campaign time.
//
//   recovered = (t_none - t_policy) / (t_none - t_oracle)
//
// is the fraction of the wall clock lost to the fault that the ladder
// claws back (0 = as bad as ignoring it, 1 = as good as clairvoyance).
// The paper's performance-model discipline applied to degraded machines:
// the same alpha-beta step model that predicts healthy performance
// predicts the straggler tax and what each mitigation rung buys back.
//
// Writes BENCH_failslow.json (f3d-bench-v1 envelope). Gates (exit status
// and series.gates): the full ladder recovers >= 50% of the efficiency
// lost to a 4x persistent straggler, and the detector raises zero false
// positives across every clean campaign (all policies x seeds).
//
// Usage: bench_failslow [-procs 16] [-steps 400] [-seeds 3] [-vertices 3000]
//                       [-out BENCH_failslow.json]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "par/distres.hpp"
#include "par/failslow.hpp"
#include "partition/partition.hpp"
#include "perf/machine.hpp"
#include "resilience/faults.hpp"

namespace {

using namespace f3d;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;

struct Injection {
  FaultSite site = FaultSite::kSlowRank;
  double magnitude = 1.0;
  int rank = 0;
  int at_step = 0;
  bool persistent_refire = false;  ///< re-fire every step (kJitter pattern)
};

struct Rig {
  mesh::Graph graph;
  par::CampaignDomain domain;
  par::WorkCoefficients work;
  perf::MachineModel machine = perf::asci_red();
  std::vector<par::StepCounts> steps;
  int procs = 0;

  Rig(int procs_, int nsteps, int vertices) : procs(procs_) {
    auto m = mesh::generate_wing_mesh_with_size(vertices);
    graph = mesh::build_graph(m.num_vertices(), m.edges());
    domain = par::make_domain(graph, part::kway_grow(graph, procs));
    work.sparse_bytes_per_vertex_it = 1200;
    work.sparse_flops_per_vertex_it = 300;
    steps.assign(static_cast<std::size_t>(nsteps), par::StepCounts{});
  }

  /// One campaign. `inject == nullptr` runs fault-free (the oracle arm).
  par::CampaignResult run(par::SlowMitigation policy, const Injection* inject,
                          std::uint64_t seed) const {
    FaultInjector inj(seed);
    if (inject != nullptr) {
      // Draw s*P + r of a fail-slow site is (step s, rank r) - the
      // campaign draws each site once per alive rank per step.
      FaultPlan plan;
      plan.skip_first = inject->at_step * procs + inject->rank;
      plan.fire_every = inject->persistent_refire ? procs : 1;
      plan.max_fires = inject->persistent_refire ? (1 << 30) : 1;
      plan.magnitude = inject->magnitude;
      inj.arm(inject->site, plan);
    }
    par::CampaignOptions o;
    o.policy = par::RecoveryPolicy::kSpareRank;
    o.spare_ranks = 4;
    o.checkpoint_interval = 20;
    o.comm = par::CommReliability{};
    o.slow_mitigation = policy;
    o.injector = &inj;
    return par::simulate_campaign(machine, domain, work, steps, o);
  }
};

struct Cell {
  std::string pattern;
  double severity = 0;
  par::SlowMitigation policy = par::SlowMitigation::kNone;
  double seconds = 0;        ///< summed over seeds
  double none_seconds = 0;   ///< control arm, summed over the same seeds
  double oracle_seconds = 0;
  int confirmed = 0;
  int detect_latency = 0;  ///< worst over seeds
  int halo_timeouts = 0;
  int repartitions = 0;
  int quarantined = 0;
  int retunes = 0;
  [[nodiscard]] double recovered() const {
    const double lost = none_seconds - oracle_seconds;
    return lost > 1e-9 ? (none_seconds - seconds) / lost : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int procs = opts.get_int("procs", 16);
  const int nsteps = opts.get_int("steps", 400);
  const int nseeds = opts.get_int("seeds", 3);
  const int vertices = opts.get_int("vertices", 3000);
  const std::string out_path = opts.get_string("out", "BENCH_failslow.json");

  benchutil::print_header(
      "Fail-slow tolerance - mitigation ladder vs slow-rank oracle",
      "recovered = (t_none - t_policy) / (t_none - t_oracle); ladder rungs "
      "retry -> repartition -> quarantine");

  Rig rig(procs, nsteps, vertices);
  const int num_vertices = static_cast<int>(rig.graph.ptr.size()) - 1;
  std::printf("%d vertices, %d ranks, %d steps x %d seeds\n\n",
              num_vertices, procs, nsteps, nseeds);

  // The three fail-slow signatures, three severities each. Severity is
  // the site magnitude: a compute slowdown factor (>= 1), the jitter
  // sigma (uniform per-step stretch in [0, sigma]), or the surviving
  // link bandwidth fraction (in (0, 1]; the auto-armed halo timeout
  // trips below 1/4).
  struct Pattern {
    const char* name;
    FaultSite site;
    bool persistent_refire;
    std::vector<double> severities;
  };
  const std::vector<Pattern> patterns = {
      {"straggler", FaultSite::kSlowRank, false, {2.0, 4.0, 8.0}},
      {"jitter", FaultSite::kJitter, true, {1.0, 2.0, 4.0}},
      {"degraded-link", FaultSite::kDegradedLink, false, {0.5, 0.2, 0.1}},
  };
  const std::vector<par::SlowMitigation> policies = {
      par::SlowMitigation::kNone, par::SlowMitigation::kRetry,
      par::SlowMitigation::kRepartition, par::SlowMitigation::kQuarantine};

  // Oracle arm: fault-free, one per seed (pattern-independent).
  std::vector<double> oracle_s(static_cast<std::size_t>(nseeds) + 1, 0.0);
  double oracle_total = 0;
  for (int seed = 1; seed <= nseeds; ++seed) {
    const auto r = rig.run(par::SlowMitigation::kNone, nullptr,
                           static_cast<std::uint64_t>(seed));
    oracle_s[static_cast<std::size_t>(seed)] = r.total_seconds();
    oracle_total += r.total_seconds();
  }

  std::vector<Cell> cells;
  double gate_recovered = 0;  ///< full ladder at the 4x straggler
  for (const auto& pat : patterns) {
    for (double severity : pat.severities) {
      // Control arm first: the same seeds every policy sees.
      std::vector<double> none_s(static_cast<std::size_t>(nseeds) + 1, 0.0);
      for (const auto policy : policies) {
        Cell cell;
        cell.pattern = pat.name;
        cell.severity = severity;
        cell.policy = policy;
        cell.oracle_seconds = oracle_total;
        for (int seed = 1; seed <= nseeds; ++seed) {
          Injection inject;
          inject.site = pat.site;
          inject.magnitude = severity;
          // Vary the victim and the onset with the seed.
          inject.rank = 1 + (3 * seed) % (procs - 1);
          inject.at_step = 4 + 2 * seed;
          inject.persistent_refire = pat.persistent_refire;
          const auto r =
              rig.run(policy, &inject, static_cast<std::uint64_t>(seed));
          cell.seconds += r.total_seconds();
          if (policy == par::SlowMitigation::kNone)
            none_s[static_cast<std::size_t>(seed)] = r.total_seconds();
          cell.none_seconds += none_s[static_cast<std::size_t>(seed)];
          cell.confirmed += r.slow_confirmed;
          cell.detect_latency =
              std::max(cell.detect_latency, r.slow_detect_latency_steps);
          cell.halo_timeouts += r.sim.aggregate.halo_timeouts;
          cell.repartitions += r.weighted_repartitions;
          cell.quarantined += r.slow_quarantined;
          cell.retunes += r.checkpoint_retunes;
        }
        if (pat.site == FaultSite::kSlowRank && severity == 4.0 &&
            policy == par::SlowMitigation::kQuarantine)
          gate_recovered = cell.recovered();
        cells.push_back(cell);
      }
    }
  }

  Table tab({"pattern", "severity", "policy", "t (s)", "recovered",
             "confirmed", "latency", "timeouts", "reparts", "quarantine"});
  for (const auto& c : cells)
    tab.add_row({c.pattern, Table::num(c.severity, 2),
                 par::slow_mitigation_name(c.policy),
                 Table::num(c.seconds / nseeds, 3),
                 Table::num(100.0 * c.recovered(), 1) + " %",
                 std::to_string(c.confirmed), std::to_string(c.detect_latency),
                 std::to_string(c.halo_timeouts),
                 std::to_string(c.repartitions),
                 std::to_string(c.quarantined)});
  tab.print();
  std::printf("\noracle (fault-free) campaign: %.3f s avg\n",
              oracle_total / nseeds);

  // --- false positives: clean campaigns, every policy armed ----------------
  int clean_runs = 0, false_positives = 0;
  for (const auto policy : policies) {
    for (int seed = 1; seed <= nseeds; ++seed) {
      const auto r =
          rig.run(policy, nullptr, static_cast<std::uint64_t>(seed));
      ++clean_runs;
      if (r.slow_suspected > 0 || r.slow_confirmed > 0) ++false_positives;
    }
  }

  benchutil::Gates gates;
  gates.check("ladder_recovered_4x_straggler", gate_recovered, ">=", 0.5);
  gates.check("false_positives", false_positives, "==", 0);
  gates.check("clean_runs", clean_runs, ">=", 1);
  gates.print();

  benchutil::Json sweep = benchutil::Json::array();
  for (const auto& c : cells)
    sweep.push(
        benchutil::Json::object()
            .set("pattern", benchutil::Json(c.pattern))
            .set("severity", benchutil::Json(c.severity))
            .set("policy", benchutil::Json(
                               std::string(par::slow_mitigation_name(c.policy))))
            .set("seconds", benchutil::Json(c.seconds / nseeds))
            .set("none_seconds", benchutil::Json(c.none_seconds / nseeds))
            .set("oracle_seconds", benchutil::Json(c.oracle_seconds / nseeds))
            .set("recovered_frac", benchutil::Json(c.recovered()))
            .set("slow_confirmed",
                 benchutil::Json(static_cast<long long>(c.confirmed)))
            .set("detect_latency_steps",
                 benchutil::Json(static_cast<long long>(c.detect_latency)))
            .set("halo_timeouts",
                 benchutil::Json(static_cast<long long>(c.halo_timeouts)))
            .set("weighted_repartitions",
                 benchutil::Json(static_cast<long long>(c.repartitions)))
            .set("quarantined",
                 benchutil::Json(static_cast<long long>(c.quarantined)))
            .set("checkpoint_retunes",
                 benchutil::Json(static_cast<long long>(c.retunes))));

  benchutil::Json series =
      benchutil::Json::object()
          .set("procs", benchutil::Json(static_cast<long long>(procs)))
          .set("steps", benchutil::Json(static_cast<long long>(nsteps)))
          .set("seeds", benchutil::Json(static_cast<long long>(nseeds)))
          .set("vertices", benchutil::Json(
                               static_cast<long long>(num_vertices)))
          .set("oracle_seconds", benchutil::Json(oracle_total / nseeds))
          .set("sweep", std::move(sweep))
          .set("ladder_recovered_4x_straggler", benchutil::Json(gate_recovered))
          .set("clean_runs",
               benchutil::Json(static_cast<long long>(clean_runs)))
          .set("false_positives",
               benchutil::Json(static_cast<long long>(false_positives)));
  benchutil::write_json(out_path, series, gates);
  std::printf("wrote %s\n", out_path.c_str());
  return gates.exit_status();
}
