// Fault-isolated scenario fleet under a seeded fault storm: the serving
// campaign behind the paper's "many configurations, one mesh" methodology
// run as a resident service.
//
// A >= 64-scenario Mach x AoA x mesh-class sweep is served three ways:
//
//   clean         no injected faults, journal on. Gates the fleet's
//                 serving overhead: wall time within 10% of the same
//                 batch served with every robustness layer off (median
//                 of alternating bare/journaled pairs).
//   storm-none    seeded fault storm (fragile knob sets, poison work
//                 budgets, straggler delays), retry ladder DISABLED
//                 (one strike). Fragile scenarios die alongside poison.
//   storm-ladder  same storm, full retry/backoff ladder + quarantine.
//                 Must complete 100% of non-poison scenarios and
//                 quarantine 100% of injected poison.
//
// Plus two robustness probes: a mid-batch kill-and-restart (journal
// replay must lose nothing and double-commit nothing) and a determinism
// re-run (bit-identical per-scenario solution CRCs, identical
// quarantine set).
//
// Writes BENCH_fleet.json (f3d-bench-v1 envelope); the gates set the exit
// status and are written as series.gates.
//
// Usage: bench_fleet [-vertices 220] [-workers 4] [-out BENCH_fleet.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fleet/journal.hpp"
#include "fleet/service.hpp"
#include "fleet/spec.hpp"

namespace {

using namespace f3d;

fleet::BatchSpec make_sweep(int vertices) {
  char text[512];
  std::snprintf(text, sizeof(text), R"({
    "schema": "f3d-fleet-batch-v1",
    "name": "storm-sweep",
    "seed": 3,
    "defaults": {"rtol": 1e-4, "max_steps": 80},
    "sweep": {"vertices": [%d, %d],
              "mach": [0.2, 0.28, 0.34, 0.4],
              "alpha_deg": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]}
  })",
                vertices, vertices + vertices / 2);
  return fleet::BatchSpec::parse(text);
}

struct Storm {
  std::set<int> fragile;  ///< bad knob configs (rung 1 recovers them)
  std::set<int> poison;   ///< hopeless budgets (nothing recovers them)
  std::set<int> straggle; ///< injected worker delay
};

/// Seeded storm: every 7th scenario gets a knob set its registry rejects,
/// every 11th a work budget no configuration can converge under, every
/// 5th a straggler delay. Deterministic in the spec alone.
Storm inject_storm(fleet::BatchSpec& spec) {
  Storm storm;
  for (auto& sc : spec.scenarios) {
    if (sc.id % 11 == 3) {
      sc.work_units = 5;
      storm.poison.insert(sc.id);
    } else if (sc.id % 7 == 1) {
      sc.knobs = obs::Json::object();
      sc.knobs.set("ptc.no_such_knob", 1.0);
      storm.fragile.insert(sc.id);
    }
    if (sc.id % 5 == 2) {
      sc.delay_ms = 5;
      storm.straggle.insert(sc.id);
    }
  }
  return storm;
}

struct Lane {
  std::string name;
  int completed = 0;
  int quarantined = 0;
  double wall_s = 0;
  double scenarios_per_hour = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
};

Lane summarize(const std::string& name, const fleet::BatchResult& res) {
  Lane lane;
  lane.name = name;
  lane.completed = res.committed;
  lane.quarantined = res.quarantined;
  lane.wall_s = res.wall_s;
  lane.scenarios_per_hour =
      res.wall_s > 0 ? static_cast<double>(res.committed) * 3600.0 / res.wall_s
                     : 0;
  std::vector<double> lat;
  for (const auto& sc : res.scenarios)
    if (!sc.replayed && sc.wall_s > 0) lat.push_back(sc.wall_s);
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    lane.p50_latency_s = lat[lat.size() / 2];
    lane.p99_latency_s = lat[std::min(
        lat.size() - 1, static_cast<std::size_t>(0.99 * static_cast<double>(
                                                            lat.size())))];
  }
  return lane;
}

obs::Json lane_json(const Lane& lane) {
  obs::Json j = obs::Json::object();
  j.set("name", lane.name)
      .set("completed", static_cast<long long>(lane.completed))
      .set("quarantined", static_cast<long long>(lane.quarantined))
      .set("wall_s", lane.wall_s)
      .set("scenarios_per_hour", lane.scenarios_per_hour)
      .set("p50_latency_s", lane.p50_latency_s)
      .set("p99_latency_s", lane.p99_latency_s);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 220);
  const int workers = opts.get_int("workers", 4);
  const std::string out_path = opts.get_string("out", "BENCH_fleet.json");
  const std::string journal_path = out_path + ".journal";

  benchutil::print_header(
      "Fault-isolated scenario fleet - journaled serving under a storm",
      "three lanes: clean overhead, storm without mitigation, storm with "
      "the full retry/quarantine ladder; plus kill-and-restart and "
      "determinism probes");

  const fleet::BatchSpec clean_spec = make_sweep(vertices);
  fleet::BatchSpec storm_spec = clean_spec;
  const Storm storm = inject_storm(storm_spec);
  const int n = static_cast<int>(clean_spec.scenarios.size());
  const int poison = static_cast<int>(storm.poison.size());
  std::printf("sweep: %d scenarios, storm: %d fragile, %d poison, %d "
              "stragglers, %d workers\n\n",
              n, static_cast<int>(storm.fragile.size()), poison,
              static_cast<int>(storm.straggle.size()), workers);

  fleet::FleetOptions base;
  base.workers = workers;
  base.backoff_base_ms = 0;

  // --- lane 0 (reference): every robustness layer off ----------------------
  // No journal, one strike, no admission: the cheapest possible serve of
  // the same batch, which the clean lane's overhead is measured against.
  // The clean lane reports its fastest serve.
  fleet::BatchResult clean_res;
  clean_res.wall_s = 1e99;
  const auto overhead = benchutil::paired_ratio(
      [&] {
        auto o = base;
        o.max_attempts = 1;
        fleet::Service svc(o);
        return svc.serve(clean_spec).wall_s;
      },
      [&] {
        auto o = base;
        o.journal_path = journal_path;
        fleet::Service svc(o);
        auto res = svc.serve(clean_spec);
        const double wall = res.wall_s;
        if (wall < clean_res.wall_s) clean_res = std::move(res);
        return wall;
      });
  const double overhead_frac = overhead.median - 1.0;
  const Lane clean = summarize("clean", clean_res);
  std::printf("clean: %d/%d committed, %.3f s; overhead over bare serving "
              "(median of %zu alternating pairs) %.1f %%\n",
              clean.completed, n, clean.wall_s, overhead.ratios.size(),
              100.0 * overhead_frac);

  // --- storm lanes ---------------------------------------------------------
  fleet::BatchResult storm_none_res, storm_ladder_res;
  {
    auto o = base;
    o.max_attempts = 1;  // mitigation off: one strike and you're out
    fleet::Service svc(o);
    storm_none_res = svc.serve(storm_spec);
  }
  {
    auto o = base;
    o.journal_path = journal_path;
    o.max_attempts = 3;
    o.backoff_base_ms = 1;
    fleet::Service svc(o);
    storm_ladder_res = svc.serve(storm_spec);
  }
  const Lane storm_none = summarize("storm-none", storm_none_res);
  const Lane storm_ladder = summarize("storm-ladder", storm_ladder_res);

  int poison_quarantined = 0;
  std::set<int> ladder_quarantine_set;
  for (const auto& sc : storm_ladder_res.scenarios) {
    if (sc.status == fleet::ScenarioStatus::kQuarantined) {
      ladder_quarantine_set.insert(sc.id);
      if (storm.poison.count(sc.id) != 0) ++poison_quarantined;
    }
  }
  const double non_poison_completed_frac =
      static_cast<double>(storm_ladder.completed) /
      static_cast<double>(n - poison);

  Table tab({"lane", "committed", "quarantined", "wall s", "scen/h",
             "p50 s", "p99 s"});
  for (const Lane* lane :
       {static_cast<const Lane*>(&clean), &storm_none, &storm_ladder})
    tab.add_row({lane->name, std::to_string(lane->completed),
                 std::to_string(lane->quarantined),
                 Table::num(lane->wall_s, 3),
                 Table::num(lane->scenarios_per_hour, 0),
                 Table::num(lane->p50_latency_s, 4),
                 Table::num(lane->p99_latency_s, 4)});
  tab.print();

  // --- kill-and-restart probe ----------------------------------------------
  const int kill_after = n / 3;
  int lost = 0, double_committed = 0, resumed_completed = 0;
  {
    auto o = base;
    o.journal_path = journal_path;
    o.max_attempts = 3;
    o.kill_after_commits = kill_after;
    fleet::Service svc(o);
    const auto before = svc.serve(storm_spec);
    std::set<int> committed_before;
    for (const auto& sc : before.scenarios)
      if (sc.status == fleet::ScenarioStatus::kCommitted)
        committed_before.insert(sc.id);

    auto r = base;
    r.journal_path = journal_path;
    r.max_attempts = 3;
    r.resume = true;
    fleet::Service resume_svc(r);
    const auto after = resume_svc.serve(storm_spec);
    resumed_completed = after.committed;
    for (const auto& sc : after.scenarios) {
      if (sc.status == fleet::ScenarioStatus::kPending) ++lost;
      // A scenario committed before the kill must come back replayed
      // from the journal, never re-solved.
      if (committed_before.count(sc.id) != 0 && !sc.replayed)
        ++double_committed;
    }
    std::printf("\nkill/restart: killed after %d commits -> resumed to "
                "%d committed, %d lost, %d double-committed\n",
                kill_after, resumed_completed, lost, double_committed);
  }

  // --- determinism probe ---------------------------------------------------
  bool deterministic = true;
  {
    fleet::Service a(base), b(base);
    const auto ra = a.serve(clean_spec);
    const auto rb = b.serve(clean_spec);
    for (int i = 0; i < n; ++i)
      deterministic &= ra.scenarios[static_cast<std::size_t>(i)].solution_crc ==
                       rb.scenarios[static_cast<std::size_t>(i)].solution_crc;
    // And the storm quarantine set reproduces exactly.
    auto o = base;
    o.max_attempts = 3;
    fleet::Service c(o);
    const auto rc = c.serve(storm_spec);
    std::set<int> qset;
    for (const auto& sc : rc.scenarios)
      if (sc.status == fleet::ScenarioStatus::kQuarantined)
        qset.insert(sc.id);
    deterministic &= qset == ladder_quarantine_set;
  }

  // --- gates ---------------------------------------------------------------
  // Full ladder completion plus exact poison quarantine together mean
  // every non-poison scenario committed.
  benchutil::Gates gates;
  gates.check("scenarios", n, ">=", 64);
  gates.check("non_poison_completed_frac_ladder", non_poison_completed_frac,
              "==", 1);
  gates.check("poison_injected", poison, ">=", 1);
  gates.check("poison_quarantined", poison_quarantined, "==", poison);
  gates.check("fragile_injected", storm.fragile.size(), ">=", 1);
  gates.check("lanes.storm-none.completed", storm_none.completed, "<",
              storm_ladder.completed);
  gates.check("kill_restart.killed_after", kill_after, ">=", 1);
  gates.check("kill_restart.lost", lost, "==", 0);
  gates.check("kill_restart.double_committed", double_committed, "==", 0);
  gates.check("overhead_frac", overhead_frac, "<=", 0.10);
  gates.check("deterministic_rerun", deterministic);
  gates.print();

  // --- report --------------------------------------------------------------
  obs::Json lanes = obs::Json::array();
  lanes.push(lane_json(clean));
  lanes.push(lane_json(storm_none));
  lanes.push(lane_json(storm_ladder));
  obs::Json kill = obs::Json::object();
  kill.set("killed_after", static_cast<long long>(kill_after))
      .set("lost", static_cast<long long>(lost))
      .set("double_committed", static_cast<long long>(double_committed))
      .set("resumed_completed", static_cast<long long>(resumed_completed));
  benchutil::Json series =
      obs::Json::object()
          .set("scenarios", static_cast<long long>(n))
          .set("workers", static_cast<long long>(workers))
          .set("lanes", std::move(lanes))
          .set("poison_injected", static_cast<long long>(poison))
          .set("poison_quarantined",
               static_cast<long long>(poison_quarantined))
          .set("fragile_injected",
               static_cast<long long>(storm.fragile.size()))
          .set("non_poison_completed_frac_ladder", non_poison_completed_frac)
          .set("kill_restart", std::move(kill))
          .set("overhead_frac", overhead_frac)
          .set("overhead_pair_ratios", [&] {
            obs::Json a = obs::Json::array();
            for (double r : overhead.ratios) a.push(r);
            return a;
          }())
          .set("deterministic_rerun", deterministic);
  benchutil::write_json(out_path, series, gates);
  std::remove(journal_path.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return gates.exit_status();
}
