// Tuned-vs-default A/B on two mesh classes: run the successive-halving
// search (tune::search over tune::SolveLab's default space), persist the
// winner to the tuning DB (f3d-tunedb-v1), reload it the way a solver
// front end would (tune::Db::load + tune::apply), verify the persisted
// entry reproduces the tuned configuration bit-identically, then
// re-measure default and tuned back-to-back.
//
// Gate (never-worse): the reported speedup (default / tuned time) must
// stay >= kNeverWorse, a timing-noise margin. The guarantee is
// structural — the search falls back to the baseline configuration when
// no proposal beats it — and the bench additionally enforces it on the
// re-measured numbers: if back-to-back timing says the "tuned" config
// regressed (noise), the cell falls back to the default config. The
// advisory `improved` gate is honest either way: a cell that kept the
// defaults carries an explanatory note instead of a fabricated speedup.
//
// Usage: bench_tune [-small 2500] [-medium 6000] [-width 8] [-rungs 2]
//                   [-seed 1] [-db build/tune_db.json]
//                   [-out BENCH_tune.json]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/timer.hpp"
#include "tune/db.hpp"
#include "tune/lab.hpp"
#include "tune/registry.hpp"
#include "tune/search.hpp"

namespace {

using namespace f3d;

// Never-worse margin for timing noise, on speedup = default / tuned time:
// below it the cell falls back to the defaults, and the gate demands it.
constexpr double kNeverWorse = 0.98;

struct Cell {
  std::string mesh_class;
  int vertices = 0;
  double default_seconds = 0;
  double tuned_seconds = 0;
  double speedup = 1.0;
  int trials = 0;
  int rejected = 0;
  bool improved = false;
  bool db_roundtrip_identical = false;
  std::string note;  ///< why the defaults were kept (improved == false)
  obs::Json tuned_config;
};

// Median-of-3 timed evaluations of the registry's current config.
double measure(tune::SolveLab& lab, int fidelity) {
  std::vector<double> walls;
  for (int r = 0; r < 3; ++r) {
    auto outcome = lab.evaluate(fidelity);
    F3D_CHECK_MSG(outcome.ok, "measurement config failed gates: " + outcome.note);
    walls.push_back(outcome.wall_seconds);
  }
  std::sort(walls.begin(), walls.end());
  return walls[1];
}

Cell run_class(int vertices, const tune::SearchOptions& sopts,
               const std::string& db_path) {
  tune::SolveLab lab(vertices);
  tune::Registry& reg = lab.registry();
  Cell cell;
  cell.vertices = lab.num_vertices();
  cell.mesh_class = lab.db_key().mesh_class;

  const int final_fidelity = sopts.halving_rungs - 1;
  const obs::Json default_config = reg.to_json();

  std::printf("\n-- %s (%d vertices): %s search, width %d, %d rungs\n",
              cell.mesh_class.c_str(), cell.vertices,
              tune::kSearchStrategy, sopts.halving_width,
              sopts.halving_rungs);

  auto result = tune::search(reg, tune::SolveLab::default_search_space(),
                             lab.evaluator(), sopts);
  cell.trials = result.evaluations;
  cell.rejected = result.rejected;
  std::printf("   search: %d evaluations (%d gate-rejected), improved=%s\n",
              result.evaluations, result.rejected,
              result.improved ? "yes" : "no");
  if (!result.note.empty())
    std::printf("   search note: %s\n", result.note.c_str());

  // Persist the winner and reload it the way a solver front end would.
  tune::Db db = tune::Db::load(db_path);
  tune::DbEntry entry;
  entry.key = lab.db_key();
  entry.config = result.best_config;
  entry.score = result.best_score;
  entry.baseline_score = result.baseline_score;
  entry.strategy = tune::kSearchStrategy;
  entry.evaluations = result.evaluations;
  db.put(entry);
  F3D_CHECK_MSG(db.save(db_path), "cannot write tuning DB " + db_path);

  tune::SolveLab lab2(vertices);
  tune::Db reloaded = tune::Db::load(db_path);
  F3D_CHECK_MSG(reloaded.ok(), "tuning DB failed to reload: " + reloaded.note());
  std::string apply_note;
  const bool applied =
      tune::apply(lab2.registry(), reloaded, lab2.db_key(), &apply_note);
  F3D_CHECK_MSG(applied, "tuning DB apply failed: " + apply_note);
  cell.db_roundtrip_identical =
      lab2.registry().to_json().dump() == result.best_config.dump();
  std::printf("   db round-trip bit-identical: %s\n",
              cell.db_roundtrip_identical ? "yes" : "NO");

  // Back-to-back default-vs-tuned re-measure on the reloaded lab.
  lab2.registry().from_json(default_config);
  cell.default_seconds = measure(lab2, final_fidelity);
  lab2.registry().from_json(result.best_config);
  cell.tuned_seconds = measure(lab2, final_fidelity);
  cell.improved = result.improved;
  cell.tuned_config = result.best_config;

  // Never-worse enforcement on the measured numbers: a regression past
  // the noise margin means the search win did not survive re-measurement
  // — fall back to the default config, honestly annotated.
  if (cell.default_seconds < kNeverWorse * cell.tuned_seconds) {
    cell.note = "tuned config regressed on re-measurement (" +
                std::to_string(cell.tuned_seconds) + "s vs " +
                std::to_string(cell.default_seconds) +
                "s); fell back to compiled defaults";
    cell.tuned_seconds = cell.default_seconds;
    cell.tuned_config = default_config;
    cell.improved = false;
  } else if (!result.improved) {
    cell.note = result.note.empty()
                    ? "search found no config beating the defaults; "
                      "baseline returned"
                    : result.note;
  }
  cell.speedup = cell.tuned_seconds > 0
                     ? cell.default_seconds / cell.tuned_seconds
                     : 1.0;
  std::printf("   default %.3fs   tuned %.3fs   speedup %.2fx%s\n",
              cell.default_seconds, cell.tuned_seconds, cell.speedup,
              cell.improved ? "" : "  (defaults retained)");
  return cell;
}

obs::Json cell_json(const Cell& c) {
  obs::Json j = obs::Json::object();
  j.set("mesh_class", c.mesh_class)
      .set("vertices", c.vertices)
      .set("default_seconds", c.default_seconds)
      .set("tuned_seconds", c.tuned_seconds)
      .set("speedup", c.speedup)
      .set("trials", c.trials)
      .set("rejected", c.rejected)
      .set("improved", c.improved)
      .set("db_roundtrip_identical", c.db_roundtrip_identical)
      .set("tuned_config", c.tuned_config);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string out_path = opts.get_string("out", "BENCH_tune.json");
  const std::string db_path = opts.get_string("db", "build/tune_db.json");

  benchutil::print_header(
      "bench_tune: self-tuning solver, tuned vs compiled defaults",
      "the paper's whole arc — layout (Table 1), precision (Table 2), "
      "Schwarz quality (Table 4), restart/inexactness (2.4.2), CFL "
      "continuation (2.4.1) — searched automatically under correctness "
      "gates");

  tune::SearchOptions sopts;
  sopts.seed = opts.get_uint64("seed", 1);
  sopts.halving_width = opts.get_int("width", 8);
  sopts.halving_rungs = opts.get_int("rungs", 2);

  std::vector<Cell> cells;
  cells.push_back(run_class(opts.get_int("small", 2500), sopts, db_path));
  cells.push_back(run_class(opts.get_int("medium", 6000), sopts, db_path));

  obs::Json series = obs::Json::object();
  obs::Json arr = obs::Json::array();
  benchutil::Gates gates;
  for (const auto& c : cells) {
    arr.push(cell_json(c));
    const std::string cell = "mesh_classes." + c.mesh_class + ".";
    gates.check(cell + "speedup", c.speedup, ">=", kNeverWorse);
    gates.check(cell + "db_roundtrip_identical", c.db_roundtrip_identical);
    gates.advisory(cell + "improved", c.improved, c.note);
  }
  series.set("mesh_classes", std::move(arr))
      .set("db_schema", tune::kTuneDbSchema)
      .set("db_path", db_path)
      .set("search_strategy", tune::kSearchStrategy)
      .set("search_seed", static_cast<long long>(sopts.seed));
  gates.print();

  benchutil::write_json(out_path, series, gates);
  std::printf("\nwrote %s and %s\n", out_path.c_str(), db_path.c_str());
  return gates.exit_status();
}
