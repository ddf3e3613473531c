// tuned_solve: the self-tuning solver entry point — consult the tuning DB
// at startup, fall back to compiled defaults on a miss or a corrupt file,
// optionally run the search to (re)populate the DB, and introspect the
// knob space.
//
//   $ tuned_solve -dump-knobs                  # print the knob catalog JSON
//   $ tuned_solve [-vertices 2500] [-db tune_db.json]
//                                              # solve with DB-tuned config
//   $ tuned_solve -search [-trials 12] [-db tune_db.json]
//                                              # tune, persist, then solve
//
// The -dump-knobs output is the machine-readable catalog
// scripts/check_docs.py cross-checks against docs/TUNING.md, so adding a
// knob without documenting it fails CI.

#include <cstdio>
#include <string>

#include "common/options.hpp"
#include "tune/db.hpp"
#include "tune/lab.hpp"
#include "tune/registry.hpp"
#include "tune/search.hpp"

int main(int argc, char** argv) {
  using namespace f3d;
  Options opts(argc, argv);

  const int vertices = opts.get_int("vertices", 2500);
  tune::SolveLab lab(vertices, /*mesh_seed=*/1);
  tune::Registry& reg = lab.registry();

  if (opts.has("dump-knobs")) {
    std::printf("%s\n", reg.dump_catalog().dump().c_str());
    return 0;
  }

  const std::string db_path = opts.get_string("db", "tune_db.json");
  const tune::DbKey key = lab.db_key();

  if (opts.has("search")) {
    tune::SearchOptions sopts;
    sopts.seed = opts.get_uint64("seed", 1);
    sopts.halving_width = opts.get_int("trials", 8);
    auto ev = lab.evaluator();
    auto result = tune::search(reg, tune::SolveLab::default_search_space(),
                               ev, sopts);
    std::printf("search: %d evaluations, %d rejected, improved=%s\n",
                result.evaluations, result.rejected,
                result.improved ? "yes" : "no");
    if (!result.note.empty())
      std::printf("search note: %s\n", result.note.c_str());

    tune::Db db = tune::Db::load(db_path);
    tune::DbEntry entry;
    entry.key = key;
    entry.config = result.best_config;
    entry.score = result.best_score;
    entry.baseline_score = result.baseline_score;
    entry.strategy = tune::kSearchStrategy;
    entry.evaluations = result.evaluations;
    db.put(entry);
    if (db.save(db_path))
      std::printf("saved tuned config to %s\n", db_path.c_str());
  } else {
    tune::Db db = tune::Db::load(db_path);
    if (!db.ok())
      std::printf("tuning DB: %s — using compiled defaults\n",
                  db.note().c_str());
    std::string note;
    if (tune::apply(reg, db, key, &note))
      std::printf("tuning DB hit for (%s, %s, %s)\n", key.mesh_class.c_str(),
                  key.host_isa.c_str(), key.precision.c_str());
    else
      std::printf("tuning DB miss (%s) — using compiled defaults\n",
                  note.c_str());
  }

  std::printf("active configuration:\n%s\n", reg.to_json().dump().c_str());

  auto outcome = lab.evaluate(/*fidelity=*/1);
  std::printf("solve: %s  wall=%.3fs  work_units=%lld\n",
              outcome.ok ? "ok (converged, bit-identical rerun)" : "FAILED",
              outcome.wall_seconds, outcome.work_units);
  if (!outcome.note.empty()) std::printf("note: %s\n", outcome.note.c_str());
  return outcome.ok ? 0 : 1;
}
