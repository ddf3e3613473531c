#pragma once
// tune::Db — the persistent tuning database consulted at solver startup.
// A strict obs::Json file (schema f3d-tunedb-v1) mapping a key of
// (mesh_class, host_isa, precision) to the winning flat knob
// configuration a search found, plus its provenance (strategy, scores,
// evaluation count). The contract that makes it safe to consult blindly:
//
//  * load() NEVER throws on a missing, unreadable, or corrupt file — it
//    returns an empty Db with ok() == false and a reason, and the solver
//    proceeds on compiled defaults;
//  * apply() validates the stored configuration against the live
//    registry (strict from_json: unknown knob / type / range errors all
//    reject) before touching anything, so a DB written by a different
//    build vintage degrades to defaults instead of poisoning a solve;
//  * save() round-trips exactly: dump -> parse -> dump is bit-identical
//    (obs::Json prints doubles with %.17g), which is what lets a solve
//    started from a persisted entry reproduce the tuned configuration
//    bit-for-bit.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "tune/registry.hpp"

namespace f3d::tune {

inline constexpr const char* kTuneDbSchema = "f3d-tunedb-v1";

/// What a tuned configuration is keyed by: the workload shape, the
/// vector hardware, and the arithmetic contract. A config tuned for one
/// triple is not assumed transferable to another.
struct DbKey {
  std::string mesh_class;  ///< coarse size bucket, see mesh_class_of()
  std::string host_isa;    ///< simd::isa_name() of the producing host
  std::string precision;   ///< "double" | "mixed"

  [[nodiscard]] bool operator==(const DbKey& o) const {
    return mesh_class == o.mesh_class && host_isa == o.host_isa &&
           precision == o.precision;
  }
};

/// Coarse mesh-class bucket from the vertex count. Buckets, not exact
/// counts, key the DB: the tuned knobs (restart, fill, subdomains) track
/// problem *scale*, not the precise mesh instance.
[[nodiscard]] std::string mesh_class_of(int num_vertices);

struct DbEntry {
  DbKey key;
  obs::Json config;           ///< flat { knob: value } map
  double score = 0;           ///< tuned final-fidelity score (lower better)
  double baseline_score = 0;  ///< compiled defaults at the same fidelity
  std::string strategy;       ///< search strategy that produced it
  int evaluations = 0;
};

class Db {
public:
  /// Load from `path`. Missing / unreadable / malformed / wrong-schema
  /// files yield an empty Db with ok() == false and note() saying why —
  /// never an exception (the safe-fallback contract).
  [[nodiscard]] static Db load(const std::string& path);

  /// Serialize to `path` (strict JSON, trailing newline); false when the
  /// file cannot be written.
  [[nodiscard]] bool save(const std::string& path) const;

  /// Entry for `key`, or nullptr.
  [[nodiscard]] const DbEntry* lookup(const DbKey& key) const;
  /// Insert, replacing any same-key entry.
  void put(DbEntry entry);

  [[nodiscard]] int size() const { return static_cast<int>(entries_.size()); }
  [[nodiscard]] const std::vector<DbEntry>& entries() const { return entries_; }
  /// True when load() found and fully parsed a schema-valid file (a
  /// freshly constructed Db is ok).
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& note() const { return note_; }

  [[nodiscard]] obs::Json to_json() const;

private:
  std::vector<DbEntry> entries_;
  bool ok_ = true;
  std::string note_;
};

/// Startup consultation: when the DB holds an entry for `key` whose
/// configuration validates against `reg`, apply it and return true;
/// otherwise leave the registry (= compiled defaults) untouched and
/// return false with `note` saying why. This is the one call a solver
/// front end needs — see examples/tuned_solve.cpp.
bool apply(Registry& reg, const Db& db, const DbKey& key,
           std::string* note = nullptr);

}  // namespace f3d::tune
