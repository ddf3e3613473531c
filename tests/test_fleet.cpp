// Fault-isolated scenario fleet: batch-spec expansion determinism, the
// CRC-framed scenario journal (including the SIGKILL-style truncation
// property sweep at every byte boundary), the retry/quarantine ladder,
// admission control with supersede budget reclaim, kill-and-restart
// exactly-once semantics, worker-count determinism, the tuning-DB seed of
// attempt 0, the dashboard document, and the tuning DB's atomic save
// under concurrent readers/writers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "fleet/journal.hpp"
#include "fleet/service.hpp"
#include "fleet/spec.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "tune/db.hpp"

namespace {

using namespace f3d;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------------- spec

const char* kSweepSpec = R"({
  "schema": "f3d-fleet-batch-v1",
  "name": "sweep-test",
  "seed": 7,
  "defaults": {"rtol": 1e-4, "max_steps": 60, "work_units": 0},
  "sweep": {"vertices": [150], "mach": [0.2, 0.3], "alpha_deg": [0.0, 2.0]}
})";

TEST(FleetSpec, SweepExpansionIsDeterministic) {
  const auto spec = fleet::BatchSpec::parse(kSweepSpec);
  ASSERT_EQ(spec.scenarios.size(), 4u);
  // vertices outermost, then mach, then alpha; ids dense in that order.
  EXPECT_EQ(spec.scenarios[0].id, 0);
  EXPECT_DOUBLE_EQ(spec.scenarios[0].mach, 0.2);
  EXPECT_DOUBLE_EQ(spec.scenarios[0].alpha_deg, 0.0);
  EXPECT_DOUBLE_EQ(spec.scenarios[1].alpha_deg, 2.0);
  EXPECT_DOUBLE_EQ(spec.scenarios[2].mach, 0.3);
  EXPECT_EQ(spec.scenarios[3].id, 3);
  EXPECT_DOUBLE_EQ(spec.scenarios[0].rtol, 1e-4);
  EXPECT_EQ(spec.scenarios[0].max_steps, 60);
  EXPECT_EQ(spec.scenarios[0].name, "v150-m0.200-a0.00");
  // Hash is stable across re-parses of the same text...
  EXPECT_EQ(spec.content_hash(), fleet::BatchSpec::parse(kSweepSpec).content_hash());
  // ...and sensitive to the expanded content.
  std::string other(kSweepSpec);
  other.replace(other.find("0.3"), 3, "0.4");
  EXPECT_NE(spec.content_hash(), fleet::BatchSpec::parse(other).content_hash());
}

TEST(FleetSpec, ExplicitScenariosAppendAfterSweep) {
  const auto spec = fleet::BatchSpec::parse(R"({
    "schema": "f3d-fleet-batch-v1",
    "sweep": {"mach": [0.2, 0.3]},
    "scenarios": [
      {"mach": 0.5, "priority": 5, "name": "rush"},
      {"mach": 0.6, "supersedes": 0}
    ]
  })");
  ASSERT_EQ(spec.scenarios.size(), 4u);
  EXPECT_EQ(spec.scenarios[2].name, "rush");
  EXPECT_EQ(spec.scenarios[2].priority, 5);
  EXPECT_EQ(spec.scenarios[3].supersedes, 0);
}

TEST(FleetSpec, StrictParseRejectsMalformedDocuments) {
  EXPECT_THROW((void)fleet::BatchSpec::parse("{}"), Error);
  EXPECT_THROW((void)fleet::BatchSpec::parse(R"({"schema": "wrong"})"), Error);
  EXPECT_THROW(
      (void)fleet::BatchSpec::parse(
          R"({"schema": "f3d-fleet-batch-v1", "bogus": 1,
              "sweep": {"mach": [0.2]}})"),
      Error);
  // No scenarios at all.
  EXPECT_THROW(
      (void)fleet::BatchSpec::parse(R"({"schema": "f3d-fleet-batch-v1"})"),
      Error);
  // supersedes must name an EARLIER scenario.
  EXPECT_THROW((void)fleet::BatchSpec::parse(R"({
    "schema": "f3d-fleet-batch-v1",
    "scenarios": [{"mach": 0.2, "supersedes": 0}]
  })"),
               Error);
}

// ---------------------------------------------------------------- journal

fleet::JournalRecord rec(fleet::RecordType t, int id, int attempt,
                         std::string detail = {}) {
  fleet::JournalRecord r;
  r.type = t;
  r.scenario_id = id;
  r.attempt = attempt;
  r.detail = std::move(detail);
  return r;
}

TEST(FleetJournal, RoundTripRecoversTerminalSets) {
  const std::string path = temp_path("journal_roundtrip.fjl");
  {
    auto j = fleet::Journal::create(path, 0xDEADBEEF, "batch-a");
    j.append(rec(fleet::RecordType::kStart, 0, 0));
    j.append(rec(fleet::RecordType::kCommit, 0, 0, "verdict=converged"));
    j.append(rec(fleet::RecordType::kStart, 1, 0));
    j.append(rec(fleet::RecordType::kStart, 1, 1));
    j.append(rec(fleet::RecordType::kQuarantine, 1, 1, "poison"));
    j.append(rec(fleet::RecordType::kShed, 2, 0, "over budget"));
    j.append(rec(fleet::RecordType::kCancel, 3, 0, "superseded"));
    j.append(rec(fleet::RecordType::kStart, 4, 0));
  }
  const auto st = fleet::Journal::replay(path);
  EXPECT_EQ(st.batch_hash, 0xDEADBEEFu);
  EXPECT_EQ(st.batch_name, "batch-a");
  EXPECT_EQ(st.committed, std::set<int>{0});
  EXPECT_EQ(st.quarantined, std::set<int>{1});
  EXPECT_EQ(st.shed, std::set<int>{2});
  EXPECT_EQ(st.cancelled, std::set<int>{3});
  EXPECT_EQ(st.attempts_started.at(1), 2);
  EXPECT_EQ(st.bytes_discarded, 0u);
  EXPECT_EQ(st.terminal_detail.at(1), "poison");
  // Scenario 4 started but never finished: it is the pending set.
  EXPECT_EQ(st.pending(5), std::vector<int>{4});
  EXPECT_TRUE(st.is_terminal(0));
  EXPECT_FALSE(st.is_terminal(4));
}

// The SIGKILL property: truncate the journal at EVERY byte boundary and
// replay. No truncation point may lose a fully framed decision, invent
// one, or crash the replayer — the torn tail is discarded, exactly.
TEST(FleetJournal, TruncationAtEveryByteBoundaryIsSafe) {
  const std::string path = temp_path("journal_trunc.fjl");
  {
    auto j = fleet::Journal::create(path, 42, "trunc");
    for (int id = 0; id < 6; ++id) {
      j.append(rec(fleet::RecordType::kStart, id, 0));
      j.append(rec(fleet::RecordType::kCommit, id, 0, "c"));
    }
  }
  const std::string full = slurp(path);
  const auto full_state = fleet::Journal::replay(path);
  ASSERT_EQ(full_state.committed.size(), 6u);

  const std::string cut = temp_path("journal_cut.fjl");
  std::set<int> prev_committed;
  for (std::size_t n = 12; n <= full.size(); ++n) {
    spew(cut, full.substr(0, n));
    const auto st = fleet::Journal::replay(cut);
    EXPECT_EQ(st.batch_hash, 42u);
    // Committed sets grow monotonically with the prefix length and are
    // always a prefix of {0, 1, ..., 5} in commit order.
    EXPECT_GE(st.committed.size(), prev_committed.size());
    for (int id : st.committed)
      EXPECT_LT(id, static_cast<int>(st.committed.size()));
    // A full replay discards nothing; a truncated one only ever loses
    // the torn tail, never a framed decision.
    if (st.frames_replayed == 13u) {
      EXPECT_EQ(st.bytes_discarded, 0u);
    }
    prev_committed = st.committed;
  }
  EXPECT_EQ(prev_committed.size(), 6u);

  // Headers shorter than 12 bytes are a hard error, not a quiet empty.
  spew(cut, full.substr(0, 7));
  EXPECT_THROW((void)fleet::Journal::replay(cut), Error);
}

TEST(FleetJournal, CorruptedFrameByteDiscardsTail) {
  const std::string path = temp_path("journal_flip.fjl");
  {
    auto j = fleet::Journal::create(path, 1, "flip");
    j.append(rec(fleet::RecordType::kCommit, 0, 0, "first"));
    j.append(rec(fleet::RecordType::kCommit, 1, 0, "second"));
  }
  std::string bytes = slurp(path);
  // Flip one payload byte of the SECOND commit frame: its CRC fails, the
  // first commit survives, the flipped frame and everything after die.
  bytes[bytes.size() - 3] ^= 0x40;
  spew(path, bytes);
  const auto st = fleet::Journal::replay(path);
  EXPECT_EQ(st.committed, std::set<int>{0});
  EXPECT_GT(st.bytes_discarded, 0u);
}

TEST(FleetJournal, AppendToRefusesForeignBatchAndHealsTornTail) {
  const std::string path = temp_path("journal_heal.fjl");
  {
    auto j = fleet::Journal::create(path, 77, "heal");
    j.append(rec(fleet::RecordType::kCommit, 0, 0, "ok"));
    j.append(rec(fleet::RecordType::kStart, 1, 0));
  }
  // Tear the last frame mid-write.
  std::string bytes = slurp(path);
  spew(path, bytes.substr(0, bytes.size() - 5));

  EXPECT_THROW((void)fleet::Journal::append_to(path, 78), Error);

  {
    auto j = fleet::Journal::append_to(path, 77);
    j.append(rec(fleet::RecordType::kCommit, 1, 0, "resumed"));
  }
  const auto st = fleet::Journal::replay(path);
  EXPECT_EQ(st.committed, (std::set<int>{0, 1}));
  EXPECT_EQ(st.bytes_discarded, 0u);  // torn tail healed on append_to
}

TEST(FleetJournal, DoubleTerminalFrameIsACorruptionError) {
  const std::string path = temp_path("journal_double.fjl");
  {
    auto j = fleet::Journal::create(path, 5, "double");
    j.append(rec(fleet::RecordType::kCommit, 0, 0, "a"));
    j.append(rec(fleet::RecordType::kCancel, 0, 0, "b"));
  }
  EXPECT_THROW((void)fleet::Journal::replay(path), Error);
}

// ---------------------------------------------------------------- service

// Small-but-real batches: 150-vertex compressible solves at loose
// tolerance, a few hundred ms each.
fleet::BatchSpec small_batch() { return fleet::BatchSpec::parse(kSweepSpec); }

fleet::FleetOptions quick_opts() {
  fleet::FleetOptions o;
  o.backoff_base_ms = 0;  // no sleeping in tests
  return o;
}

TEST(FleetService, CommitsWholeBatchAndIsDeterministic) {
  const auto spec = small_batch();
  fleet::Service svc(quick_opts());
  const auto a = svc.serve(spec);
  ASSERT_EQ(a.scenarios.size(), 4u);
  EXPECT_EQ(a.committed, 4);
  EXPECT_EQ(a.quarantined + a.shed + a.cancelled + a.pending, 0);
  for (const auto& sc : a.scenarios) {
    EXPECT_EQ(sc.status, fleet::ScenarioStatus::kCommitted);
    EXPECT_EQ(sc.attempts, 1);
    EXPECT_NE(sc.solution_crc, 0u);
  }
  // Different Mach numbers genuinely solve different problems.
  EXPECT_NE(a.scenarios[0].solution_crc, a.scenarios[2].solution_crc);

  // Re-serving the same spec reproduces every solution bit-for-bit (the
  // shared-artifact cache is reused; results must not change).
  const auto b = svc.serve(spec);
  for (std::size_t i = 0; i < a.scenarios.size(); ++i)
    EXPECT_EQ(a.scenarios[i].solution_crc, b.scenarios[i].solution_crc);
}

TEST(FleetService, WorkerCountDoesNotChangeSolutions) {
  // Multi-worker fleets require a 1-thread exec pool (Service::serve's
  // precondition), whatever F3D_THREADS asks for.
  exec::ThreadScope one_thread(1);
  const auto spec = small_batch();
  fleet::Service one(quick_opts());
  const auto ra = one.serve(spec);

  auto opts = quick_opts();
  opts.workers = 3;
  fleet::Service many(opts);
  const auto rb = many.serve(spec);
  ASSERT_EQ(rb.committed, 4);
  for (std::size_t i = 0; i < ra.scenarios.size(); ++i)
    EXPECT_EQ(ra.scenarios[i].solution_crc, rb.scenarios[i].solution_crc);
}

TEST(FleetService, FragileKnobsRecoverOnTheSafeDefaultsRung) {
  auto spec = small_batch();
  spec.scenarios[1].knobs = obs::Json::object();
  spec.scenarios[1].knobs.set("ptc.no_such_knob", 1.0);
  fleet::Service svc(quick_opts());
  const auto res = svc.serve(spec);
  EXPECT_EQ(res.committed, 4);
  // Attempt 0 rejected the knobs; attempt 1 (safe defaults) committed.
  EXPECT_EQ(res.scenarios[1].attempts, 2);
  EXPECT_GE(res.retries, 1);
}

TEST(FleetService, PoisonIsQuarantinedWithPostMortem) {
  auto spec = small_batch();
  // A hopeless contract: a work budget far too small for any knob
  // configuration to converge under.
  spec.scenarios[2].work_units = 5;
  auto opts = quick_opts();
  opts.max_attempts = 3;
  fleet::Service svc(opts);
  const auto res = svc.serve(spec);
  EXPECT_EQ(res.committed, 3);
  EXPECT_EQ(res.quarantined, 1);
  const auto& q = res.scenarios[2];
  EXPECT_EQ(q.status, fleet::ScenarioStatus::kQuarantined);
  EXPECT_EQ(q.attempts, 3);
  EXPECT_NE(q.detail.find("poison after 3 attempts"), std::string::npos);
  EXPECT_NE(q.detail.find("deadline"), std::string::npos);
}

TEST(FleetService, AdmissionShedsOverCapacityInSchedulingOrder) {
  auto spec = small_batch();
  for (auto& sc : spec.scenarios) sc.work_units = 1000;
  spec.scenarios[3].priority = 9;  // schedules first despite highest id
  auto opts = quick_opts();
  opts.admission_capacity_units = 2500;  // fits two of the four
  fleet::Service svc(opts);
  const auto res = svc.serve(spec);
  EXPECT_EQ(res.committed, 2);
  EXPECT_EQ(res.shed, 2);
  // Order: 3 (priority 9), then 0, then 1 and 2 are over capacity.
  EXPECT_EQ(res.scenarios[3].status, fleet::ScenarioStatus::kCommitted);
  EXPECT_EQ(res.scenarios[0].status, fleet::ScenarioStatus::kCommitted);
  EXPECT_EQ(res.scenarios[1].status, fleet::ScenarioStatus::kShed);
  EXPECT_EQ(res.scenarios[2].status, fleet::ScenarioStatus::kShed);
  EXPECT_NE(res.scenarios[1].detail.find("admission"), std::string::npos);
}

// Satellite contract: cancelling a queued-but-unstarted scenario releases
// its admitted budget immediately — a later admission in the same pass
// sees the headroom.
TEST(FleetService, SupersedeReleasesAdmittedBudgetImmediately) {
  auto spec = small_batch();
  for (auto& sc : spec.scenarios) sc.work_units = 1000;
  spec.scenarios[1].supersedes = 0;  // B supersedes A
  auto opts = quick_opts();
  opts.admission_capacity_units = 2500;  // A+B fit; C would not — unless
                                         // A's units are reclaimed
  fleet::Service svc(opts);
  const auto res = svc.serve(spec);
  EXPECT_EQ(res.scenarios[0].status, fleet::ScenarioStatus::kCancelled);
  EXPECT_EQ(res.scenarios[1].status, fleet::ScenarioStatus::kCommitted);
  EXPECT_EQ(res.scenarios[2].status, fleet::ScenarioStatus::kCommitted);
  EXPECT_EQ(res.scenarios[3].status, fleet::ScenarioStatus::kShed);
  EXPECT_EQ(res.budget_reclaimed_units, 1000);
  EXPECT_EQ(res.cancelled, 1);
}

TEST(FleetService, KillAndRestartReplaysExactlyThePendingSet) {
  const std::string journal = temp_path("fleet_kill.fjl");
  const auto spec = small_batch();

  auto opts = quick_opts();
  opts.journal_path = journal;
  opts.kill_after_commits = 2;
  fleet::Service first(opts);
  const auto before = first.serve(spec);
  EXPECT_TRUE(before.killed);
  EXPECT_GE(before.committed, 2);
  EXPECT_GT(before.pending, 0);

  const auto mid = fleet::Journal::replay(journal);
  const auto pending = mid.pending(static_cast<int>(spec.scenarios.size()));
  EXPECT_EQ(pending.size(), static_cast<std::size_t>(before.pending));

  auto resume_opts = quick_opts();
  resume_opts.journal_path = journal;
  resume_opts.resume = true;
  fleet::Service second(resume_opts);
  const auto after = second.serve(spec);
  EXPECT_EQ(after.committed, 4);
  EXPECT_EQ(after.pending, 0);
  // Exactly-once: scenarios committed before the kill were replayed from
  // the journal, not re-solved; the rest were solved exactly once.
  int replayed = 0;
  for (const auto& sc : after.scenarios) {
    EXPECT_EQ(sc.status, fleet::ScenarioStatus::kCommitted);
    if (sc.replayed) ++replayed;
  }
  EXPECT_EQ(replayed, before.committed);
  const auto final_state = fleet::Journal::replay(journal);
  EXPECT_EQ(final_state.committed.size(), 4u);
  EXPECT_TRUE(final_state.pending(4).empty());

  // Resuming against a different spec is refused.
  auto other = spec;
  other.scenarios[0].mach = 0.9;
  EXPECT_THROW((void)second.serve(other), Error);
}

// Exactly-once covers the non-committed terminals too: a resumed service
// replays journaled quarantine and shed decisions with their details and
// solves nothing.
TEST(FleetService, ResumeReplaysQuarantinedAndShedTerminals) {
  const std::string journal = temp_path("fleet_terminals.fjl");
  auto spec = small_batch();
  for (auto& sc : spec.scenarios) sc.work_units = 1000;
  spec.scenarios[2].work_units = 5;  // poison: no configuration converges
  auto opts = quick_opts();
  opts.journal_path = journal;
  opts.max_attempts = 3;
  opts.admission_capacity_units = 2500;  // 0, 1 and 2 fit; 3 is shed
  fleet::Service first(opts);
  const auto before = first.serve(spec);
  ASSERT_EQ(before.scenarios[2].status, fleet::ScenarioStatus::kQuarantined);
  ASSERT_EQ(before.scenarios[3].status, fleet::ScenarioStatus::kShed);
  ASSERT_EQ(before.committed, 2);

  auto resume_opts = opts;
  resume_opts.resume = true;
  fleet::Service second(resume_opts);
  const auto after = second.serve(spec);
  EXPECT_EQ(after.committed, before.committed);
  EXPECT_EQ(after.quarantined, before.quarantined);
  EXPECT_EQ(after.shed, before.shed);
  EXPECT_EQ(after.cancelled, before.cancelled);
  EXPECT_EQ(after.pending, 0);
  EXPECT_EQ(after.retries, 0);
  ASSERT_EQ(after.scenarios.size(), before.scenarios.size());
  for (std::size_t i = 0; i < after.scenarios.size(); ++i) {
    const auto& sc = after.scenarios[i];
    EXPECT_TRUE(sc.replayed) << "scenario " << i;
    EXPECT_EQ(sc.status, before.scenarios[i].status) << "scenario " << i;
    EXPECT_EQ(sc.attempts, 0) << "scenario " << i;  // nothing re-solved
  }
  EXPECT_EQ(after.scenarios[2].detail, before.scenarios[2].detail);
  EXPECT_EQ(after.scenarios[3].detail, before.scenarios[3].detail);
  EXPECT_NE(after.scenarios[3].detail.find("admission"), std::string::npos);
}

long long fleet_counter(const std::string& name) {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Attempt 0 consults the tuning DB: the entry keyed to the batch's (mesh
// class, ISA, "double") is applied to every scenario, filtered to the
// knobs the fleet's solve binds. An entry the registry refuses counts as
// rejected, and the scenario solves on compiled defaults.
TEST(FleetService, TuneDbSeedsAttemptZero) {
  const auto spec = small_batch();
  const long long n = static_cast<long long>(spec.scenarios.size());
  fleet::Service plain(quick_opts());
  const auto defaults = plain.serve(spec);
  ASSERT_EQ(defaults.committed, n);

  auto run_with_db = [&](double cfl0, const std::string& path) {
    tune::Db db;
    tune::DbEntry e;
    e.key = {tune::mesh_class_of(spec.scenarios[0].vertices),
             simd::isa_name(), "double"};
    e.config = obs::Json::object();
    e.config.set("ptc.cfl0", cfl0);                         // bound
    e.config.set("exec.threads", static_cast<long long>(2));  // not bound
    e.strategy = "test";
    db.put(std::move(e));
    EXPECT_TRUE(db.save(path));
    auto opts = quick_opts();
    opts.tune_db_path = path;
    fleet::Service svc(opts);
    return svc.serve(spec);
  };

  long long applied = fleet_counter("fleet.tunedb_applied");
  long long rejected = fleet_counter("fleet.tunedb_rejected");
  const auto tuned = run_with_db(20.0, temp_path("fleet_tunedb_ok.json"));
  EXPECT_EQ(fleet_counter("fleet.tunedb_applied") - applied, n);
  EXPECT_EQ(fleet_counter("fleet.tunedb_rejected") - rejected, 0);
  EXPECT_EQ(tuned.committed, n);
  for (std::size_t i = 0; i < tuned.scenarios.size(); ++i) {
    EXPECT_EQ(tuned.scenarios[i].attempts, 1) << "scenario " << i;
    // The tuned CFL changed the trajectory, so the solution bits differ.
    EXPECT_NE(tuned.scenarios[i].solution_crc,
              defaults.scenarios[i].solution_crc)
        << "scenario " << i;
  }

  applied = fleet_counter("fleet.tunedb_applied");
  rejected = fleet_counter("fleet.tunedb_rejected");
  const auto stale = run_with_db(1e9, temp_path("fleet_tunedb_bad.json"));
  EXPECT_EQ(fleet_counter("fleet.tunedb_applied") - applied, 0);
  EXPECT_EQ(fleet_counter("fleet.tunedb_rejected") - rejected, n);
  EXPECT_EQ(stale.committed, n);
  for (std::size_t i = 0; i < stale.scenarios.size(); ++i) {
    EXPECT_EQ(stale.scenarios[i].attempts, 1) << "scenario " << i;
    EXPECT_EQ(stale.scenarios[i].solution_crc,
              defaults.scenarios[i].solution_crc)
        << "scenario " << i;
  }
}

// The f3d-fleet-dash-v1 document mirrors the BatchResult it was built
// from and survives a strict re-parse unchanged.
TEST(FleetService, DashboardJsonRoundTrips) {
  auto spec = small_batch();
  spec.scenarios.resize(3);
  for (auto& sc : spec.scenarios) sc.work_units = 1000;
  spec.scenarios[1].work_units = 5;  // poison: no configuration converges
  auto opts = quick_opts();
  opts.max_attempts = 3;
  opts.admission_capacity_units = 1500;  // 0 and 1 fit; 2 is shed
  fleet::Service svc(opts);
  const auto res = svc.serve(spec);
  ASSERT_EQ(res.scenarios[0].status, fleet::ScenarioStatus::kCommitted);
  ASSERT_EQ(res.scenarios[1].status, fleet::ScenarioStatus::kQuarantined);
  ASSERT_EQ(res.scenarios[2].status, fleet::ScenarioStatus::kShed);

  const obs::Json doc = res.to_json();
  const obs::Json* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->s, "f3d-fleet-dash-v1");
  auto tally = [&](const char* key) {
    const obs::Json* v = doc.find(key);
    EXPECT_NE(v, nullptr) << key;
    return v != nullptr ? v->number() : -1.0;
  };
  EXPECT_EQ(tally("committed"), res.committed);
  EXPECT_EQ(tally("quarantined"), res.quarantined);
  EXPECT_EQ(tally("shed"), res.shed);
  EXPECT_EQ(tally("cancelled"), res.cancelled);
  EXPECT_EQ(tally("pending"), res.pending);
  EXPECT_EQ(tally("retries"), res.retries);
  EXPECT_EQ(tally("budget_reclaimed_units"),
            static_cast<double>(res.budget_reclaimed_units));
  EXPECT_EQ(tally("wall_s"), res.wall_s);
  ASSERT_NE(doc.find("killed"), nullptr);
  EXPECT_EQ(doc.find("killed")->b, res.killed);

  const obs::Json* rows = doc.find("scenarios");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->items.size(), res.scenarios.size());
  for (std::size_t i = 0; i < rows->items.size(); ++i) {
    const obs::Json& row = rows->items[i];
    const auto& sc = res.scenarios[i];
    ASSERT_NE(row.find("id"), nullptr);
    EXPECT_EQ(row.find("id")->number(), static_cast<double>(i));
    ASSERT_NE(row.find("status"), nullptr);
    EXPECT_EQ(row.find("status")->s, fleet::scenario_status_name(sc.status));
    ASSERT_NE(row.find("detail"), nullptr);
    EXPECT_EQ(row.find("detail")->s, sc.detail);
  }
  EXPECT_NE(rows->items[1].find("detail")->s.find("poison after 3 attempts"),
            std::string::npos);
  EXPECT_NE(rows->items[2].find("detail")->s.find("admission"),
            std::string::npos);

  const obs::Json* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  EXPECT_NE(counters->find("fleet.committed"), nullptr);
  for (const auto& [name, value] : counters->members)
    EXPECT_EQ(name.rfind("fleet.", 0), 0u) << name;

  EXPECT_EQ(obs::parse_json(doc.dump()).dump(), doc.dump());
}

// ----------------------------------------------------------- tune DB save

// Satellite contract: Db::save publishes atomically (temp file + rename),
// so concurrent readers hammering load() during repeated saves see either
// a complete old file or a complete new file — never a torn prefix.
TEST(FleetTuneDb, ConcurrentSaveAndLoadNeverSeeTornFiles) {
  const std::string path = temp_path("tunedb_concurrent.json");
  auto make_db = [](int gen) {
    tune::Db db;
    tune::DbEntry e;
    e.key = {"wing-small", "scalar", "double"};
    e.config = obs::Json::object();
    e.config.set("gmres.restart", static_cast<long long>(20 + gen % 40));
    e.score = 1.0 + gen;
    e.baseline_score = 2.0;
    e.strategy = "test";
    e.evaluations = gen;
    db.put(std::move(e));
    return db;
  };
  ASSERT_TRUE(make_db(0).save(path));

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      while (!stop.load()) {
        const tune::Db db = tune::Db::load(path);
        // ok() == false here would mean a torn/partial file was visible.
        if (!db.ok() || db.size() != 1) torn.fetch_add(1);
      }
    });
  std::thread writer([&] {
    for (int gen = 1; gen <= 200; ++gen)
      ASSERT_TRUE(make_db(gen).save(path));
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  const tune::Db last = tune::Db::load(path);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.entries()[0].evaluations, 200);
}

}  // namespace
