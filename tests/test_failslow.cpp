// Fail-slow tolerance tests: the three injection sites and their arm()
// validation, the perturbed step model (contention + jitter terms, halo
// timeout, bounded retransmit escalation), the median/MAD outlier
// detector (including the clean-campaign zero-false-positive guarantee
// across thread counts), the weighted repartitioner's monotonicity
// property, and the campaign mitigation ladder end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "mesh/generator.hpp"
#include "mesh/graph.hpp"
#include "par/distres.hpp"
#include "par/failslow.hpp"
#include "par/loadmodel.hpp"
#include "par/stepmodel.hpp"
#include "partition/partition.hpp"
#include "perf/machine.hpp"
#include "resilience/faults.hpp"

namespace {

using namespace f3d;
using namespace f3d::resilience;

mesh::Graph wing_graph() {
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 12, .ny = 7, .nz = 7});
  return mesh::build_graph(m.num_vertices(), m.edges());
}

par::WorkCoefficients test_work() {
  par::WorkCoefficients work;
  work.sparse_bytes_per_vertex_it = 1200;
  work.sparse_flops_per_vertex_it = 300;
  return work;
}

// With P draws per step (one per alive rank, rank order), draw s*P + r
// is rank r at step s — same convention as kRankFail.
FaultPlan fire_rank_at(int first_draw, int count = 1) {
  FaultPlan plan;
  plan.fire_every = 1;
  plan.skip_first = first_draw;
  plan.max_fires = count;
  return plan;
}

// --- arm() validation of the fail-slow sites ------------------------------

TEST(FailSlowArm, SlowRankRejectsSubUnitSlowdown) {
  FaultInjector inj(1);
  FaultPlan plan;
  plan.probability = 0.1;
  plan.magnitude = 0.5;  // a rank cannot run backwards
  EXPECT_THROW(inj.arm(FaultSite::kSlowRank, plan), Error);
  plan.magnitude = -3.0;
  EXPECT_THROW(inj.arm(FaultSite::kSlowRank, plan), Error);
  plan.magnitude = 1.0;  // boundary: a do-nothing straggler is legal
  EXPECT_NO_THROW(inj.arm(FaultSite::kSlowRank, plan));
  plan.magnitude = 4.0;
  EXPECT_NO_THROW(inj.arm(FaultSite::kSlowRank, plan));
}

TEST(FailSlowArm, JitterRejectsNonPositiveSigma) {
  FaultInjector inj(1);
  FaultPlan plan;
  plan.probability = 0.1;
  plan.magnitude = 0.0;
  EXPECT_THROW(inj.arm(FaultSite::kJitter, plan), Error);
  plan.magnitude = -0.5;
  EXPECT_THROW(inj.arm(FaultSite::kJitter, plan), Error);
  plan.magnitude = 0.25;
  EXPECT_NO_THROW(inj.arm(FaultSite::kJitter, plan));
}

TEST(FailSlowArm, DegradedLinkRejectsFactorOutsideUnitInterval) {
  FaultInjector inj(1);
  FaultPlan plan;
  plan.probability = 0.1;
  // The default magnitude (2.0) is NOT a valid bandwidth factor: arming
  // kDegradedLink forces an explicit, physical choice.
  EXPECT_THROW(inj.arm(FaultSite::kDegradedLink, plan), Error);
  plan.magnitude = 0.0;
  EXPECT_THROW(inj.arm(FaultSite::kDegradedLink, plan), Error);
  plan.magnitude = -0.2;
  EXPECT_THROW(inj.arm(FaultSite::kDegradedLink, plan), Error);
  plan.magnitude = 1.0;  // boundary: a healthy link is legal
  EXPECT_NO_THROW(inj.arm(FaultSite::kDegradedLink, plan));
  plan.magnitude = 0.25;
  EXPECT_NO_THROW(inj.arm(FaultSite::kDegradedLink, plan));
}

TEST(FailSlowArm, SiteNamesAreStable) {
  EXPECT_STREQ(fault_site_name(FaultSite::kSlowRank), "slow-rank");
  EXPECT_STREQ(fault_site_name(FaultSite::kJitter), "jitter");
  EXPECT_STREQ(fault_site_name(FaultSite::kDegradedLink), "degraded-link");
}

// Golden-stream: the new sites draw from their own seed-derived streams,
// so arming them never perturbs an existing site's sequence, and a
// state() round-trip replays them bit-identically.
TEST(FailSlowArm, NewSitesDoNotPerturbExistingStreams) {
  FaultPlan p;
  p.probability = 0.5;
  auto fire_pattern = [&](bool arm_new) {
    FaultInjector inj(77);
    inj.arm(FaultSite::kMessage, p);
    if (arm_new) {
      FaultPlan q = p;
      q.magnitude = 2.0;
      inj.arm(FaultSite::kSlowRank, q);
      for (int i = 0; i < 100; ++i) inj.should_fire(FaultSite::kSlowRank);
    }
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i)
      fires.push_back(inj.should_fire(FaultSite::kMessage));
    return fires;
  };
  EXPECT_EQ(fire_pattern(false), fire_pattern(true));
}

TEST(FailSlowArm, StateRoundTripReplaysNewSites) {
  FaultPlan p;
  p.probability = 0.3;
  p.magnitude = 3.0;
  FaultInjector inj(9);
  inj.arm(FaultSite::kSlowRank, p);
  FaultPlan q;
  q.probability = 0.3;
  q.magnitude = 0.5;
  inj.arm(FaultSite::kDegradedLink, q);
  for (int i = 0; i < 57; ++i) {
    inj.should_fire(FaultSite::kSlowRank);
    inj.should_fire(FaultSite::kDegradedLink);
  }
  const auto st = inj.state();
  std::vector<bool> expect;
  for (int i = 0; i < 50; ++i) {
    expect.push_back(inj.should_fire(FaultSite::kSlowRank));
    expect.push_back(inj.should_fire(FaultSite::kDegradedLink));
  }
  FaultInjector replay(0);
  replay.arm(FaultSite::kSlowRank, p);
  replay.arm(FaultSite::kDegradedLink, q);
  replay.restore(st);
  std::vector<bool> got;
  for (int i = 0; i < 50; ++i) {
    got.push_back(replay.should_fire(FaultSite::kSlowRank));
    got.push_back(replay.should_fire(FaultSite::kDegradedLink));
  }
  EXPECT_EQ(expect, got);
}

// --- the perturbed step model ---------------------------------------------

struct ModelRig {
  mesh::Graph g = wing_graph();
  par::PartitionLoad load = par::measure_load(g, part::kway_grow(g, 8));
  par::WorkCoefficients work = test_work();
  perf::MachineModel machine = perf::asci_red();
};

TEST(PerturbedStep, TrivialPerturbationIsBitTransparent) {
  ModelRig rig;
  const auto base = par::model_step(rig.machine, rig.load, rig.work, {});
  par::StepPerturbation none;
  const auto same =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, nullptr, &none);
  EXPECT_EQ(base.total(), same.total());  // bitwise
  EXPECT_EQ(base.t_implicit_sync, same.t_implicit_sync);
}

TEST(PerturbedStep, RejectsUnphysicalPerturbations) {
  ModelRig rig;
  par::StepPerturbation p;
  p.crit_slowdown = 1.0;
  p.avg_slowdown = 2.0;  // the critical path cannot beat the mean
  EXPECT_THROW(par::model_step(rig.machine, rig.load, rig.work, {},
                               par::NodeMode::kMpi1, nullptr, &p),
               Error);
  p = {};
  p.link_factor = 0.0;
  EXPECT_THROW(par::model_step(rig.machine, rig.load, rig.work, {},
                               par::NodeMode::kMpi1, nullptr, &p),
               Error);
  p = {};
  p.jitter = -0.1;
  EXPECT_THROW(par::model_step(rig.machine, rig.load, rig.work, {},
                               par::NodeMode::kMpi1, nullptr, &p),
               Error);
}

TEST(PerturbedStep, StragglerStretchesImbalanceNotJustBusyTime) {
  ModelRig rig;
  const auto base = par::model_step(rig.machine, rig.load, rig.work, {});
  par::StepPerturbation p;
  p.crit_slowdown = 4.0;  // one rank 4x slow: pure critical-path stretch
  const auto slow =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, nullptr, &p);
  // The mean busy time barely moves (avg_slowdown = 1) ...
  EXPECT_NEAR(slow.t_flux, base.t_flux, 1e-12);
  // ... while the max-avg gap — the implicit synchronization wait —
  // blows up: that is the fail-slow signature.
  EXPECT_GT(slow.t_implicit_sync, 3.0 * base.t_implicit_sync);
  EXPECT_GT(slow.total(), 1.5 * base.total());
  EXPECT_EQ(slow.crit_slowdown, 4.0);
}

TEST(PerturbedStep, DegradedLinkStretchesTheScatterPhase) {
  ModelRig rig;
  const auto base = par::model_step(rig.machine, rig.load, rig.work, {});
  par::StepPerturbation p;
  p.link_factor = 0.1;  // 10x bandwidth cut, no timeout armed
  const auto sick =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, nullptr, &p);
  EXPECT_GT(sick.t_scatter, base.t_scatter);
  EXPECT_EQ(sick.halo_timeouts, 0);  // nobody re-routed: everyone waited
  EXPECT_NEAR(sick.t_flux, base.t_flux, 1e-12);
}

TEST(PerturbedStep, HaloTimeoutReroutesInsteadOfWaiting) {
  ModelRig rig;
  par::StepPerturbation p;
  p.link_factor = 0.05;
  // Both arms carry the comm model (same CRC tax); only the timeout
  // differs. Timeout = healthy latency + 4x healthy transfer time, so a
  // 20x bandwidth cut trips it.
  par::CommReliability comm_wait;  // halo_timeout_us = 0: wait it out
  const auto waiting =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, &comm_wait, &p);
  par::CommReliability comm;
  const double msg_bytes = rig.load.max_ghosts * rig.work.nb *
                           sizeof(double) /
                           std::max(rig.load.max_neighbors, 1.0);
  comm.halo_timeout_us =
      rig.machine.net_latency_us + 4.0 * msg_bytes / rig.machine.net_bw_mbs;
  const auto rerouted =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, &comm, &p);
  EXPECT_GT(rerouted.halo_timeouts, 0);
  EXPECT_GT(rerouted.t_recovery, 0.0);
  // The re-post on the fallback path beats waiting out a 20x-slow link.
  EXPECT_LT(rerouted.total(), waiting.total());
  // A healthy link under the same timeout never trips it.
  par::StepPerturbation healthy;
  const auto clean =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, &comm, &healthy);
  EXPECT_EQ(clean.halo_timeouts, 0);
  EXPECT_EQ(clean.t_recovery, 0.0);
}

TEST(PerturbedStep, JitterTermAddsNoiseWait) {
  ModelRig rig;
  const auto base = par::model_step(rig.machine, rig.load, rig.work, {});
  par::StepPerturbation p;
  p.jitter = 0.10;
  const auto noisy =
      par::model_step(rig.machine, rig.load, rig.work, {},
                      par::NodeMode::kMpi1, nullptr, &p);
  EXPECT_GT(noisy.t_implicit_sync, base.t_implicit_sync);
  EXPECT_NEAR(noisy.t_flux, base.t_flux, 1e-12);  // busy time unchanged
  EXPECT_EQ(noisy.jitter_extra, 0.10);
}

// Satellite: retransmit escalation is bounded. A pathologically lossy
// link (every opportunity fires, generous retry budget) charges at most
// the per-step cap, and the exponential backoff stops doubling at
// its cap (a constant of the comm model).
TEST(PerturbedStep, RetransmitEscalationIsBounded) {
  ModelRig rig;
  par::CommReliability comm;
  comm.max_retries = 64;
  comm.step_recovery_cap_s = 0.5;
  FaultInjector inj(3);
  FaultPlan always;
  always.fire_every = 1;
  inj.arm(FaultSite::kMessage, always);
  InjectorScope scope(&inj);
  const auto b = par::model_step(rig.machine, rig.load, rig.work, {},
                                 par::NodeMode::kMpi1, &comm);
  EXPECT_GT(b.retransmits, 0);
  EXPECT_LE(b.t_recovery, comm.step_recovery_cap_s);
  // Unclamped doubling of a 50us backoff over 64 retries would exceed
  // any physical step time by orders of magnitude; the cap plus the
  // backoff ceiling keeps the charge finite and bounded.
  EXPECT_TRUE(std::isfinite(b.t_recovery));
}

// --- the detector ---------------------------------------------------------

TEST(Detector, MedianAndMadBasics) {
  EXPECT_DOUBLE_EQ(par::median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(par::median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(par::median_of({}), 0.0);
  EXPECT_DOUBLE_EQ(par::mad_of({1.0, 1.0, 5.0}, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(par::mad_of({1.0, 2.0, 4.0}, 2.0), 1.0);
}

TEST(Detector, OptionsAreValidated) {
  EXPECT_THROW(par::SlowRankDetector(0), Error);
  EXPECT_THROW(par::SlowRankDetector(4, -0.01), Error);
  EXPECT_NO_THROW(par::SlowRankDetector(4, 0.0));
}

TEST(Detector, PersistentOutlierConfirmsAtTheConfirmBar) {
  par::SlowRankDetector det(8);
  std::vector<double> x(8, 1.0);
  x[5] = 4.0;  // rank 5 runs 4x slow every step
  std::vector<int> confirmed;
  int confirm_step = -1;
  for (int s = 0; s < 10; ++s) {
    auto now = det.observe(s, x);
    if (!now.empty() && confirm_step < 0) {
      confirmed = now;
      confirm_step = s;
    }
  }
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0], 5);
  EXPECT_EQ(confirm_step, par::kDetectorConfirm - 1);  // earliest possible
  EXPECT_EQ(det.detect_latency(5), par::kDetectorConfirm);
  EXPECT_EQ(det.health(5), par::RankHealth::kConfirmedSlow);
  EXPECT_EQ(det.health(0), par::RankHealth::kHealthy);
  EXPECT_GT(det.last_z(5), par::kDetectorZThreshold);
}

TEST(Detector, TransientSpikeIsSuspectedButAgesOut) {
  par::SlowRankDetector det(8);
  std::vector<double> clean(8, 1.0);
  std::vector<double> spiky = clean;
  spiky[2] = 3.0;
  EXPECT_TRUE(det.observe(0, spiky).empty());
  EXPECT_EQ(det.health(2), par::RankHealth::kSuspected);
  EXPECT_EQ(det.suspected_events(), 1);
  for (int s = 1; s <= par::kDetectorWindow; ++s)
    EXPECT_TRUE(det.observe(s, clean).empty());
  EXPECT_EQ(det.health(2), par::RankHealth::kHealthy);  // aged out
  EXPECT_EQ(det.confirmed_ranks(), 0);
}

TEST(Detector, QuarantineAndResetLifecycle) {
  par::SlowRankDetector det(8);
  std::vector<double> x(8, 1.0);
  x[3] = 5.0;
  for (int s = 0; s < 5; ++s) det.observe(s, x);
  ASSERT_EQ(det.health(3), par::RankHealth::kConfirmedSlow);
  det.quarantine(3);
  EXPECT_EQ(det.health(3), par::RankHealth::kQuarantined);
  // A quarantined rank is excluded: its (stale) telemetry cannot raise
  // new suspicions.
  const int before = det.suspected_events();
  det.observe(5, x);
  EXPECT_EQ(det.suspected_events(), before);
  det.reset(3);
  EXPECT_EQ(det.health(3), par::RankHealth::kHealthy);
  EXPECT_EQ(det.detect_latency(3), par::kDetectorConfirm);  // record kept
}

// The zero-false-positive guarantee: with the MAD floor set at the
// benign-noise amplitude b, a sample sits at most 2b from the sample
// median, so clean z-scores stay under 2b / (1.4826 * b) ~= 1.35 —
// never near the threshold of 4. Hammer it with hash noise.
TEST(Detector, BoundedBenignNoiseNeverSuspects) {
  par::SlowRankDetector det(16, 0.02);  // floor = the noise amplitude below
  std::vector<double> x(16);
  for (int s = 0; s < 500; ++s) {
    for (int r2 = 0; r2 < 16; ++r2) {
      const double eps =
          0.02 * (2.0 * par::hash01(123, static_cast<std::uint64_t>(s),
                                    static_cast<std::uint64_t>(r2)) -
                  1.0);
      x[static_cast<std::size_t>(r2)] = 1.0 + eps;
    }
    EXPECT_TRUE(det.observe(s, x).empty());
  }
  EXPECT_EQ(det.suspected_events(), 0);
  EXPECT_EQ(det.confirmed_ranks(), 0);
}

// --- the weighted repartitioner -------------------------------------------

TEST(WeightedRepartition, ShiftsLoadOffTheSlowRank) {
  auto g = wing_graph();
  auto p = part::kway_grow(g, 8);
  std::vector<double> speed(8, 1.0);
  speed[3] = 0.25;  // rank 3 is a 4x straggler
  const double before = part::weighted_imbalance(p, speed);
  part::RepartitionReport rep;
  auto q = part::repartition_for_imbalance(g, p, speed, &rep);
  const double after = part::weighted_imbalance(q, speed);
  EXPECT_GT(rep.moved_vertices, 0);
  EXPECT_LT(after, before);
  EXPECT_NEAR(after, rep.imbalance_after, 1e-12);
  EXPECT_NEAR(before, rep.imbalance_before, 1e-12);
  // The slow part shed vertices; nobody else's vertices moved to it.
  int size_before = 0, size_after = 0;
  for (int v = 0; v < p.num_vertices(); ++v) {
    if (p.part[v] == 3) ++size_before;
    if (q.part[v] == 3) ++size_after;
  }
  EXPECT_LT(size_after, size_before);
  EXPECT_EQ(q.nparts, p.nparts);
}

TEST(WeightedRepartition, UniformSpeedsOnBalancedPartitionIsANoOp) {
  auto g = wing_graph();
  auto p = part::balance_first(g, 8);  // perfectly balanced by design
  const std::vector<double> speed(8, 1.0);
  part::RepartitionReport rep;
  auto q = part::repartition_for_imbalance(g, p, speed, &rep);
  EXPECT_EQ(rep.moved_vertices, 0);
  EXPECT_EQ(q.part, p.part);
}

TEST(WeightedRepartition, RejectsBadSpeeds) {
  auto g = wing_graph();
  auto p = part::kway_grow(g, 4);
  EXPECT_THROW(
      part::repartition_for_imbalance(g, p, std::vector<double>(3, 1.0)),
      Error);
  std::vector<double> zero(4, 1.0);
  zero[1] = 0.0;
  EXPECT_THROW(part::repartition_for_imbalance(g, p, zero), Error);
}

// Property: on randomized partitions and speeds, the weighted imbalance
// never increases, and the deterministic tie-breaks reproduce the exact
// same partition on a replay.
TEST(WeightedRepartition, PropertyMonotoneAndDeterministic) {
  auto g = wing_graph();
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const int nparts = 3 + static_cast<int>(rng.uniform() * 8);
    auto p = part::kway_grow(g, nparts,
                             static_cast<unsigned>(trial * 7 + 1));
    std::vector<double> speed(static_cast<std::size_t>(nparts));
    for (double& sp : speed) sp = 0.2 + 0.8 * rng.uniform();
    part::RepartitionReport rep;
    auto q = part::repartition_for_imbalance(g, p, speed, &rep);
    EXPECT_LE(rep.imbalance_after, rep.imbalance_before + 1e-12)
        << "trial " << trial;
    EXPECT_GE(rep.imbalance_after, 1.0 - 1e-12);
    // Vertex conservation: every vertex still has a valid part.
    ASSERT_EQ(q.num_vertices(), p.num_vertices());
    for (int v = 0; v < q.num_vertices(); ++v) {
      ASSERT_GE(q.part[v], 0);
      ASSERT_LT(q.part[v], nparts);
    }
    // Determinism: same inputs, same moves.
    auto q2 = part::repartition_for_imbalance(g, p, speed);
    EXPECT_EQ(q.part, q2.part) << "trial " << trial;
  }
}

// --- the campaign: detection + mitigation ladder --------------------------

struct FailSlowRig {
  mesh::Graph g = wing_graph();
  par::CampaignDomain domain;
  par::WorkCoefficients work = test_work();
  perf::MachineModel machine = perf::asci_red();
  std::vector<par::StepCounts> steps;
  static constexpr int kRanks = 8;

  FailSlowRig() : steps(40) {
    domain = par::make_domain(g, part::kway_grow(g, kRanks));
  }

  par::CampaignResult run(par::SlowMitigation mitigation,
                          double slowdown = 4.0, int slow_rank = 2,
                          int at_step = 4) {
    FaultInjector inj(5);
    if (slowdown > 1.0) {
      FaultPlan plan = fire_rank_at(at_step * kRanks + slow_rank);
      plan.magnitude = slowdown;
      inj.arm(FaultSite::kSlowRank, plan);
    }
    par::CampaignOptions o;
    o.policy = par::RecoveryPolicy::kSpareRank;
    o.spare_ranks = 2;
    o.checkpoint_interval = 10;
    o.comm = par::CommReliability{};
    o.slow_mitigation = mitigation;
    o.injector = &inj;
    return par::simulate_campaign(machine, domain, work, steps, o);
  }
};

TEST(FailSlowCampaign, CleanCampaignHasZeroFalsePositives) {
  FailSlowRig rig;
  const auto r = rig.run(par::SlowMitigation::kQuarantine, 1.0);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.slow_suspected, 0);
  EXPECT_EQ(r.slow_confirmed, 0);
  EXPECT_EQ(r.slow_quarantined, 0);
  EXPECT_EQ(r.weighted_repartitions, 0);
  EXPECT_EQ(r.checkpoint_retunes, 0);
  EXPECT_EQ(r.log.count(RecoveryAction::kDetectSlowRank), 0);
}

// The detector's verdicts are pure functions of the telemetry: running
// the campaign under 1, 2 or 4 pool threads changes nothing, bit for
// bit — clean runs stay clean and the straggler run confirms the same
// rank at the same step.
TEST(FailSlowCampaign, VerdictsAreThreadCountInvariant) {
  for (const double slowdown : {1.0, 4.0}) {
    std::vector<par::CampaignResult> results;
    for (const int threads : {1, 2, 4}) {
      exec::ThreadScope scope(threads);
      FailSlowRig rig;
      results.push_back(rig.run(par::SlowMitigation::kQuarantine, slowdown));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].slow_suspected, results[0].slow_suspected);
      EXPECT_EQ(results[i].slow_confirmed, results[0].slow_confirmed);
      EXPECT_EQ(results[i].slow_detect_latency_steps,
                results[0].slow_detect_latency_steps);
      EXPECT_EQ(results[i].sim.total_seconds,
                results[0].sim.total_seconds);  // bitwise
      EXPECT_EQ(results[i].log.size(), results[0].log.size());
    }
    EXPECT_EQ(results[0].slow_suspected == 0, slowdown == 1.0);
  }
}

TEST(FailSlowCampaign, DetectOnlyConfirmsTheInjectedRankAndDoesNotMitigate) {
  FailSlowRig rig;
  const auto r = rig.run(par::SlowMitigation::kNone);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.slow_confirmed, 1);
  EXPECT_GE(r.slow_suspected, 3);
  EXPECT_EQ(r.log.count(RecoveryAction::kDetectSlowRank), 1);
  // Detection latency: first suspicion to confirmation, >= confirm bar.
  EXPECT_GE(r.slow_detect_latency_steps, 3);
  EXPECT_LE(r.slow_detect_latency_steps, 8);
  // Control arm: nobody acted on it.
  EXPECT_EQ(r.slow_quarantined, 0);
  EXPECT_EQ(r.weighted_repartitions, 0);
  EXPECT_EQ(r.spares_used, 0);
  EXPECT_EQ(r.log.count(RecoveryAction::kQuarantineSlowRank), 0);
  EXPECT_EQ(r.log.count(RecoveryAction::kWeightedRepartition), 0);
  // The named rank is the injected one.
  for (const auto& e : r.log.events()) {
    if (e.action == RecoveryAction::kDetectSlowRank) {
      EXPECT_NE(e.detail.find("rank 2"), std::string::npos);
    }
  }
}

TEST(FailSlowCampaign, RepartitionRungShedsLoadAndRecoversTime) {
  FailSlowRig rig;
  const auto none = rig.run(par::SlowMitigation::kNone);
  const auto repart = rig.run(par::SlowMitigation::kRepartition);
  ASSERT_TRUE(repart.completed);
  EXPECT_EQ(repart.weighted_repartitions, 1);
  EXPECT_EQ(repart.slow_quarantined, 0);
  EXPECT_EQ(repart.log.count(RecoveryAction::kWeightedRepartition), 1);
  EXPECT_LT(repart.sim.total_seconds, none.sim.total_seconds);
}

TEST(FailSlowCampaign, QuarantineRungMigratesAndRetunesCheckpoints) {
  FailSlowRig rig;
  const auto none = rig.run(par::SlowMitigation::kNone);
  const auto quar = rig.run(par::SlowMitigation::kQuarantine);
  ASSERT_TRUE(quar.completed);
  EXPECT_EQ(quar.slow_quarantined, 1);
  EXPECT_EQ(quar.spares_used, 1);
  EXPECT_EQ(quar.log.count(RecoveryAction::kQuarantineSlowRank), 1);
  EXPECT_EQ(quar.log.count(RecoveryAction::kCheckpointRetune),
            quar.checkpoint_retunes);
  // The migrated rank runs healthy afterwards: the quarantine arm beats
  // living with the straggler. (Whether it also beats the repartition
  // rung depends on the spare-boot cost amortization — bench_failslow
  // sweeps that tradeoff; this short campaign only pins the direction.)
  EXPECT_LT(quar.sim.total_seconds, none.sim.total_seconds);
}

TEST(FailSlowCampaign, DegradedLinkTripsTimeoutsUnderRetryRung) {
  FailSlowRig rig;
  auto run = [&](par::SlowMitigation m) {
    FaultInjector inj(5);
    FaultPlan plan = fire_rank_at(4 * FailSlowRig::kRanks + 3);
    plan.magnitude = 0.05;  // 20x bandwidth cut on rank 3's links
    inj.arm(FaultSite::kDegradedLink, plan);
    par::CampaignOptions o;
    o.policy = par::RecoveryPolicy::kSpareRank;
    o.spare_ranks = 0;  // no spares: retry is the only rung available
    o.checkpoint_interval = 10;
    o.comm = par::CommReliability{};
    o.slow_mitigation = m;
    o.injector = &inj;
    return par::simulate_campaign(rig.machine, rig.domain, rig.work,
                                  rig.steps, o);
  };
  const auto waiting = run(par::SlowMitigation::kNone);
  const auto retry = run(par::SlowMitigation::kRetry);
  ASSERT_TRUE(retry.completed);
  // kNone leaves halo_timeout_us at 0: everyone waits out the sick link.
  EXPECT_EQ(waiting.sim.aggregate.halo_timeouts, 0);
  EXPECT_GT(retry.sim.aggregate.halo_timeouts, 0);
  EXPECT_LT(retry.sim.total_seconds, waiting.sim.total_seconds);
}

TEST(FailSlowCampaign, TransientJitterSuspectsWithoutConfirming) {
  FailSlowRig rig;
  FaultInjector inj(5);
  FaultPlan plan = fire_rank_at(6 * FailSlowRig::kRanks + 1);  // one spike
  plan.magnitude = 4.0;  // sigma: up to 4x transient stretch
  inj.arm(FaultSite::kJitter, plan);
  par::CampaignOptions o;
  o.policy = par::RecoveryPolicy::kSpareRank;
  o.checkpoint_interval = 10;
  o.slow_mitigation = par::SlowMitigation::kQuarantine;
  o.injector = &inj;
  const auto r = par::simulate_campaign(rig.machine, rig.domain, rig.work,
                                        rig.steps, o);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.slow_suspected, 1);
  EXPECT_EQ(r.slow_confirmed, 0);  // one spike never crosses the bar
  EXPECT_EQ(r.slow_quarantined, 0);
}

TEST(FailSlowCampaign, ReplayIsBitIdenticalFromSeed) {
  FailSlowRig rig;
  const auto a = rig.run(par::SlowMitigation::kQuarantine);
  const auto b = rig.run(par::SlowMitigation::kQuarantine);
  EXPECT_EQ(a.sim.total_seconds, b.sim.total_seconds);  // bitwise
  EXPECT_EQ(a.slow_suspected, b.slow_suspected);
  EXPECT_EQ(a.slow_confirmed, b.slow_confirmed);
  EXPECT_EQ(a.slow_detect_latency_steps, b.slow_detect_latency_steps);
  EXPECT_EQ(a.t_restore, b.t_restore);
  EXPECT_EQ(a.log.size(), b.log.size());
}

}  // namespace
