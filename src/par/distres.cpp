#include "par/distres.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/buddy.hpp"
#include "resilience/checkpoint.hpp"

namespace f3d::par {

CampaignDomain make_domain(const mesh::Graph& g, part::Partition p) {
  CampaignDomain d;
  d.graph = &g;
  d.load = measure_load(g, p);
  d.partition = std::move(p);
  return d;
}

CampaignDomain make_domain(PartitionLoad synthesized) {
  CampaignDomain d;
  d.load = std::move(synthesized);
  return d;
}

PartitionLoad shrink_load(const PartitionLoad& in) {
  F3D_CHECK_MSG(in.procs >= 2, "cannot shrink a 1-processor load");
  PartitionLoad out = in;
  const double grow =
      static_cast<double>(in.procs) / static_cast<double>(in.procs - 1);
  out.procs = in.procs - 1;
  out.active_procs = std::min(in.active_procs, out.procs);
  // Bulk work spreads over one fewer processor...
  out.avg_owned = in.avg_owned * grow;
  out.avg_edges = in.avg_edges * grow;
  // ...but the dead subdomain lands on its ~avg_neighbors neighbors, so
  // the critical-path processor gains a neighbor's share of a whole
  // subdomain — worse than the average, which is the point: shrink
  // recovery trades spare hardware for load imbalance.
  const double share = 1.0 / std::max(in.avg_neighbors, 1.0);
  out.max_owned = std::max(in.max_owned, in.avg_owned * (1.0 + share));
  out.max_edges = std::max(in.max_edges, in.avg_edges * (1.0 + share));
  // Absorbing a neighbor's vertices merges the shared interface away but
  // inherits the dead rank's other interfaces: surface terms stay put.
  return out;
}

namespace {

/// Modeled compute cost of a shrink or weighted repartition, per vertex.
constexpr double kRepartitionFlopsPerVertex = 200;
/// Lowest halo-payload bit whose flip a downstream guard catches (see
/// CampaignOptions::sdc_guards).
constexpr int kSdcCaughtMinBit = 48;

// Modeled cost (seconds) of moving one rank's checkpoint payload to or
// from its buddy: wire transfer plus a memory copy on each side plus a
// CRC pass on each side. All ranks mirror concurrently, so one transfer
// is the campaign-level cost of a buddy checkpoint.
double transfer_cost(const perf::MachineModel& machine, double bytes) {
  const double crc_bw = kChecksumBwFraction * machine.mem_bw_mbs * 1e6;
  return machine.net_latency_us * 1e-6 + bytes / (machine.net_bw_mbs * 1e6) +
         2.0 * bytes / (machine.mem_bw_mbs * 1e6) + 2.0 * bytes / crc_bw;
}

}  // namespace

CampaignResult simulate_campaign(const perf::MachineModel& machine,
                                 const CampaignDomain& domain,
                                 const WorkCoefficients& work,
                                 const std::vector<StepCounts>& steps,
                                 const CampaignOptions& opts) {
  F3D_CHECK_MSG(opts.injector != nullptr,
                "simulate_campaign needs a fault injector");
  F3D_CHECK(!steps.empty());
  const int nranks = domain.load.procs;
  F3D_CHECK(nranks >= 1);
  resilience::InjectorScope scope(opts.injector);

  CampaignResult r;
  r.rank_alive.assign(static_cast<std::size_t>(nranks), 1);
  PartitionLoad load = domain.load;
  part::Partition part = domain.partition;
  const bool have_mesh =
      domain.graph != nullptr && part.nparts == nranks &&
      part.num_vertices() == static_cast<int>(domain.load.total_vertices);
  int alive = nranks;
  int spares_left =
      opts.policy == RecoveryPolicy::kSpareRank ? opts.spare_ranks : 0;
  const auto rung = [&](SlowMitigation m) {
    return static_cast<int>(opts.slow_mitigation) >= static_cast<int>(m);
  };
  CommReliability comm_local;
  const CommReliability* comm = nullptr;
  if (opts.comm) {
    comm_local = *opts.comm;
    if (rung(SlowMitigation::kRetry) && comm_local.halo_timeout_us <= 0) {
      // Mitigation rung 1 (retry): arm the halo timeout at the healthy
      // latency plus 4x the healthy transfer time. Only the bandwidth
      // term is multiplied — latency is the same on sick and healthy
      // links — so a link cut below 1/4 bandwidth trips the fallback
      // re-post while a healthy send never can.
      const double msg_bytes = load.max_ghosts * work.nb * sizeof(double) /
                               std::max(load.max_neighbors, 1.0);
      comm_local.halo_timeout_us =
          machine.net_latency_us + 4.0 * msg_bytes / machine.net_bw_mbs;
    }
    comm = &comm_local;
  }

  // Per-rank checkpoint payload: the subdomain's restart image.
  const double doubles_per_vertex = opts.checkpoint_doubles_per_vertex > 0
                                        ? opts.checkpoint_doubles_per_vertex
                                        : work.nb;
  const double ckpt_bytes = load.max_owned * doubles_per_vertex *
                            sizeof(double);
  const double ckpt_cost = transfer_cost(machine, ckpt_bytes);
  r.checkpoint_cost_s = ckpt_cost;

  resilience::BuddyStore buddy(nranks);
  double since_ckpt = 0;  // useful seconds to re-execute after a failure
  int ckpt_interval = opts.checkpoint_interval;  // retuned under fail-slow

  // --- fail-slow state -------------------------------------------------
  // Physical condition of each logical rank's processor: a persistent
  // compute slowdown (kSlowRank, max over fires), a persistent link
  // bandwidth factor (kDegradedLink, min over fires), and this step's
  // transient OS-noise stretch (kJitter). Survives rollbacks — the sick
  // hardware does not heal when the solver rewinds — and resets only
  // when a spare takes the rank over.
  std::vector<double> rank_slow(static_cast<std::size_t>(nranks), 1.0);
  std::vector<double> rank_link(static_cast<std::size_t>(nranks), 1.0);
  std::vector<double> jit(static_cast<std::size_t>(nranks), 0.0);
  std::vector<double> telemetry(static_cast<std::size_t>(nranks), 0.0);
  // Per-rank load share (weighted-repartition aware): share_r = the
  // rank's vertex count over the ideal, so the perturbation terms see a
  // slow rank shrink off the critical path after a rebalance.
  std::vector<double> share(static_cast<std::size_t>(nranks), 1.0);
  auto update_share = [&]() {
    if (!have_mesh) return;
    std::vector<int> size(static_cast<std::size_t>(nranks), 0);
    for (int v = 0; v < part.num_vertices(); ++v)
      ++size[static_cast<std::size_t>(part.part[static_cast<std::size_t>(v)])];
    int nonempty = 0;
    std::int64_t tot = 0;
    for (int sz : size) {
      if (sz > 0) ++nonempty;
      tot += sz;
    }
    const double ideal =
        nonempty > 0 ? static_cast<double>(tot) / nonempty : 1.0;
    for (int p2 = 0; p2 < nranks; ++p2)
      share[static_cast<std::size_t>(p2)] =
          size[static_cast<std::size_t>(p2)] / ideal;
  };
  update_share();
  // Floor the detector's sigma at the machine's own jitter amplitude:
  // benign noise bounded by +/-machine.jitter then maps to clean
  // z-scores of at most 2/1.4826 ~= 1.35, whatever the machine — the
  // zero-false-positive guarantee (see failslow.hpp).
  SlowRankDetector detector(nranks,
                            std::max(kDetectorMadFloorFrac, machine.jitter));

  auto do_checkpoint = [&](int step) {
    resilience::PtcCheckpoint ck;
    ck.step = step;
    ck.injector = opts.injector->state();
    const std::string payload = resilience::encode_checkpoint(ck);
    for (int rank = 0; rank < nranks; ++rank)
      if (r.rank_alive[static_cast<std::size_t>(rank)]) buddy.store(rank, payload);
    r.t_checkpoint += ckpt_cost;
    r.log.add(step, resilience::RecoveryAction::kBuddyCheckpoint,
              std::to_string(alive) + " ranks mirrored");
    since_ckpt = 0;
  };
  do_checkpoint(0);

  const int nsteps = static_cast<int>(steps.size());
  for (int s = 0; s < nsteps; ++s) {
    F3D_OBS_SPAN("campaign.step");

    // Run-to-completion guard at the step boundary. The modeled-seconds
    // budget is deterministic (no wall clock involved); the cancel token
    // is cooperative with one-modeled-step latency. Either exit keeps
    // every accounting field consistent — the campaign simply ends here
    // with a verdict instead of burning the remaining steps.
    if (opts.cancel != nullptr && opts.cancel->requested()) {
      r.completed = false;
      r.verdict = guard::SolveVerdict::kCancelled;
      r.log.add(s, resilience::RecoveryAction::kGuardTrip,
                "campaign cancelled after " + std::to_string(s) + " step(s)");
      break;
    }
    if (opts.budget_modeled_s > 0 &&
        r.total_seconds() >= opts.budget_modeled_s) {
      r.completed = false;
      r.verdict = guard::SolveVerdict::kDeadline;
      r.log.add(s, resilience::RecoveryAction::kGuardTrip,
                "modeled budget exhausted after " + std::to_string(s) +
                    " step(s)");
      break;
    }

    // Fail-slow opportunities: one per site per alive rank, in rank
    // order, drawn on EVERY step whether the sites are armed or not —
    // the streams advance identically across mitigation policies, so
    // policy arms of a sweep face the same fault sequence.
    std::fill(jit.begin(), jit.end(), 0.0);
    for (int rank = 0; rank < nranks; ++rank) {
      if (!r.rank_alive[static_cast<std::size_t>(rank)]) continue;
      if (resilience::fault_fires(resilience::FaultSite::kSlowRank))
        rank_slow[static_cast<std::size_t>(rank)] =
            std::max(rank_slow[static_cast<std::size_t>(rank)],
                     opts.injector->magnitude(resilience::FaultSite::kSlowRank));
      if (resilience::fault_fires(resilience::FaultSite::kJitter)) {
        // Draw the stretch from the fire tag (a pure function of the
        // fire count): no extra PRNG draws, checkpoint-exact.
        const double u =
            static_cast<double>(
                opts.injector->fire_tag(resilience::FaultSite::kJitter) >> 11) *
            0x1.0p-53;
        jit[static_cast<std::size_t>(rank)] =
            opts.injector->magnitude(resilience::FaultSite::kJitter) * u;
      }
      if (resilience::fault_fires(resilience::FaultSite::kDegradedLink))
        rank_link[static_cast<std::size_t>(rank)] = std::min(
            rank_link[static_cast<std::size_t>(rank)],
            opts.injector->magnitude(resilience::FaultSite::kDegradedLink));
    }

    // Fold the per-rank condition into the step model's perturbation:
    // the share-weighted slowest rank gates the critical path, the mean
    // stretch raises the busy baseline, the worst link cuts the wire.
    StepPerturbation perturb;
    {
      double sum_w = 0, sum_wf = 0, max_w = 0, max_wf = 0, link_min = 1.0;
      for (int rank = 0; rank < nranks; ++rank) {
        if (!r.rank_alive[static_cast<std::size_t>(rank)]) continue;
        const double w = share[static_cast<std::size_t>(rank)];
        const double f = rank_slow[static_cast<std::size_t>(rank)] *
                         (1.0 + jit[static_cast<std::size_t>(rank)]);
        sum_w += w;
        sum_wf += w * f;
        max_w = std::max(max_w, w);
        max_wf = std::max(max_wf, w * f);
        link_min =
            std::min(link_min, rank_link[static_cast<std::size_t>(rank)]);
      }
      perturb.avg_slowdown = sum_w > 0 ? std::max(1.0, sum_wf / sum_w) : 1.0;
      perturb.crit_slowdown =
          std::max(perturb.avg_slowdown, max_w > 0 ? max_wf / max_w : 1.0);
      perturb.link_factor = link_min;
    }

    StepBreakdown b = model_step(machine, load, work,
                                 steps[static_cast<std::size_t>(s)],
                                 NodeMode::kMpi1, comm, &perturb);

    // --- fail-slow detection: share-normalized per-rank telemetry ------
    // Modeled seconds per unit of work for each rank: the healthy mean
    // busy time stretched by the rank's compute factor and by bounded
    // benign noise (+/- machine.jitter, a pure hash — deterministic and
    // thread-count independent), plus the rank's own halo-send stall on
    // its degraded links. Normalizing by the load share keeps a big-but-
    // healthy subdomain from ever looking like a straggler, which is the
    // clean-campaign zero-false-positive guarantee.
    const double busy_h = (b.t_flux + b.t_sparse) / perturb.avg_slowdown;
    for (int rank = 0; rank < nranks; ++rank) {
      if (!r.rank_alive[static_cast<std::size_t>(rank)]) {
        telemetry[static_cast<std::size_t>(rank)] = 0;
        continue;
      }
      const double eps =
          machine.jitter *
          (2.0 * hash01(opts.injector->seed(), static_cast<std::uint64_t>(s),
                        static_cast<std::uint64_t>(rank)) -
           1.0);
      const double f = rank_slow[static_cast<std::size_t>(rank)] *
                       (1.0 + jit[static_cast<std::size_t>(rank)]);
      double link_stretch = 1.0 / rank_link[static_cast<std::size_t>(rank)];
      // The timeout re-post bounds the visible stall on a sick link.
      if (b.halo_timeouts > 0) link_stretch = std::min(link_stretch, 1.5);
      const double x =
          busy_h * f * (1.0 + eps) + 0.3 * busy_h * (link_stretch - 1.0);
      telemetry[static_cast<std::size_t>(rank)] = x;
    }
    const std::vector<int> confirmed_now =
        detector.observe(s, telemetry, &r.rank_alive);

    // --- mitigation ladder for newly confirmed slow ranks --------------
    double slow_restore = 0;
    for (int cr : confirmed_now) {
      ++r.slow_confirmed;
      r.log.add(s, resilience::RecoveryAction::kDetectSlowRank,
                "rank " + std::to_string(cr) + " z=" +
                    std::to_string(detector.last_z(cr)) + " after " +
                    std::to_string(detector.detect_latency(cr)) + " steps");
      bool handled = false;
      if (rung(SlowMitigation::kQuarantine) && spares_left > 0) {
        // Rung 3: live-migrate the rank to a spare processor. The
        // subdomain state moves over the wire once; the sick node
        // retires, so its condition resets.
        slow_restore +=
            transfer_cost(machine, ckpt_bytes) +
            opts.spare_boot_s;
        rank_slow[static_cast<std::size_t>(cr)] = 1.0;
        rank_link[static_cast<std::size_t>(cr)] = 1.0;
        detector.reset(cr);
        --spares_left;
        ++r.spares_used;
        ++r.slow_quarantined;
        obs::Registry::global().count("par.slow_quarantined");
        r.log.add(s, resilience::RecoveryAction::kQuarantineSlowRank,
                  "rank " + std::to_string(cr) + " migrated to spare (" +
                      std::to_string(spares_left) + " spares left)");
        handled = true;
      }
      if (!handled && rung(SlowMitigation::kRepartition) && have_mesh) {
        // Rung 2: shift load off the slow rank in proportion to its
        // MEASURED speed (telemetry relative to the step median — the
        // controller never peeks at the injected truth).
        std::vector<double> sample;
        for (int rank = 0; rank < nranks; ++rank)
          if (r.rank_alive[static_cast<std::size_t>(rank)])
            sample.push_back(telemetry[static_cast<std::size_t>(rank)]);
        const double med = median_of(std::move(sample));
        std::vector<double> speed(static_cast<std::size_t>(nranks), 1.0);
        for (int rank = 0; rank < nranks; ++rank) {
          if (!r.rank_alive[static_cast<std::size_t>(rank)] || med <= 0)
            continue;
          const double fhat =
              telemetry[static_cast<std::size_t>(rank)] / med;
          speed[static_cast<std::size_t>(rank)] =
              std::clamp(1.0 / std::max(fhat, 1e-6), 0.05, 1.0);
        }
        part::RepartitionReport rep;
        part = part::repartition_for_imbalance(*domain.graph, part, speed,
                                               &rep);
        if (rep.moved_vertices > 0) {
          load = measure_load(*domain.graph, part);
          load.procs = alive;
          update_share();
        }
        slow_restore += kRepartitionFlopsPerVertex *
                        (load.total_vertices / std::max(alive, 1)) /
                        (machine.flux_mflops() * 1e6);
        ++r.weighted_repartitions;
        obs::Registry::global().count("par.weighted_repartitions");
        r.log.add(s, resilience::RecoveryAction::kWeightedRepartition,
                  std::to_string(rep.moved_vertices) +
                      " vertices off rank " + std::to_string(cr) +
                      ", weighted imbalance " +
                      std::to_string(rep.imbalance_before) + " -> " +
                      std::to_string(rep.imbalance_after));
        handled = true;
      }
      // Rung 1 (retry) needs no per-event action: the halo timeout is
      // armed in the comm model for the whole campaign.
    }
    if (!confirmed_now.empty() && ckpt_interval > 0 && ckpt_cost > 0 &&
        opts.slow_mitigation != SlowMitigation::kNone) {
      // Cross-cutting (any active rung): fail-slow escalates the
      // effective fault rate, so retune
      // the checkpoint interval to the Young/Daly optimum for the MTBF
      // observed so far (never beyond the configured interval).
      const int events = r.rank_failures + r.slow_confirmed;
      const double elapsed = r.sim.total_seconds + b.total();
      const double avg_step =
          elapsed / static_cast<double>(r.steps_executed + 1);
      if (events > 0 && avg_step > 0) {
        const double tau =
            daly_optimal_interval(ckpt_cost, elapsed / events);
        int want = std::max(
            1, static_cast<int>(std::lround(tau / avg_step)));
        want = std::min(want, opts.checkpoint_interval);
        if (want != ckpt_interval) {
          r.log.add(s, resilience::RecoveryAction::kCheckpointRetune,
                    "interval " + std::to_string(ckpt_interval) + " -> " +
                        std::to_string(want) + " steps");
          ckpt_interval = want;
          ++r.checkpoint_retunes;
          obs::Registry::global().count("par.checkpoint_retunes");
        }
      }
    }
    if (slow_restore > 0) {
      b.t_recovery += slow_restore;
      r.t_restore += slow_restore;
    }

    since_ckpt += b.total() - b.t_recovery;

    // The fail-stop process: one seeded opportunity per alive rank, in
    // rank order, so a run is reproducible from the injector seed alone.
    std::vector<int> failed;
    for (int rank = 0; rank < nranks; ++rank)
      if (r.rank_alive[static_cast<std::size_t>(rank)] &&
          resilience::fault_fires(resilience::FaultSite::kRankFail))
        failed.push_back(rank);

    if (!failed.empty()) {
      // All of this step's failures are simultaneous: buddy copies die
      // before any recovery runs, so losing a rank AND its buddy in one
      // step hits the diskless double-failure window for real.
      for (int f : failed) {
        buddy.fail_rank(f);
        r.rank_alive[static_cast<std::size_t>(f)] = 0;
        --alive;
        ++r.rank_failures;
        obs::Registry::global().count("par.rank_failures");
        r.log.add(s, resilience::RecoveryAction::kDetectRankFail,
                  "rank " + std::to_string(f));
      }
      if (alive == 0) {
        r.completed = false;
        r.log.add(s, resilience::RecoveryAction::kDetectRankFail,
                  "no surviving rank");
        r.sim.add_step(b);
        ++r.steps_executed;
        break;
      }
      double restore = 0;
      for (int f : failed) {
        const auto blob = buddy.retrieve(f);
        std::optional<resilience::PtcCheckpoint> ck;
        if (blob) ck = resilience::decode_checkpoint(*blob);
        if (!ck) {
          r.completed = false;
          r.log.add(s, resilience::RecoveryAction::kBuddyRestore,
                    "rank " + std::to_string(f) +
                        ": state lost (rank and buddy died before re-mirror)");
          break;
        }
        restore += transfer_cost(machine, ckpt_bytes);
        r.log.add(s, resilience::RecoveryAction::kBuddyRestore,
                  "rank " + std::to_string(f) + " from checkpoint at step " +
                      std::to_string(ck->step));
        if (spares_left > 0) {
          buddy.revive_rank(f);
          r.rank_alive[static_cast<std::size_t>(f)] = 1;
          ++alive;
          --spares_left;
          ++r.spares_used;
          restore += opts.spare_boot_s;
          // A fresh processor takes the logical rank: its fail-slow
          // condition and detector history start clean.
          rank_slow[static_cast<std::size_t>(f)] = 1.0;
          rank_link[static_cast<std::size_t>(f)] = 1.0;
          detector.reset(f);
          r.log.add(s, resilience::RecoveryAction::kSpareSubstitution,
                    "rank " + std::to_string(f) + " (" +
                        std::to_string(spares_left) + " spares left)");
        } else {
          ++r.shrink_events;
          if (have_mesh) {
            part::RepartitionReport rep;
            part = part::repartition_after_failure(*domain.graph, part, f,
                                                   &rep);
            load = measure_load(*domain.graph, part);
            load.procs = alive;  // reduction tree spans the survivors
            update_share();
            r.log.add(s, resilience::RecoveryAction::kShrinkRepartition,
                      std::to_string(rep.moved_vertices) + " vertices to " +
                          std::to_string(rep.receiving_parts) +
                          " parts, imbalance " +
                          std::to_string(rep.imbalance_after));
          } else {
            load = shrink_load(load);
            r.log.add(s, resilience::RecoveryAction::kShrinkRepartition,
                      "analytic shrink to " + std::to_string(load.procs) +
                          " ranks");
          }
          restore += kRepartitionFlopsPerVertex *
                     (load.total_vertices / alive) /
                     (machine.flux_mflops() * 1e6);
        }
      }
      if (!r.completed) {
        r.sim.add_step(b);
        ++r.steps_executed;
        break;
      }
      // Everyone rolls back to the last buddy checkpoint and re-executes
      // the work since it; then the recovered configuration re-mirrors.
      b.t_recovery += since_ckpt + restore;
      r.t_rework += since_ckpt;
      r.t_restore += restore;
      r.sim.add_step(b);
      ++r.steps_executed;
      do_checkpoint(s);
      continue;
    }

    // Silent halo corruption: one kBitFlip/kHalo opportunity per alive
    // rank on each clean step (a step with a rank failure already rolls
    // everyone back, clearing any coincident flip). The wire CRC was
    // satisfied — the flip happened in memory, not on the link — so
    // detection is entirely up to the receiving rank's downstream guards.
    bool sdc_rollback = false;
    for (int rank = 0; rank < nranks; ++rank) {
      if (!r.rank_alive[static_cast<std::size_t>(rank)]) continue;
      if (!resilience::bitflip_fires(resilience::FlipTarget::kHalo)) continue;
      ++r.sdc_injected;
      obs::Registry::global().count("par.halo_bitflips");
      const int bit = opts.injector->bit_flip().bit;
      if (opts.sdc_guards && bit >= kSdcCaughtMinBit) {
        ++r.sdc_caught;
        r.log.add(s, resilience::RecoveryAction::kDetectSdc,
                  "halo payload bit " + std::to_string(bit) + " flipped into rank " +
                      std::to_string(rank) + ", caught downstream");
        sdc_rollback = true;
      } else {
        ++r.sdc_escaped;
        obs::Registry::global().count("resilience.sdc_escaped");
      }
    }
    if (sdc_rollback) {
      const double restore = transfer_cost(machine, ckpt_bytes);
      b.t_recovery += since_ckpt + restore;
      r.t_rework += since_ckpt;
      r.t_restore += restore;
      r.log.add(s, resilience::RecoveryAction::kSdcRollback,
                "rolled back to last buddy checkpoint");
      r.sim.add_step(b);
      ++r.steps_executed;
      do_checkpoint(s);
      continue;
    }

    r.sim.add_step(b);
    ++r.steps_executed;
    if (ckpt_interval > 0 && (s + 1) % ckpt_interval == 0 && s + 1 < nsteps)
      do_checkpoint(s + 1);
  }

  r.slow_suspected = detector.suspected_events();
  for (int rank = 0; rank < nranks; ++rank)
    r.slow_detect_latency_steps =
        std::max(r.slow_detect_latency_steps, detector.detect_latency(rank));
  r.sim.finalize(domain.load.procs);
  r.final_load = load;
  // Unrecoverable exits (state lost, no survivors) set completed=false
  // without a guard verdict; classify them here so every campaign exit
  // lands in the taxonomy.
  if (!r.completed && r.verdict == guard::SolveVerdict::kConverged)
    r.verdict = guard::SolveVerdict::kFaultUnrecoverable;
  return r;
}

double daly_optimal_interval(double checkpoint_cost_s, double mtbf_s) {
  F3D_CHECK(checkpoint_cost_s >= 0 && mtbf_s > 0);
  return std::sqrt(2.0 * checkpoint_cost_s * mtbf_s);
}

double daly_overhead(double interval_s, double checkpoint_cost_s,
                     double restart_s, double mtbf_s) {
  F3D_CHECK(interval_s > 0 && mtbf_s > 0);
  return checkpoint_cost_s / interval_s +
         (interval_s / 2.0 + restart_s) / mtbf_s;
}

}  // namespace f3d::par
