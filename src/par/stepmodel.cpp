#include "par/stepmodel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "resilience/faults.hpp"

namespace f3d::par {

namespace {

double log2ceil(double p) { return p <= 1 ? 0.0 : std::ceil(std::log2(p)); }

// Retransmit backoff of the lossy-interconnect model: the first wait, and
// the cap its doubling stops at.
constexpr double kBackoff0Us = 50.0;
constexpr double kBackoffMaxUs = 3200.0;

}  // namespace

double model_flux_phase(const perf::MachineModel& machine,
                        const PartitionLoad& load,
                        const WorkCoefficients& work, NodeMode mode) {
  const double flops_max = load.max_edges * work.flux_flops_per_edge;
  const double bytes_max = load.max_edges * work.flux_bytes_per_edge;
  const double rate = machine.flux_mflops() * 1e6;  // per CPU
  const double node_bw = machine.mem_bw_mbs * 1e6;
  switch (mode) {
    case NodeMode::kMpi1:
      // Instruction-bound on one CPU, unless the node bus cannot keep up.
      return std::max(flops_max / rate, bytes_max / node_bw);
    case NodeMode::kMpi2: {
      // Two ranks per node, each on its own CPU at full issue rate, but
      // streaming two separate address spaces through the shared bus.
      // `load` already reflects the doubled rank count, so per-rank work
      // is halved while the node-level byte stream is 2x the per-rank
      // bytes (with the extra cut-edge redundancy of the finer
      // decomposition baked into load.max_edges).
      return std::max(flops_max / rate, 2.0 * bytes_max / node_bw);
    }
    case NodeMode::kHybridOmp2: {
      // Two threads split one subdomain's edges: half the compute, one
      // shared data stream. Afterwards the replicated residual arrays
      // must be gathered — 3 passes over owned*nb doubles (read both
      // replicas, write the sum), the OpenMP overhead the paper calls
      // out. When the arrays fit in cache the gather is nearly free;
      // at large subdomains it is a full memory-bandwidth pass. This
      // cache-residency flip is what moves the §2.5 crossover in favor
      // of the hybrid model only at high node counts (Table 5).
      const double t_compute =
          std::max(flops_max / rate / 2.0, bytes_max / node_bw);
      const double array_bytes = load.max_owned * work.nb * sizeof(double);
      const double gather_bytes = 3.0 * array_bytes;
      const double gather_bw = (2.0 * array_bytes <= machine.l2_bytes)
                                   ? node_bw * machine.cache_bw_multiple
                                   : node_bw;
      return t_compute + gather_bytes / gather_bw;
    }
  }
  return 0;
}

StepBreakdown model_step(const perf::MachineModel& machine,
                         const PartitionLoad& load,
                         const WorkCoefficients& work, const StepCounts& counts,
                         NodeMode mode, const CommReliability* comm,
                         const StepPerturbation* perturb) {
  F3D_CHECK(load.procs >= 1);
  StepBreakdown out;
  if (perturb != nullptr) {
    F3D_CHECK_MSG(perturb->crit_slowdown >= 1.0 &&
                      perturb->avg_slowdown >= 1.0 &&
                      perturb->crit_slowdown >= perturb->avg_slowdown - 1e-12,
                  "StepPerturbation slowdowns must satisfy "
                  "crit >= avg >= 1");
    F3D_CHECK_MSG(perturb->link_factor > 0.0 && perturb->link_factor <= 1.0,
                  "StepPerturbation.link_factor must lie in (0, 1]");
    F3D_CHECK_MSG(perturb->jitter >= 0.0,
                  "StepPerturbation.jitter must be non-negative");
    out.crit_slowdown = perturb->crit_slowdown;
    out.link_factor = perturb->link_factor;
    out.jitter_extra = perturb->jitter;
  }

  // Fault-injection site: a slow (or effectively failed) rank stretches
  // the critical-path load of this step by the injector's magnitude while
  // the average stays put — pure imbalance, the straggler signature.
  PartitionLoad eff;
  const PartitionLoad* lp = &load;
  if (resilience::fault_fires(resilience::FaultSite::kRank)) {
    const double slow =
        resilience::active_injector()->magnitude(resilience::FaultSite::kRank);
    eff = load;
    eff.max_edges *= slow;
    eff.max_owned *= slow;
    out.straggler = true;
    lp = &eff;
  }
  // Fail-slow compute terms: the slowest rank's busy time gates every
  // implicit synchronization (critical path), while the mean stretch
  // raises the busy baseline — the max-avg gap below turns the
  // difference into imbalance wait.
  if (perturb != nullptr && !perturb->trivial()) {
    if (lp != &eff) eff = load;
    eff.max_edges *= perturb->crit_slowdown;
    eff.max_owned *= perturb->crit_slowdown;
    eff.avg_edges *= perturb->avg_slowdown;
    eff.avg_owned *= perturb->avg_slowdown;
    lp = &eff;
  }
  const PartitionLoad& load_eff = *lp;

  const double flux_evals = counts.flux_evals > 0
                                ? counts.flux_evals
                                : counts.linear_its + 3.0;

  // --- flux phase(s): instruction-bound compute ---------------------
  const double t_flux_max = model_flux_phase(machine, load_eff, work, mode);
  const double t_flux_avg =
      t_flux_max * (load_eff.avg_edges / std::max(load_eff.max_edges, 1.0));
  out.t_flux = flux_evals * t_flux_avg;

  // --- sparse linear algebra: memory-bandwidth-bound ------------------
  // Per node bandwidth is shared by colocated ranks.
  const int ranks_per_node = mode == NodeMode::kMpi2 ? 2 : 1;
  const double bw = machine.mem_bw_mbs * 1e6 / ranks_per_node;
  const double sparse_bytes_max =
      load_eff.max_owned * work.sparse_bytes_per_vertex_it;
  const double sparse_bytes_avg =
      load_eff.avg_owned * work.sparse_bytes_per_vertex_it;
  const double t_sparse_max = counts.linear_its * sparse_bytes_max / bw;
  out.t_sparse = counts.linear_its * sparse_bytes_avg / bw;

  // --- imbalance waits at communication events -------------------------
  // Every scatter or reduction synchronizes; the wait is the max-vs-avg
  // gap of the compute since the previous event, and removing individual
  // sync points only moves the wait to the next event (the paper's
  // observation). The total wait is the step's (max - avg) compute gap;
  // following the paper's measurement methodology it shows up spread
  // across whichever communication routine the processor blocks in, so we
  // attribute it 50% to the dedicated "implicit synchronization" bucket
  // and 25% each to the reduction and scatter buckets.
  const double gap_flux = flux_evals * (t_flux_max - t_flux_avg);
  const double gap_sparse = t_sparse_max - out.t_sparse;
  // Machine jitter adds an imbalance-like wait proportional to busy time;
  // a fail-slow perturbation's transient OS-noise term stacks on top.
  const double jitter_frac =
      machine.jitter + (perturb != nullptr ? perturb->jitter : 0.0);
  const double jitter_wait = jitter_frac * (out.t_flux + out.t_sparse);
  const double wait_total = gap_flux + gap_sparse + jitter_wait;
  out.t_implicit_sync = 0.5 * wait_total;

  // --- global reductions ----------------------------------------------
  const double reductions = counts.linear_its * counts.dots_per_linear_it +
                            2.0;  // + norm checks per step
  out.t_reductions = reductions * log2ceil(load.procs) *
                         machine.allreduce_latency_us * 1e-6 +
                     0.25 * wait_total;

  // --- ghost point scatters -------------------------------------------
  const double scatters =
      counts.linear_its * counts.scatters_per_linear_it + flux_evals;
  const double ghost_bytes = load.max_ghosts * work.nb * work.halo_scalar_bytes;
  const double msg_lat =
      load.max_neighbors * machine.net_latency_us * 1e-6;
  // Message packing/unpacking is a *gather* over scattered vertices, far
  // below streaming bandwidth (~30% of it), performed on both the send
  // and receive sides (pack, unpack, plus the MPI-internal copies): ~6
  // memory passes over the ghost data. This is why the application-level
  // effective bandwidth (Table 3, last column) sits an order of magnitude
  // below the wire bandwidth.
  const double pack_bw = 0.3 * machine.mem_bw_mbs * 1e6;
  const double pack_time = 6.0 * ghost_bytes / pack_bw;
  const double wire_healthy = 2.0 * ghost_bytes / (machine.net_bw_mbs * 1e6);
  double wire_time = wire_healthy;
  const double net_bw = machine.net_bw_mbs * 1e6;
  const double msg_bytes = ghost_bytes / std::max(load.max_neighbors, 1.0);

  // Contention on a degraded link: every message crossing the sick rank's
  // links moves at link_factor * beta, and because the scatter is bulk-
  // synchronous its max_neighbors peers all queue behind those transfers
  // — the stretched wire time lands on the global critical path.
  const double link =
      perturb != nullptr ? perturb->link_factor : 1.0;
  double t_timeout_recovery = 0;
  if (link < 1.0) {
    const double per_msg_degraded =
        machine.net_latency_us * 1e-6 + msg_bytes / (net_bw * link);
    const bool timeout_fires = comm != nullptr && comm->halo_timeout_us > 0 &&
                               per_msg_degraded > comm->halo_timeout_us * 1e-6;
    if (timeout_fires) {
      // Mitigation rung 1: cancel the stalled send at the timeout and
      // re-post it on the fallback path (secondary NIC / alternate
      // route) at healthy bandwidth. The timeout wait, one capped
      // backoff, and the re-posted transfer latency are charged to
      // t_recovery; the scatter itself completes at healthy beta.
      const int ops = static_cast<int>(std::lround(scatters));
      const double backoff = kBackoff0Us * 1e-6;
      const double repost = machine.net_latency_us * 1e-6 + msg_bytes / net_bw;
      t_timeout_recovery =
          ops * (comm->halo_timeout_us * 1e-6 + backoff + repost);
      out.halo_timeouts += ops;
    } else {
      wire_time = wire_healthy / link;
    }
  }
  out.t_scatter =
      scatters * (msg_lat + wire_time + pack_time) + 0.25 * wait_total;
  out.t_recovery += t_timeout_recovery;

  // --- lossy interconnect: checksums + retransmit with backoff ---------
  if (comm != nullptr) {
    // Checksum tax: one CRC pass over the ghost payload on each side of
    // every scatter, at a fraction of streaming bandwidth.
    const double crc_bw = kChecksumBwFraction * machine.mem_bw_mbs * 1e6;
    out.t_scatter += scatters * 2.0 * ghost_bytes / crc_bw;
    // One corruption opportunity per communication operation. A fired
    // message backs off exponentially and resends; each retry draws again
    // at the same site, so a burst of fires models a noisy link.
    const double msg_resend = machine.net_latency_us * 1e-6 +
                              msg_bytes / (machine.net_bw_mbs * 1e6) +
                              2.0 * msg_bytes / crc_bw;
    const double red_resend = log2ceil(load.procs) *
                              machine.allreduce_latency_us * 1e-6;
    auto episode = [&](double resend_cost) {
      double t = 0;
      double backoff = kBackoff0Us * 1e-6;
      int tries = 0;
      do {
        t += backoff + resend_cost;
        backoff = std::min(backoff * 2.0, kBackoffMaxUs * 1e-6);
        ++out.retransmits;
        obs::Registry::global().count("par.halo_retransmits");
        ++tries;
      } while (tries < comm->max_retries &&
               resilience::fault_fires(resilience::FaultSite::kMessage));
      return t;
    };
    const int scatter_ops = static_cast<int>(std::lround(scatters));
    const int reduce_ops = static_cast<int>(std::lround(reductions));
    for (int i = 0; i < scatter_ops; ++i)
      if (resilience::fault_fires(resilience::FaultSite::kMessage))
        out.t_recovery += episode(msg_resend);
    for (int i = 0; i < reduce_ops; ++i)
      if (resilience::fault_fires(resilience::FaultSite::kMessage))
        out.t_recovery += episode(red_resend);
    // Bound the comm model's charge: however pathological the loss rate
    // or the degraded link, one step's retransmit/timeout recovery never
    // exceeds the configured cap (the campaign driver's rework/restore
    // charges are added later and are not clamped here).
    out.t_recovery = std::min(out.t_recovery, comm->step_recovery_cap_s);
  }

  out.scatter_bytes_total =
      scatters * load.avg_ghosts * work.nb * work.halo_scalar_bytes *
      load.procs;
  const double per_node_bytes =
      scatters * load.avg_ghosts * work.nb * work.halo_scalar_bytes;
  out.effective_bw_per_node_mbs =
      out.t_scatter > 0 ? per_node_bytes / out.t_scatter * 1e-6 : 0;

  // --- total flops for Gflop/s reporting ------------------------------
  const double flux_flops_all =
      flux_evals * load.total_edges * work.flux_flops_per_edge;
  const double sparse_flops_all = counts.linear_its *
                                  load.total_vertices *
                                  work.sparse_flops_per_vertex_it;
  out.flops_total = flux_flops_all + sparse_flops_all;

  return out;
}

void SolveSimulation::add_step(const StepBreakdown& b) {
  if (b.straggler) ++straggler_steps;
  step_seconds.push_back(b.total());
  total_seconds += b.total();
  aggregate.t_flux += b.t_flux;
  aggregate.t_sparse += b.t_sparse;
  aggregate.t_reductions += b.t_reductions;
  aggregate.t_scatter += b.t_scatter;
  aggregate.t_implicit_sync += b.t_implicit_sync;
  aggregate.t_recovery += b.t_recovery;
  aggregate.retransmits += b.retransmits;
  aggregate.halo_timeouts += b.halo_timeouts;
  aggregate.crit_slowdown = std::max(aggregate.crit_slowdown, b.crit_slowdown);
  aggregate.link_factor = std::min(aggregate.link_factor, b.link_factor);
  aggregate.jitter_extra = std::max(aggregate.jitter_extra, b.jitter_extra);
  aggregate.scatter_bytes_total += b.scatter_bytes_total;
  aggregate.flops_total += b.flops_total;
}

void SolveSimulation::finalize(int procs) {
  aggregate.effective_bw_per_node_mbs =
      aggregate.t_scatter > 0
          ? aggregate.scatter_bytes_total / static_cast<double>(procs) /
                aggregate.t_scatter * 1e-6
          : 0;
}

SolveSimulation simulate_solve(const perf::MachineModel& machine,
                               const PartitionLoad& load,
                               const WorkCoefficients& work,
                               const std::vector<StepCounts>& steps,
                               NodeMode mode, const CommReliability* comm) {
  F3D_CHECK(!steps.empty());
  SolveSimulation sim;
  sim.step_seconds.reserve(steps.size());
  for (const auto& counts : steps)
    sim.add_step(model_step(machine, load, work, counts, mode, comm));
  sim.finalize(load.procs);
  return sim;
}

std::vector<EfficiencyRow> efficiency_decomposition(
    const std::vector<ScalingPoint>& points) {
  F3D_CHECK(!points.empty());
  const auto& base = points.front();
  F3D_CHECK(base.time > 0 && base.its > 0);
  std::vector<EfficiencyRow> rows;
  rows.reserve(points.size());
  for (const auto& p : points) {
    EfficiencyRow r;
    r.procs = p.procs;
    r.speedup = base.time / p.time;
    r.eta_overall =
        (base.time * base.procs) / (p.time * static_cast<double>(p.procs));
    r.eta_alg = base.its / p.its;
    r.eta_impl = r.eta_alg > 0 ? r.eta_overall / r.eta_alg : 0;
    rows.push_back(r);
  }
  return rows;
}

}  // namespace f3d::par
