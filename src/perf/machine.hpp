#pragma once
// Machine-parameter models of the paper's testbed platforms. Absolute
// figures are approximations reconstructed from the era's published specs
// and STREAM numbers; the parallel experiments depend on their *ratios*
// (flop rate vs. memory bandwidth vs. network), which are representative.

#include <string>

namespace f3d::perf {

struct MachineModel {
  std::string name;
  int max_nodes = 0;
  int cpus_per_node = 1;
  double cpu_mflops_peak = 0;     ///< per CPU
  double flux_efficiency = 0;     ///< sustained/peak for the flux kernel
                                  ///< (instruction-scheduling-bound)
  double mem_bw_mbs = 0;          ///< per node sustainable (STREAM-like)
  double net_latency_us = 0;      ///< point-to-point
  double net_bw_mbs = 0;          ///< per node injection bandwidth
  double allreduce_latency_us = 0;  ///< per doubling step of a reduction
  double l2_bytes = 0;            ///< last-level cache per CPU
  double cache_bw_multiple = 8;   ///< cache bandwidth / memory bandwidth
  /// Run-to-run per-processor compute-time variance (OS noise, network
  /// contention, DRAM refresh) as a fraction of busy time. On thousands
  /// of nodes the max over processors is what everyone waits for at each
  /// synchronization point.
  double jitter = 0.02;

  /// Sustained per-CPU rate for the flux kernel.
  [[nodiscard]] double flux_mflops() const {
    return cpu_mflops_peak * flux_efficiency;
  }
};

/// ASCI Red: 2 x 333 MHz Pentium Pro per node.
MachineModel asci_red();
/// ASCI Blue Pacific: 4 x 332 MHz PowerPC 604e per node.
MachineModel blue_pacific();
/// Cray T3E-600: 1 x 600 MHz Alpha 21164 per PE, fast torus network.
MachineModel cray_t3e();
/// SGI Origin 2000: 250 MHz R10000 (used for the sequential experiments).
MachineModel origin2000();

}  // namespace f3d::perf
