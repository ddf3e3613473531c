#include "perf/machine.hpp"

namespace f3d::perf {

MachineModel asci_red() {
  MachineModel m;
  m.name = "ASCI Red";
  m.max_nodes = 3072;
  m.cpus_per_node = 2;
  m.cpu_mflops_peak = 333;      // 1 flop/cycle Pentium Pro
  m.flux_efficiency = 0.26;
  m.mem_bw_mbs = 140;           // per-node sustainable
  m.net_latency_us = 15;
  m.net_bw_mbs = 310;           // 400 MB/s links, ~310 achievable
  m.allreduce_latency_us = 18;
  m.l2_bytes = 512 * 1024;      // Pentium Pro L2
  m.jitter = 0.04;              // Cougar OS era MPP noise
  return m;
}

MachineModel blue_pacific() {
  MachineModel m;
  m.name = "Blue Pacific";
  m.max_nodes = 1464;
  m.cpus_per_node = 4;
  m.cpu_mflops_peak = 664;      // 2 flops/cycle PowerPC 604e
  m.flux_efficiency = 0.15;
  m.mem_bw_mbs = 160;
  m.net_latency_us = 28;        // slower interconnect than Red
  m.net_bw_mbs = 150;
  m.allreduce_latency_us = 35;
  m.l2_bytes = 256 * 1024;
  m.jitter = 0.05;              // full AIX per node
  return m;
}

MachineModel cray_t3e() {
  MachineModel m;
  m.name = "Cray T3E";
  m.max_nodes = 1024;
  m.cpus_per_node = 1;
  m.cpu_mflops_peak = 1200;     // 2 flops/cycle EV5 @ 600 MHz
  m.flux_efficiency = 0.11;
  m.mem_bw_mbs = 600;           // streams-friendly local memory
  m.net_latency_us = 3;         // the torus: low latency, high bandwidth
  m.net_bw_mbs = 480;
  m.allreduce_latency_us = 4;
  m.l2_bytes = 96 * 1024;       // EV5 on-chip S-cache; no board cache
  m.jitter = 0.015;             // microkernel PEs: very quiet
  return m;
}

MachineModel origin2000() {
  MachineModel m;
  m.name = "Origin 2000";
  m.max_nodes = 128;
  m.cpus_per_node = 1;          // modeled per-CPU
  m.cpu_mflops_peak = 500;      // 2 flops/cycle R10000 @ 250 MHz
  m.flux_efficiency = 0.22;
  m.mem_bw_mbs = 300;
  m.net_latency_us = 1;         // ccNUMA
  m.net_bw_mbs = 600;
  m.allreduce_latency_us = 2;
  m.l2_bytes = 4 * 1024 * 1024; // the R10000 4 MB L2 of Table 1
  m.jitter = 0.02;
  return m;
}

}  // namespace f3d::perf
