// Tests for the performance-model substrate: the paper's Eq. 1/2 miss
// bounds, the SpMV traffic/bandwidth model, STREAM, and machine presets.

#include <gtest/gtest.h>

#include "perf/machine.hpp"
#include "perf/models.hpp"
#include "perf/stream.hpp"

namespace {

using namespace f3d::perf;

TEST(MissBounds, ZeroWhenWorkingSetFits) {
  EXPECT_EQ(conflict_miss_bound(1000, 4096, 8192, 16), 0u);
  EXPECT_EQ(tlb_miss_bound(1000, 1 << 20, 64, 4096 * 64), 0u);
}

TEST(MissBounds, Eq1VersusEq2Contrast) {
  // Paper Eq. 1 (span ~ N, non-interlaced) vs Eq. 2 (span ~ beta): with
  // N >> beta the non-interlaced working set overflows the cache while the
  // interlaced one fits. Sized at the paper's 2.8M-vertex case, where
  // N = 11.2M DOFs >> the 0.5M doubles of a 4 MB L2.
  const std::uint64_t rows = 11200000;  // 2.8M vertices * 4 DOFs
  const std::uint64_t beta = 4 * 30000; // nb * RCM bandwidth
  const std::uint64_t cache_dw = 4 * 1024 * 1024 / 8;  // 4 MB L2
  const std::uint64_t line_dw = 16;                     // 128 B lines
  const auto non_interlaced =
      conflict_miss_bound(rows, rows, cache_dw, line_dw);  // span ~ N
  const auto interlaced = conflict_miss_bound(rows, beta, cache_dw, line_dw);
  EXPECT_EQ(interlaced, 0u);  // fits the 4 MB cache
  EXPECT_GT(non_interlaced, 0u);
}

TEST(MissBounds, GrowsLinearlyInExcess) {
  const auto a = conflict_miss_bound(100, 2000, 1000, 10);
  const auto b = conflict_miss_bound(100, 3000, 1000, 10);
  EXPECT_EQ(a, 100u * 100u);  // (2000-1000)/10 per row
  EXPECT_EQ(b, 100u * 200u);
}

TEST(MissBounds, TlbUsesPageGranularity) {
  // reach = 16 pages of 4K = 64K; span 96K -> 8 pages excess per row.
  EXPECT_EQ(tlb_miss_bound(10, 96 * 1024, 16, 4096), 10u * 8u);
}

TEST(SpmvModel, BlockingReducesIndexTraffic) {
  // Same operator: N vertices, nnzb blocks of nb=4 vs expanded point CSR.
  SpmvShape blocked{.block_rows = 10000, .blocks = 70000, .nb = 4};
  SpmvShape point{.block_rows = 40000,
                  .blocks = 70000ull * 16,
                  .nb = 1};
  auto tb = spmv_traffic(blocked);
  auto tp = spmv_traffic(point);
  EXPECT_DOUBLE_EQ(tb.matrix_bytes, tp.matrix_bytes);
  EXPECT_LT(tb.index_bytes * 4, tp.index_bytes);
  EXPECT_LT(tb.total(), tp.total());
  // Identical flop counts.
  EXPECT_DOUBLE_EQ(spmv_flops(blocked), spmv_flops(point));
}

TEST(SpmvModel, BandwidthBoundScalesWithBw) {
  SpmvShape s{.block_rows = 10000, .blocks = 70000, .nb = 4};
  const double m1 = spmv_mflops_bound(s, 1000);
  const double m2 = spmv_mflops_bound(s, 2000);
  EXPECT_NEAR(m2, 2 * m1, 1e-9);
  EXPECT_GT(m1, 0);
}

TEST(SpmvModel, PoorReuseLowersBound) {
  SpmvShape good{.block_rows = 10000, .blocks = 70000, .nb = 4, .x_reuse = 1.0};
  SpmvShape bad = good;
  bad.x_reuse = 6.0;  // colored-edge-style thrashing
  EXPECT_GT(spmv_mflops_bound(good, 1000), spmv_mflops_bound(bad, 1000));
}

TEST(SpmvModel, SinglePrecisionSpeedupBound) {
  // All traffic in the factors -> 2x; none -> 1x.
  EXPECT_DOUBLE_EQ(single_precision_speedup_bound(1.0), 2.0);
  EXPECT_DOUBLE_EQ(single_precision_speedup_bound(0.0), 1.0);
  EXPECT_GT(single_precision_speedup_bound(0.8), 1.5);
}

TEST(Stream, RatesPositiveAndOrdered) {
  // Small arrays for test speed; still far larger than L1.
  auto r = run_stream(1 << 20, 2);
  EXPECT_GT(r.copy_mbs, 0);
  EXPECT_GT(r.scale_mbs, 0);
  EXPECT_GT(r.add_mbs, 0);
  EXPECT_GT(r.triad_mbs, 0);
  EXPECT_GE(r.best(), r.copy_mbs);
  EXPECT_GE(r.best(), r.triad_mbs);
}

TEST(Machines, PresetsAreSane) {
  for (const auto& m :
       {asci_red(), blue_pacific(), cray_t3e(), origin2000()}) {
    EXPECT_FALSE(m.name.empty());
    EXPECT_GT(m.max_nodes, 0);
    EXPECT_GT(m.cpu_mflops_peak, 0);
    EXPECT_GT(m.mem_bw_mbs, 0);
    EXPECT_GT(m.net_bw_mbs, 0);
    EXPECT_GT(m.flux_mflops(), 0);
  }
}

TEST(Machines, T3eHasFastestNetwork) {
  EXPECT_LT(cray_t3e().net_latency_us, asci_red().net_latency_us);
  EXPECT_LT(cray_t3e().net_latency_us, blue_pacific().net_latency_us);
}

}  // namespace
