// Tests for the cache/TLB simulator and the traced kernels: LRU
// semantics, associativity conflicts, TLB reach, and numeric equality of
// traced kernels with the production kernels. The layout-sensitivity
// checks here are miniature versions of the Figure 3 experiment.

#include <gtest/gtest.h>

#include <numeric>

#include "cfd/euler.hpp"
#include "common/rng.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "simcache/cache.hpp"
#include "simcache/traced_kernels.hpp"
#include "sparse/assembly.hpp"

namespace {

using namespace f3d;
using namespace f3d::simcache;

TEST(Cache, ColdMissesThenHits) {
  CacheModel c(1024, 64, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(32));  // same 64B line
  EXPECT_FALSE(c.access(64)); // next line
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, CapacityEviction) {
  // 8 lines of 64B, direct... 2-way, 4 sets. Touch 16 distinct lines then
  // re-touch the first: must have been evicted.
  CacheModel c(512, 64, 2);
  for (int i = 0; i < 16; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  c.reset_counters();
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, LruKeepsHotLine) {
  // 2-way set: addresses 0, S, 2S map to the same set (S = set stride).
  // Keep 0 hot; it must survive the insertion of 2S.
  CacheModel c(512, 64, 2);  // 4 sets -> set stride = 4*64 = 256
  c.access(0);
  c.access(256);
  c.access(0);     // refresh 0's recency
  c.access(512);   // evicts 256, not 0
  c.reset_counters();
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(256));
}

TEST(Cache, ConflictMissesDespiteCapacity) {
  // Working set of 3 lines all mapping to one 2-way set thrashes even
  // though the total capacity could hold them: the conflict-miss
  // mechanism of the paper's Eq. 1/2.
  CacheModel c(4096, 64, 2);  // 32 sets, stride 2048
  for (int rep = 0; rep < 10; ++rep)
    for (std::uint64_t a : {0ull, 2048ull, 4096ull}) c.access(a);
  // Round-robin through 3 lines in a 2-way LRU set misses every time.
  EXPECT_EQ(c.hits(), 0u);
}

TEST(Cache, FullyAssociativeTlbReach) {
  // 4-entry, 4 KiB pages: 4 pages fit, the 5th evicts.
  CacheModel tlb(4 * 4096, 4096, 4);
  for (int p = 0; p < 4; ++p) tlb.access(static_cast<std::uint64_t>(p) * 4096);
  tlb.reset_counters();
  for (int p = 0; p < 4; ++p) tlb.access(static_cast<std::uint64_t>(p) * 4096);
  EXPECT_EQ(tlb.misses(), 0u);
  tlb.access(5ull * 4096);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(CacheModel(1000, 64, 2), Error);  // not line multiple
  EXPECT_THROW(CacheModel(0, 64, 2), Error);
  EXPECT_THROW(CacheModel(3 * 64, 64, 2), Error);  // lines % ways != 0
}

TEST(Tracer, TouchWalksLines) {
  MemoryTracer::Config cfg;
  cfg.l1_capacity = 1024;
  cfg.l1_line = 32;
  cfg.l1_assoc = 2;
  cfg.l2_capacity = 4096;
  cfg.l2_line = 64;
  cfg.l2_assoc = 2;
  cfg.tlb_entries = 4;
  cfg.page_size = 4096;
  MemoryTracer t(cfg);
  alignas(64) static double buf[64];
  t.touch(buf, 32 * 8);  // 256 bytes = 8 L1 lines
  EXPECT_EQ(t.l1().accesses(), 8u);
  EXPECT_EQ(t.l1().misses(), 8u);
  t.touch(buf, 32 * 8);
  EXPECT_EQ(t.l1().hits(), 8u);
}

// --- traced kernels ------------------------------------------------------

TEST(TracedKernels, CsrSpmvMatchesProduction) {
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_point_csr(s, 4, fn, sparse::FieldLayout::kInterlaced);
  Rng rng(1);
  std::vector<double> x(a.n), y1(a.n), y2(a.n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  a.spmv(x.data(), y1.data());
  NullTracer nt;
  traced_spmv_csr(a, x.data(), y2.data(), nt);
  for (int i = 0; i < a.n; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(TracedKernels, BcsrSpmvMatchesProduction) {
  auto m = mesh::generate_box_mesh(4, 4, 4);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_bcsr(s, 4, fn);
  Rng rng(2);
  std::vector<double> x(a.scalar_n()), y1(a.scalar_n()), y2(a.scalar_n());
  for (auto& v : x) v = rng.uniform(-1, 1);
  a.spmv(x.data(), y1.data());
  NullTracer nt;
  traced_spmv_bcsr(a, x.data(), y2.data(), nt);
  for (int i = 0; i < a.scalar_n(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(TracedKernels, FluxMatchesProductionFirstOrder) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  auto q = disc.make_freestream_field();
  Rng rng(3);
  for (int v = 0; v < q.num_vertices(); ++v)
    for (int c = 0; c < q.nb(); ++c)
      q.set(v, c, q.get(v, c) + 0.05 * rng.uniform(-1, 1));
  // Production residual includes boundary fluxes; traced_flux covers the
  // edge loop only, so compare against an edge-only reference computed by
  // subtracting the boundary part. Easier: compare traced_flux against a
  // freshly computed edge-only accumulation using the public flux API.
  std::vector<double> r_traced;
  NullTracer nt;
  traced_flux(m, disc.dual(), cfg, q, r_traced, nt);

  std::vector<double> r_ref(r_traced.size(), 0.0);
  const auto& edges = m.edges();
  double ql[cfd::kMaxComponents], qr[cfd::kMaxComponents],
      f[cfd::kMaxComponents];
  for (int e = 0; e < m.num_edges(); ++e) {
    const int i = edges[e][0], j = edges[e][1];
    const double n[3] = {disc.dual().edge_normal[e][0],
                         disc.dual().edge_normal[e][1],
                         disc.dual().edge_normal[e][2]};
    for (int c = 0; c < cfg.nb(); ++c) {
      ql[c] = q.get(i, c);
      qr[c] = q.get(j, c);
    }
    cfd::rusanov_flux(cfg, ql, qr, n, f);
    for (int c = 0; c < cfg.nb(); ++c) {
      r_ref[q.base(i) + c * q.stride()] += f[c];
      r_ref[q.base(j) + c * q.stride()] -= f[c];
    }
  }
  for (std::size_t k = 0; k < r_ref.size(); ++k)
    EXPECT_NEAR(r_traced[k], r_ref[k], 1e-14);
}

TEST(TracedKernels, ReorderedMeshHasFewerTlbMisses) {
  // Miniature Figure 3: a shuffled mesh's flux loop must incur far more
  // TLB misses than the RCM+sorted-edge mesh.
  auto shuffled = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 14, .ny = 8, .nz = 8});
  mesh::shuffle_mesh(shuffled, 7);
  auto ordered = shuffled;
  mesh::apply_best_ordering(ordered);

  cfd::FlowConfig cfg;
  cfg.order = 1;
  MemoryTracer::Config tc;
  tc.tlb_entries = 16;  // small TLB so the small mesh exceeds its reach
  tc.page_size = 4096;
  auto misses_for = [&](const mesh::UnstructuredMesh& mesh) {
    cfd::EulerDiscretization disc(mesh, cfg);
    auto q = disc.make_freestream_field();
    std::vector<double> r;
    MemoryTracer t(tc);
    traced_flux(mesh, disc.dual(), cfg, q, r, t);
    return t.tlb().misses();
  };
  const auto m_shuffled = misses_for(shuffled);
  const auto m_ordered = misses_for(ordered);
  EXPECT_LT(m_ordered * 3, m_shuffled)
      << "ordered " << m_ordered << " vs shuffled " << m_shuffled;
}

TEST(TracedKernels, InterlacingReducesL2MissesForSpmv) {
  // Interlaced point CSR (bandwidth ~ nb*beta) vs non-interlaced
  // (bandwidth ~ N): with a cache smaller than the non-interlaced working
  // set, the non-interlaced layout must miss more on the x gathers.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 14, .ny = 8, .nz = 8});
  mesh::apply_best_ordering(m);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  const int nb = 4;
  auto ai = sparse::build_point_csr(s, nb, fn, sparse::FieldLayout::kInterlaced);
  auto an = sparse::build_point_csr(s, nb, fn, sparse::FieldLayout::kNonInterlaced);

  MemoryTracer::Config tc;
  tc.l2_capacity = 64 * 1024;  // scaled-down L2 for a scaled-down problem
  tc.l2_line = 128;
  tc.l2_assoc = 2;
  auto l2_misses = [&](const sparse::Csr<double>& a) {
    std::vector<double> x(a.n, 1.0), y(a.n);
    MemoryTracer t(tc);
    traced_spmv_csr(a, x.data(), y.data(), t);
    return t.l2().misses();
  };
  EXPECT_LT(l2_misses(ai), l2_misses(an));
}

}  // namespace
