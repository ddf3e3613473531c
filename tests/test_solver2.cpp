// Tests for the second wave of solver features: BiCGSTAB, the SSOR
// subdomain solve, the ILU factor assembled in place, the matrix-free
// toggle, Morton ordering, and the 3C miss classification of the cache
// simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "cfd/euler.hpp"
#include "common/rng.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "resilience/faults.hpp"
#include "simcache/cache.hpp"
#include "solver/krylov.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using namespace f3d::solver;
using sparse::Vec;

struct Sys {
  sparse::Bcsr<double> a;
  Vec b, x_true;
  mesh::Graph g;
};

Sys make_sys(int nb = 4, int nx = 4) {
  auto m = mesh::generate_box_mesh(nx, nx, nx);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  Sys sys;
  sys.a = sparse::build_bcsr(s, nb, fn);
  Rng rng(1);
  sys.x_true.resize(sys.a.scalar_n());
  for (auto& v : sys.x_true) v = rng.uniform(-1, 1);
  sys.b.resize(sys.x_true.size());
  sys.a.spmv(sys.x_true, sys.b);
  sys.g = mesh::build_graph(m.num_vertices(), m.edges());
  return sys;
}

LinearOperator op_of(const sparse::Bcsr<double>& a) {
  LinearOperator op;
  op.n = a.scalar_n();
  op.apply = [&a](const double* x, double* y) { a.spmv(x, y); };
  return op;
}

// --- BiCGSTAB ------------------------------------------------------------

TEST(Bicgstab, SolvesBlockSystem) {
  auto sys = make_sys();
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  Vec x(op.n, 0.0);
  GmresOptions o;
  o.rtol = 1e-10;
  o.max_iters = 400;
  auto r = bicgstab(op, m, sys.b, x, o);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
  double err = 0;
  for (int i = 0; i < op.n; ++i)
    err = std::max(err, std::abs(x[i] - sys.x_true[i]));
  EXPECT_LT(err, 1e-7);
}

TEST(Bicgstab, PreconditioningHelps) {
  auto sys = make_sys(4, 5);
  auto op = op_of(sys.a);
  IdentityPreconditioner ident(op.n);
  auto ilu = make_global_ilu(sys.a, 0);
  GmresOptions o;
  o.rtol = 1e-8;
  Vec x1(op.n, 0.0), x2(op.n, 0.0);
  auto r1 = bicgstab(op, ident, sys.b, x1, o);
  auto r2 = bicgstab(op, *ilu, sys.b, x2, o);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(Bicgstab, AgreesWithGmres) {
  auto sys = make_sys();
  auto op = op_of(sys.a);
  auto ilu = make_global_ilu(sys.a, 1);
  Vec xg(op.n, 0.0), xb(op.n, 0.0);
  GmresOptions og;
  og.rtol = 1e-10;
  og.max_iters = 300;
  GmresOptions ob;
  ob.rtol = 1e-10;
  ob.max_iters = 300;
  EXPECT_TRUE(gmres(op, *ilu, sys.b, xg, og).converged);
  EXPECT_TRUE(bicgstab(op, *ilu, sys.b, xb, ob).converged);
  for (int i = 0; i < op.n; ++i) EXPECT_NEAR(xg[i], xb[i], 1e-6);
}

TEST(Bicgstab, ExactInitialGuessReturnsImmediately) {
  auto sys = make_sys(2, 3);
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  Vec x = sys.x_true;
  auto r = bicgstab(op, m, sys.b, x, {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Bicgstab, CountsWork) {
  auto sys = make_sys(2, 3);
  auto op = op_of(sys.a);
  IdentityPreconditioner m(op.n);
  Vec x(op.n, 0.0);
  GmresOptions o;
  o.rtol = 1e-8;
  auto r = bicgstab(op, m, sys.b, x, o);
  // Two matvecs per full iteration (plus the initial residual).
  EXPECT_GE(r.counters.matvecs, 2 * (r.iterations - 1));
  EXPECT_GT(r.counters.dots, 0);
}

// --- SSOR subdomain solver -------------------------------------------------

TEST(Ssor, ConvergesGmresAndMoreSweepsHelp) {
  auto sys = make_sys(4, 5);
  auto op = op_of(sys.a);
  auto partition = part::kway_grow(sys.g, 4);
  auto its_for = [&](int sweeps) {
    SchwarzOptions so;
    so.type = SchwarzType::kBlockJacobi;
    so.subdomain_solver = SubdomainSolver::kSsor;
    so.sweeps = sweeps;
    SchwarzPreconditioner prec(sys.a, partition, so);
    GmresOptions o;
    o.rtol = 1e-8;
    o.max_iters = 300;
    Vec x(op.n, 0.0);
    auto r = gmres(op, prec, sys.b, x, o);
    EXPECT_TRUE(r.converged) << prec.name();
    return r.iterations;
  };
  EXPECT_LE(its_for(3), its_for(1));
}

TEST(Ssor, NameReflectsConfiguration) {
  auto sys = make_sys(2, 3);
  auto partition = part::kway_grow(sys.g, 2);
  SchwarzOptions so;
  so.type = SchwarzType::kBlockJacobi;
  so.subdomain_solver = SubdomainSolver::kSsor;
  so.sweeps = 3;
  SchwarzPreconditioner prec(sys.a, partition, so);
  EXPECT_NE(prec.name().find("ssor(3)"), std::string::npos);
}

// --- A assembled straight into the factor -----------------------------------

void expect_same_bytes(const std::vector<double>& a,
                       const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

TEST(InPlace, FactorMatchesTheGatheredFactorBitwise) {
  const auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  for (const auto model : {cfd::Model::kIncompressible, cfd::Model::kCompressible}) {
    cfd::FlowConfig cfg;
    cfg.model = model;
    cfg.order = 1;
    cfd::EulerDiscretization disc(m, cfg);
    auto q = disc.make_freestream_field();
    const auto q0 = q.data();
    std::vector<double> sr;
    disc.spectral_radius(q, sr);
    // J + D at state q, the operator the driver factors; `calls` counts
    // the assemblies.
    int calls = 0;
    const sparse::BlockAssembler assemble = [&](sparse::Bcsr<double>& a) {
      ++calls;
      disc.jacobian(q, a);
      for (int v = 0; v < a.nrows; ++v) {
        double* blk = a.find_block(v, v);
        for (int c = 0; c < a.nb; ++c) blk[c * a.nb + c] += sr[v] / 10;
      }
    };
    const auto pattern = disc.allocate_jacobian();
    const auto assembled = [&] {
      auto a = pattern;
      assemble(a);
      return a;
    };
    const part::Partition one{1, std::vector<int>(pattern.nrows, 0)};
    const int n = pattern.scalar_n();
    Vec r(n);
    for (int i = 0; i < n; ++i) r[i] = std::sin(0.37 * i);

    for (const int fill : {0, 1}) {
      const std::string tag = "model " + std::to_string(static_cast<int>(model)) +
                              ", ILU(" + std::to_string(fill) + ")";
      {
        // The factor alone: its values from a gather and from the
        // assembler, built and then refactored through a fill that edits
        // the diagonal.
        q.data() = q0;
        const auto a = assembled();
        sparse::BlockIlu<double> gathered(a, fill);
        sparse::BlockIlu<double> in_place(
            sparse::fill_pattern(pattern.ptr, pattern.col, fill), pattern.nb);
        calls = 0;
        ASSERT_TRUE(in_place.refactor(assemble).ok);
        EXPECT_EQ(calls, 1);
        expect_same_bytes(gathered.values(), in_place.values(), tag + " build");
        const auto edited = [](const sparse::BlockAssembler& base) {
          return [&base](sparse::Bcsr<double>& m) {
            base(m);
            for (int k = 1; k < m.nrows; k += 3) m.find_block(k, k)[0] *= 2;
          };
        };
        const auto map = sparse::principal_submatrix(a.ptr, a.col, {}, fill).second;
        const sparse::BlockAssembler gather = [&](sparse::Bcsr<double>& m) {
          map.gather(a, m);
        };
        ASSERT_TRUE(gathered.refactor(edited(gather)).ok);
        ASSERT_TRUE(in_place.refactor(edited(assemble)).ok);
        expect_same_bytes(gathered.values(), in_place.values(),
                          tag + " refactor");
        EXPECT_THROW((void)in_place.refactor(a), Error);
      }

      // The preconditioner: the build, a refresh at a new state, and a
      // refresh whose kFactorPivot draw (the third) fires and climbs the
      // shift ladder.
      SchwarzOptions so;
      so.fill_level = fill;
      struct Trace {
        std::vector<Vec> z;
        std::vector<resilience::FactorReport> reports;
        std::vector<int> calls;
      };
      const auto run = [&](bool in_place) {
        resilience::FaultInjector inj(1);
        resilience::FaultPlan plan;
        plan.fire_every = 1000;
        plan.skip_first = 2;
        inj.arm(resilience::FaultSite::kFactorPivot, plan);
        resilience::InjectorScope scope(&inj);
        Trace t;
        q.data() = q0;
        calls = 0;
        auto prec = in_place
                        ? std::make_unique<SchwarzPreconditioner>(pattern, so,
                                                                  assemble)
                        : std::make_unique<SchwarzPreconditioner>(assembled(),
                                                                  one, so);
        for (int refresh = 0; refresh < 3; ++refresh) {
          if (refresh > 0) {
            for (std::size_t k = 0; k < q0.size(); ++k)
              q.data()[k] = q0[k] * (1 + 0.01 * refresh * std::cos(0.1 * k));
            calls = 0;
            t.reports.push_back(in_place ? prec->refactor(assemble, 8)
                                         : prec->refactor(assembled(), 8));
          }
          t.calls.push_back(calls);
          Vec z(n);
          prec->apply(r.data(), z.data());
          t.z.push_back(z);
        }
        EXPECT_EQ(inj.fires(resilience::FaultSite::kFactorPivot), 1);
        return t;
      };
      const Trace gathered = run(false), in_place = run(true);
      for (int k = 0; k < 3; ++k)
        expect_same_bytes(gathered.z[k], in_place.z[k],
                          tag + " apply " + std::to_string(k));
      for (int k = 0; k < 2; ++k) {
        const auto& g = gathered.reports[k];
        const auto& p = in_place.reports[k];
        EXPECT_EQ(g.ok, p.ok) << tag;
        EXPECT_EQ(g.shift_attempts, p.shift_attempts) << tag;
        EXPECT_EQ(std::memcmp(&g.shift_used, &p.shift_used, sizeof(double)), 0)
            << tag;
        EXPECT_EQ(g.detail, p.detail) << tag;
      }
      const auto& laddered = in_place.reports[1];
      EXPECT_TRUE(laddered.ok) << tag;
      EXPECT_GE(laddered.shift_attempts, 1) << tag;
      EXPECT_EQ(in_place.calls, (std::vector<int>{1, 1, 1 + laddered.shift_attempts}))
          << tag;
    }
  }
}

// --- Morton ordering --------------------------------------------------------

TEST(Morton, IsPermutation) {
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 8, .ny = 5, .nz = 5});
  mesh::shuffle_mesh(m, 4);
  auto perm = mesh::morton_ordering(m);
  std::set<int> s(perm.begin(), perm.end());
  EXPECT_EQ(static_cast<int>(s.size()), m.num_vertices());
}

TEST(Morton, ImprovesMeanEdgeLocalityVsShuffled) {
  // Z-order is a *locality* ordering: it shrinks the typical |i-j| gap
  // across edges (cache/TLB behaviour) even though its worst-case
  // bandwidth stays large at quadrant boundaries.
  auto mean_gap = [](const mesh::UnstructuredMesh& mm) {
    double s = 0;
    for (const auto& e : mm.edges()) s += e[1] - e[0];
    return s / mm.num_edges();
  };
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 10, .ny = 6, .nz = 6});
  mesh::shuffle_mesh(m, 9);
  const double gap_shuffled = mean_gap(m);
  m.permute_vertices(mesh::morton_ordering(m));
  EXPECT_LT(mean_gap(m), gap_shuffled / 3);
}

TEST(Morton, RcmStillBetterOnBandwidth) {
  // SFC ordering is locality-good but bandwidth-worse than RCM — the
  // documented tradeoff.
  auto m = mesh::generate_wing_mesh(mesh::WingMeshConfig{.nx = 10, .ny = 6, .nz = 6});
  mesh::shuffle_mesh(m, 9);
  auto m_sfc = m;
  m_sfc.permute_vertices(mesh::morton_ordering(m_sfc));
  auto m_rcm = m;
  m_rcm.permute_vertices(mesh::rcm_ordering(m_rcm.vertex_adjacency()));
  EXPECT_LE(m_rcm.bandwidth(), m_sfc.bandwidth());
}

// --- 3C miss classification ---------------------------------------------

TEST(MissClass, ColdPassIsAllCompulsory) {
  simcache::CacheModel c(1024, 64, 2, /*classify=*/true);
  for (int i = 0; i < 8; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  EXPECT_EQ(c.compulsory_misses(), 8u);
  EXPECT_EQ(c.capacity_misses(), 0u);
  EXPECT_EQ(c.conflict_misses(), 0u);
}

TEST(MissClass, ThrashingSetIsConflict) {
  // 3 lines mapping to one 2-way set of a large cache: pure conflict.
  simcache::CacheModel c(4096, 64, 2, true);  // 32 sets, stride 2048
  for (int rep = 0; rep < 5; ++rep)
    for (std::uint64_t a : {0ull, 2048ull, 4096ull}) c.access(a);
  EXPECT_EQ(c.compulsory_misses(), 3u);
  EXPECT_EQ(c.capacity_misses(), 0u);
  EXPECT_GT(c.conflict_misses(), 8u);
}

TEST(MissClass, StreamingBeyondCapacityIsCapacity) {
  // Cycle through 4x the capacity sequentially: repeats miss in the
  // fully-associative shadow too -> capacity misses.
  simcache::CacheModel c(1024, 64, 2, true);  // 16 lines
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 64; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  EXPECT_EQ(c.compulsory_misses(), 64u);
  EXPECT_GT(c.capacity_misses(), 100u);
  EXPECT_EQ(c.misses(),
            c.compulsory_misses() + c.capacity_misses() + c.conflict_misses());
}

TEST(MissClass, SumIdentityAlwaysHolds) {
  Rng rng(5);
  simcache::CacheModel c(2048, 64, 4, true);
  for (int i = 0; i < 5000; ++i)
    c.access(rng.below(1 << 16) & ~63ull);
  EXPECT_EQ(c.misses(),
            c.compulsory_misses() + c.capacity_misses() + c.conflict_misses());
  EXPECT_GT(c.hits() + c.misses(), 0u);
}

TEST(MissClass, DisabledByDefault) {
  simcache::CacheModel c(1024, 64, 2);
  for (int i = 0; i < 100; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  EXPECT_EQ(c.compulsory_misses(), 0u);
  EXPECT_GT(c.misses(), 0u);
}

}  // namespace
