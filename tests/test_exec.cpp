// Shared-memory execution layer tests: pool chunking/nesting/exceptions,
// the fixed-block deterministic reductions, edge-coloring validity on
// shuffled wing meshes, level-schedule correctness for the ILU triangular
// factors, bit-identity of the parallel kernels (residual, SpMV, ILU
// trisolve, dot) across thread counts, and byte-identical psi-NKS
// checkpoints at 1/2/4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cfd/euler.hpp"
#include "cfd/problem.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"
#include "mesh/generator.hpp"
#include "mesh/mesh.hpp"
#include "mesh/ordering.hpp"
#include "solver/newton.hpp"
#include "sparse/ilu.hpp"

namespace {

using namespace f3d;

// --- pool ---------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnceAtAnyThreadCount) {
  for (int nt : {1, 2, 3, 4, 7}) {
    exec::ThreadPool pool(nt);
    const std::int64_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        },
        /*grain=*/64);
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " nt=" << nt;
  }
}

TEST(ThreadPool, EmptyAndTinyRangesRunInline) {
  exec::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> seen;
  pool.parallel_for(3, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) seen.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6}));  // one inline chunk
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  exec::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(
      0, 8,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          exec::pool().parallel_for(
              0, 10,
              [&](std::int64_t l2, std::int64_t h2) {
                total.fetch_add(static_cast<int>(h2 - l2));
              },
              /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 1000,
                   [&](std::int64_t lo, std::int64_t) {
                     if (lo >= 0) throw std::runtime_error("boom");
                   },
                   /*grain=*/64),
               std::runtime_error);
  // The pool must still be usable after a failed job.
  std::atomic<int> n{0};
  pool.parallel_for(
      0, 100, [&](std::int64_t lo, std::int64_t hi) {
        n.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/16);
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, ThreadScopeRestoresGlobalCount) {
  const int before = exec::num_threads();
  {
    exec::ThreadScope scope(3);
    EXPECT_EQ(exec::num_threads(), 3);
    {
      exec::ThreadScope inner(2);
      EXPECT_EQ(exec::num_threads(), 2);
    }
    EXPECT_EQ(exec::num_threads(), 3);
  }
  EXPECT_EQ(exec::num_threads(), before);
}

// --- deterministic reductions --------------------------------------------

TEST(Reduce, DotIsBitIdenticalAcrossThreadCounts) {
  // Size straddles several reduction blocks plus a ragged tail.
  const std::int64_t n = 3 * exec::kReduceBlock + 1234;
  std::vector<double> x(n), y(n);
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.001 * static_cast<double>(i)) * 1e3;
    y[i] = std::cos(0.0017 * static_cast<double>(i));
  }
  double ref = 0;
  {
    exec::ThreadScope scope(1);
    ref = exec::dot(n, x.data(), y.data());
  }
  for (int nt : {2, 3, 4, 8}) {
    exec::ThreadScope scope(nt);
    const double d = exec::dot(n, x.data(), y.data());
    EXPECT_EQ(std::memcmp(&d, &ref, sizeof d), 0) << "nt=" << nt;
  }
  // And close to the serial left-to-right sum.
  double serial = 0;
  for (std::int64_t i = 0; i < n; ++i) serial += x[i] * y[i];
  EXPECT_NEAR(ref, serial, 1e-6 * std::abs(serial) + 1e-9);
}

TEST(Reduce, SumAgreesWithSerial) {
  const std::int64_t n = exec::kReduceBlock + 37;
  std::vector<double> x(n);
  for (std::int64_t i = 0; i < n; ++i)
    x[i] = (i % 7 == 0 ? -1.0 : 1.0) * 0.5 * static_cast<double>(i % 100);
  exec::ThreadScope scope(4);
  double serial_sum = 0;
  for (double v : x) serial_sum += v;
  EXPECT_NEAR(exec::sum(n, x.data()), serial_sum, 1e-9);
}

// --- edge coloring -------------------------------------------------------

void check_coloring(const mesh::UnstructuredMesh& m) {
  const auto col = mesh::edge_color_classes(m);
  ASSERT_GT(col.num_colors(), 0);
  // Classes partition the edge set.
  ASSERT_EQ(static_cast<int>(col.edge.size()), m.num_edges());
  std::vector<int> seen(m.num_edges(), 0);
  const auto& edges = m.edges();
  for (int c = 0; c < col.num_colors(); ++c) {
    std::vector<char> vertex_used(m.num_vertices(), 0);
    for (int p = col.class_ptr[c]; p < col.class_ptr[c + 1]; ++p) {
      const int e = col.edge[p];
      ASSERT_GE(e, 0);
      ASSERT_LT(e, m.num_edges());
      ++seen[e];
      // Conflict-freedom: no two edges of a class share a vertex.
      for (int v : {edges[e][0], edges[e][1]}) {
        ASSERT_FALSE(vertex_used[v]) << "class " << c << " vertex " << v;
        vertex_used[v] = 1;
      }
      // Ascending edge ids within a class (fixed accumulation order).
      if (p > col.class_ptr[c]) {
        ASSERT_LT(col.edge[p - 1], col.edge[p]);
      }
    }
  }
  for (int e = 0; e < m.num_edges(); ++e) ASSERT_EQ(seen[e], 1);
}

TEST(EdgeColoring, ValidOnShuffledWingsOfSeveralSizes) {
  for (int target : {200, 1200, 5000}) {
    auto m = mesh::generate_wing_mesh_with_size(target);
    mesh::shuffle_mesh(m, 17);
    check_coloring(m);
  }
}

TEST(EdgeColoring, ValidAfterBestOrdering) {
  auto m = mesh::generate_wing_mesh_with_size(1500);
  mesh::shuffle_mesh(m, 3);
  mesh::apply_best_ordering(m);
  check_coloring(m);
}

// --- level schedules -----------------------------------------------------

// Laplacian-like CSR of the mesh vertex graph: diagonally dominant, so
// ILU factors exist without pivoting.
sparse::Csr<double> graph_matrix(const mesh::UnstructuredMesh& m) {
  const int n = m.num_vertices();
  std::vector<std::vector<int>> adj(n);
  for (const auto& e : m.edges()) {
    adj[e[0]].push_back(e[1]);
    adj[e[1]].push_back(e[0]);
  }
  sparse::Csr<double> a;
  a.n = n;
  a.ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    auto& nb = adj[i];
    nb.push_back(i);
    std::sort(nb.begin(), nb.end());
    for (int j : nb) {
      a.col.push_back(j);
      a.val.push_back(j == i ? static_cast<double>(nb.size()) + 1.0 : -1.0);
    }
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  return a;
}

void check_schedule(const sparse::IluPattern& pat) {
  const auto fwd = sparse::lower_levels(pat);
  const auto bwd = sparse::upper_levels(pat);
  // Both schedules cover every row exactly once.
  for (const auto* sch : {&fwd, &bwd}) {
    ASSERT_EQ(static_cast<int>(sch->rows.size()), pat.n);
    std::vector<int> seen(pat.n, 0);
    for (int r : sch->rows) ++seen[r];
    for (int i = 0; i < pat.n; ++i) ASSERT_EQ(seen[i], 1);
  }
  // Dependencies live in strictly earlier levels.
  std::vector<int> lev_fwd(pat.n), lev_bwd(pat.n);
  for (int l = 0; l < fwd.num_levels(); ++l)
    for (int p = fwd.level_ptr[l]; p < fwd.level_ptr[l + 1]; ++p)
      lev_fwd[fwd.rows[p]] = l;
  for (int l = 0; l < bwd.num_levels(); ++l)
    for (int p = bwd.level_ptr[l]; p < bwd.level_ptr[l + 1]; ++p)
      lev_bwd[bwd.rows[p]] = l;
  for (int i = 0; i < pat.n; ++i) {
    for (int p = pat.ptr[i]; p < pat.diag[i]; ++p)
      ASSERT_LT(lev_fwd[pat.col[p]], lev_fwd[i]);
    for (int p = pat.diag[i] + 1; p < pat.ptr[i + 1]; ++p)
      ASSERT_LT(lev_bwd[pat.col[p]], lev_bwd[i]);
  }
}

TEST(LevelSchedule, ValidOnShuffledWingsAndFillLevels) {
  for (int target : {300, 2000}) {
    auto m = mesh::generate_wing_mesh_with_size(target);
    mesh::shuffle_mesh(m, 11);
    const auto a = graph_matrix(m);
    for (int fill : {0, 1}) {
      const auto pat =
          sparse::principal_submatrix(a.ptr, a.col, {}, fill).first;
      check_schedule(pat);
    }
  }
}

TEST(LevelSchedule, BlockSolveMatchesSerialBitwise) {
  auto m = mesh::generate_wing_mesh_with_size(800);
  mesh::shuffle_mesh(m, 9);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  auto jac = disc.allocate_jacobian();
  disc.jacobian(disc.make_freestream_field(), jac);
  for (int i = 0; i < jac.nrows; ++i) {  // ptc-style diagonal term
    double* blk = jac.find_block(i, i);
    for (int c = 0; c < jac.nb; ++c)
      blk[static_cast<std::size_t>(c) * jac.nb + c] += 1.0;
  }
  const sparse::BlockIlu<double> ilu(jac, 0);
  const int n = jac.scalar_n();
  std::vector<double> b(n), x_serial(n), x_par(n);
  for (int i = 0; i < n; ++i) b[i] = 1.0 + 0.01 * (i % 31);
  ilu.solve(b.data(), x_serial.data());
  for (int nt : {1, 2, 4}) {
    exec::ThreadScope scope(nt);
    std::fill(x_par.begin(), x_par.end(), 0.0);
    ilu.solve_levels(b.data(), x_par.data());
    EXPECT_EQ(std::memcmp(x_serial.data(), x_par.data(),
                          x_serial.size() * sizeof(double)),
              0)
        << "nt=" << nt;
  }
}

// --- parallel kernels bit-identical across thread counts ------------------

// Every cfd kernel through every traversal (colored edge scatter,
// per-vertex limiter pass, boundary closure), for both models and both
// layouts, is bit-identical at 2 and 4 threads to 1 thread.
TEST(ColoredKernels, ResidualBitIdenticalAcrossThreadCounts) {
  auto m = mesh::generate_wing_mesh_with_size(1500);
  mesh::shuffle_mesh(m, 2);
  const auto eval = [](cfd::EulerDiscretization& disc,
                       const cfd::FlowField& q) {
    std::map<std::string, std::vector<double>> out;
    auto& cfg = disc.config();
    cfg.order = 2;  // exercises gradients + limiters too
    cfg.reco_single_precision = false;
    disc.residual(q, out["residual 2nd order"]);
    cfg.reco_single_precision = true;
    disc.residual(q, out["residual 2nd order, float reconstruction"]);
    cfg.reco_single_precision = false;
    cfg.order = 1;
    disc.residual(q, out["residual 1st order"]);
    disc.spectral_radius(q, out["spectral radius"]);
    auto jac = disc.allocate_jacobian();
    disc.jacobian(q, jac);
    out["jacobian"] = jac.val;
    return out;
  };
  for (const auto model : {cfd::Model::kIncompressible, cfd::Model::kCompressible})
    for (const auto layout :
         {sparse::FieldLayout::kInterlaced, sparse::FieldLayout::kNonInterlaced}) {
      cfd::FlowConfig cfg;
      cfg.model = model;
      cfg.layout = layout;
      cfd::EulerDiscretization disc(m, cfg);
      auto q = disc.make_freestream_field();
      // Perturb so the limiter actually limits somewhere.
      for (std::size_t i = 0; i < q.data().size(); ++i)
        q.data()[i] += 1e-2 * std::sin(0.3 * static_cast<double>(i));
      std::map<std::string, std::vector<double>> ref;
      {
        exec::ThreadScope scope(1);
        ref = eval(disc, q);
      }
      for (int nt : {2, 4}) {
        exec::ThreadScope scope(nt);
        for (const auto& [name, v] : eval(disc, q)) {
          const auto& r = ref.at(name);
          ASSERT_EQ(v.size(), r.size()) << name;
          EXPECT_EQ(std::memcmp(v.data(), r.data(), v.size() * sizeof(double)),
                    0)
              << name << ", model " << static_cast<int>(model) << ", layout "
              << static_cast<int>(layout) << ", nt=" << nt;
        }
      }
    }
}

TEST(ColoredKernels, SpmvBitIdenticalAcrossThreadCounts) {
  auto m = mesh::generate_wing_mesh_with_size(1000);
  mesh::shuffle_mesh(m, 8);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(m, cfg);
  auto jac = disc.allocate_jacobian();
  disc.jacobian(disc.make_freestream_field(), jac);
  const int n = jac.scalar_n();
  std::vector<double> x(n), y_ref(n), y(n);
  for (int i = 0; i < n; ++i) x[i] = std::cos(0.05 * i);
  {
    exec::ThreadScope scope(1);
    jac.spmv(x.data(), y_ref.data());
  }
  for (int nt : {2, 4}) {
    exec::ThreadScope scope(nt);
    jac.spmv(x.data(), y.data());
    EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(double)),
              0)
        << "nt=" << nt;
  }
}

// --- full solver: byte-identical checkpoints at 1/2/4 threads -------------

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST(Determinism, PtcCheckpointsByteIdenticalAt124Threads) {
  // 4 subdomains factor gathered from an assembled A; 1 subdomain (the
  // matrix-free default) assembles A straight into its factor.
  auto run = [&](int nt, int subdomains, const std::string& ck_path,
                 std::vector<double>* x_out) {
    std::remove(ck_path.c_str());
    exec::ThreadScope scope(nt);
    auto m = mesh::generate_wing_mesh(
        mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 1;
    cfd::EulerDiscretization disc(m, cfg);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    solver::PtcOptions opts;
    opts.max_steps = 6;
    opts.rtol = 1e-10;
    opts.cfl0 = 10.0;
    opts.num_subdomains = subdomains;
    opts.schwarz.overlap = 1;
    opts.schwarz.fill_level = 1;
    opts.recovery.enabled = true;
    opts.recovery.checkpoint_path = ck_path;
    auto res = solver::ptc_solve(prob, x, opts);
    EXPECT_GT(res.steps, 0);
    *x_out = x;
    return std::vector<long long>{res.steps, res.total_linear_iterations,
                                  res.function_evaluations, res.work_units};
  };

  // One shared path: the checkpoint's recovery log records the path it
  // was written to, so different filenames would differ by construction.
  const std::string ck = temp_path("f3d_exec_ck.bin");
  for (const int subdomains : {4, 1}) {
    std::vector<double> x1, x2, x4;
    const auto c1 = run(1, subdomains, ck, &x1);
    const auto b1 = read_bytes(ck);
    const auto c2 = run(2, subdomains, ck, &x2);
    const auto b2 = read_bytes(ck);
    const auto c4 = run(4, subdomains, ck, &x4);
    const auto b4 = read_bytes(ck);

    // Counts and final states bit-identical...
    EXPECT_EQ(c1, c2) << subdomains << " subdomains";
    EXPECT_EQ(c1, c4) << subdomains << " subdomains";
    ASSERT_EQ(x1.size(), x2.size());
    ASSERT_EQ(x1.size(), x4.size());
    EXPECT_EQ(std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)), 0)
        << subdomains << " subdomains";
    EXPECT_EQ(std::memcmp(x1.data(), x4.data(), x1.size() * sizeof(double)), 0)
        << subdomains << " subdomains";

    // ...and the checkpoint files byte-identical (the resilience layer's
    // replay guarantee survives threading).
    ASSERT_FALSE(b1.empty());
    EXPECT_EQ(b1, b2) << subdomains << " subdomains";
    EXPECT_EQ(b1, b4) << subdomains << " subdomains";
  }
  std::remove(ck.c_str());
}

}  // namespace
