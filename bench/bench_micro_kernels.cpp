// Micro-benchmarks (google-benchmark) for the kernels the paper's
// analysis rests on: SpMV in all four format/layout combinations, ILU
// factorization and triangular solves in both storage precisions, the
// flux kernel under the three edge orderings, STREAM, and two ablations
// of internal design decisions (GMRES orthogonalization variant, and the
// zero-overhead claim of the tracer policy design).

#include <benchmark/benchmark.h>

#include "cfd/euler.hpp"
#include "common/rng.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "perf/stream.hpp"
#include "simcache/traced_kernels.hpp"
#include "solver/krylov.hpp"
#include "sparse/assembly.hpp"
#include "sparse/ilu.hpp"

namespace {

using namespace f3d;

constexpr int kVertices = 12000;

struct MatrixFixture {
  mesh::UnstructuredMesh mesh;
  sparse::Stencil stencil;
  sparse::Bcsr<double> bcsr;
  sparse::Csr<double> csr_interlaced;
  sparse::Csr<double> csr_noninterlaced;
  std::vector<double> x, y;

  explicit MatrixFixture(int nb) {
    mesh = mesh::generate_wing_mesh_with_size(kVertices);
    mesh::shuffle_mesh(mesh, 1);
    mesh::apply_best_ordering(mesh);
    stencil = sparse::stencil_from_mesh(mesh);
    auto fn = sparse::synthetic_values(stencil);
    bcsr = sparse::build_bcsr(stencil, nb, fn);
    csr_interlaced =
        sparse::build_point_csr(stencil, nb, fn, sparse::FieldLayout::kInterlaced);
    csr_noninterlaced = sparse::build_point_csr(
        stencil, nb, fn, sparse::FieldLayout::kNonInterlaced);
    x.assign(static_cast<std::size_t>(stencil.n) * nb, 1.0);
    y.resize(x.size());
  }
};

MatrixFixture& fixture4() {
  static MatrixFixture f(4);
  return f;
}

void BM_SpmvPointNonInterlaced(benchmark::State& state) {
  auto& f = fixture4();
  for (auto _ : state) {
    f.csr_noninterlaced.spmv(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.csr_noninterlaced.nnz()) * 2);
}
BENCHMARK(BM_SpmvPointNonInterlaced);

void BM_SpmvPointInterlaced(benchmark::State& state) {
  auto& f = fixture4();
  for (auto _ : state) {
    f.csr_interlaced.spmv(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.csr_interlaced.nnz()) * 2);
}
BENCHMARK(BM_SpmvPointInterlaced);

void BM_SpmvBlocked(benchmark::State& state) {
  auto& f = fixture4();
  for (auto _ : state) {
    f.bcsr.spmv(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.bcsr.nblocks()) * 16 * 2);
}
BENCHMARK(BM_SpmvBlocked);

void BM_SpmvBlockedFloat(benchmark::State& state) {
  auto& f = fixture4();
  static auto bf = f.bcsr.convert<float>();
  for (auto _ : state) {
    bf.spmv(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_SpmvBlockedFloat);

// A Jacobian refresh: the numeric phase, in place on a built factor.
void BM_IluFactorBlock(benchmark::State& state) {
  auto& f = fixture4();
  sparse::BlockIlu<double> fac(f.bcsr, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fac.refactor(f.bcsr));
    benchmark::DoNotOptimize(fac.values().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IluFactorBlock)->Arg(0)->Arg(1)->Arg(2);

void BM_TriSolveBlockDouble(benchmark::State& state) {
  auto& f = fixture4();
  static const sparse::BlockIlu<double> fac(f.bcsr, 1);
  for (auto _ : state) {
    fac.solve(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_TriSolveBlockDouble);

void BM_TriSolveBlockFloat(benchmark::State& state) {
  auto& f = fixture4();
  static const sparse::BlockIlu<float> fac(f.bcsr, 1);
  for (auto _ : state) {
    fac.solve(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_TriSolveBlockFloat);

// --- flux kernel by edge ordering ---------------------------------------

void flux_bench(benchmark::State& state, int ordering) {
  auto mesh = mesh::generate_wing_mesh_with_size(kVertices);
  mesh::shuffle_mesh(mesh, 1);
  switch (ordering) {
    case 0:  // colored (vector-machine) order on shuffled vertices
      mesh.permute_edges(mesh::edge_order_colored(mesh));
      break;
    case 1:  // random
      mesh.permute_edges(mesh::edge_order_random(mesh, 2));
      break;
    case 2:  // RCM + sorted (the paper's layout)
      mesh::apply_best_ordering(mesh);
      break;
    default:
      break;
  }
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(mesh, cfg);
  auto q = disc.make_freestream_field();
  std::vector<double> r;
  for (auto _ : state) {
    disc.residual(q, r);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_edges());
}

void BM_FluxColoredEdges(benchmark::State& state) { flux_bench(state, 0); }
BENCHMARK(BM_FluxColoredEdges);
void BM_FluxRandomEdges(benchmark::State& state) { flux_bench(state, 1); }
BENCHMARK(BM_FluxRandomEdges);
void BM_FluxSortedEdgesRcm(benchmark::State& state) { flux_bench(state, 2); }
BENCHMARK(BM_FluxSortedEdgesRcm);

// --- STREAM ---------------------------------------------------------------

void BM_StreamTriad(benchmark::State& state) {
  const std::size_t n = 4 * 1000 * 1000;
  std::vector<double> a(n, 1), b(n, 2), c(n, 3);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n) * 24);
}
BENCHMARK(BM_StreamTriad);

// --- ablation: GMRES orthogonalization variant ----------------------------

void gmres_bench(benchmark::State& state, solver::Orthogonalization orth) {
  auto& f = fixture4();
  solver::LinearOperator op;
  op.n = f.bcsr.scalar_n();
  op.apply = [&](const double* x, double* y) { f.bcsr.spmv(x, y); };
  solver::IdentityPreconditioner prec(op.n);
  std::vector<double> b(op.n, 1.0);
  solver::GmresOptions o;
  o.rtol = 1e-8;
  o.max_iters = 60;
  o.restart = 30;
  o.orth = orth;
  for (auto _ : state) {
    std::vector<double> x(op.n, 0.0);
    auto res = solver::gmres(op, prec, b, x, o);
    benchmark::DoNotOptimize(res.iterations);
  }
}

void BM_GmresModifiedGs(benchmark::State& state) {
  gmres_bench(state, solver::Orthogonalization::kModifiedGramSchmidt);
}
BENCHMARK(BM_GmresModifiedGs);
void BM_GmresClassicalGs(benchmark::State& state) {
  gmres_bench(state, solver::Orthogonalization::kClassicalGramSchmidt);
}
BENCHMARK(BM_GmresClassicalGs);

// --- ablation: tracer policy has zero overhead when null -------------------

void BM_SpmvProduction(benchmark::State& state) {
  auto& f = fixture4();
  for (auto _ : state) {
    f.csr_interlaced.spmv(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_SpmvProduction);

void BM_SpmvNullTraced(benchmark::State& state) {
  auto& f = fixture4();
  simcache::NullTracer nt;
  for (auto _ : state) {
    simcache::traced_spmv_csr(f.csr_interlaced, f.x.data(), f.y.data(), nt);
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_SpmvNullTraced);

}  // namespace

BENCHMARK_MAIN();
