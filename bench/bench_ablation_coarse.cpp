// Ablation of the coarse-grid (two-level) Schwarz extension — the step
// the paper identifies as required for asymptotic scalability but omits
// ("the nonlinear stiffness ... requires a timestepping globalization"
// whose diagonal shift keeps one-level conditioning acceptable).
//
// Two regimes, both real GMRES runs:
//  1. elliptic regime (small pseudo-time shift; a graph Laplacian): the
//     theory's case — one-level iterations grow with P, two-level stay flat;
//  2. psi-NKS regime (the Euler Jacobian with a CFL-sized shift): the
//     paper's case — the shift keeps growth mild, so the coarse grid buys
//     little, matching the paper's decision to skip it.
//
// Usage: bench_ablation_coarse [-vertices 8000]

#include <cstdio>

#include "bench_util.hpp"
#include "cfd/euler.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "mesh/graph.hpp"
#include "solver/krylov.hpp"
#include "solver/precond.hpp"
#include "sparse/assembly.hpp"

namespace {

using namespace f3d;

int gmres_its(const sparse::Bcsr<double>& a, const solver::Preconditioner& m) {
  solver::LinearOperator op;
  op.n = a.scalar_n();
  op.apply = [&](const double* x, double* y) { a.spmv(x, y); };
  std::vector<double> b(op.n, 1.0), x(op.n, 0.0);
  solver::GmresOptions o;
  o.rtol = 1e-8;
  o.max_iters = 500;
  o.restart = 40;
  return solver::gmres(op, m, b, x, o).iterations;
}

void sweep(const sparse::Bcsr<double>& a, const mesh::Graph& g,
           const char* title) {
  std::printf("\n%s:\n", title);
  Table t({"Subdomains", "one-level its", "two-level its", "coarse dim"});
  solver::SchwarzOptions so;
  so.type = solver::SchwarzType::kBlockJacobi;
  so.fill_level = 0;
  solver::SchwarzOptions two_level = so;
  two_level.coarse_space = true;
  for (int np : {4, 8, 16, 32, 64}) {
    auto p = part::kway_grow(g, np);
    solver::SchwarzPreconditioner one(a, p, so);
    solver::SchwarzPreconditioner two(a, p, two_level);
    t.add_row({Table::num(static_cast<long long>(np)),
               Table::num(static_cast<long long>(gmres_its(a, one))),
               Table::num(static_cast<long long>(gmres_its(a, two))),
               Table::num(static_cast<long long>(two.coarse_dim()))});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 8000);
  auto mesh = benchutil::make_ordered_wing(vertices);
  auto g = mesh::build_graph(mesh.num_vertices(), mesh.edges());
  auto stencil = sparse::stencil_from_mesh(mesh);
  std::printf("mesh: %d vertices\n", mesh.num_vertices());

  benchutil::print_header(
      "Ablation - coarse-grid (two-level) Schwarz",
      "paper 1.1/2.4.3: coarse grid needed for asymptotic scalability, "
      "unnecessary at psi-NKS's diagonally shifted regime");

  // Regime 1: elliptic (graph Laplacian with a weak shift).
  {
    std::vector<int> degree(stencil.n);
    for (int i = 0; i < stencil.n; ++i)
      degree[i] = stencil.ptr[i + 1] - stencil.ptr[i] - 1;
    auto fn = [&](int vi, int vj, int nb, double* block) {
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b)
          block[a * nb + b] =
              (a == b) ? (vi == vj ? degree[vi] + 0.05 : -1.0) : 0.0;
    };
    auto a = sparse::build_bcsr(stencil, 4, fn);
    sweep(a, g, "elliptic regime (weakly shifted Laplacian)");
  }

  // Regime 2: the Euler Jacobian with a CFL = 10 pseudo-time shift.
  {
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 1;
    cfd::EulerDiscretization disc(mesh, cfg);
    auto q = disc.make_freestream_field();
    auto jac = disc.allocate_jacobian();
    disc.jacobian(q, jac);
    std::vector<double> sr;
    disc.spectral_radius(q, sr);
    for (int v = 0; v < mesh.num_vertices(); ++v) {
      double* blk = jac.find_block(v, v);
      for (int c = 0; c < 4; ++c) blk[c * 4 + c] += sr[v] / 10.0;
    }
    sweep(jac, g, "psi-NKS regime (Euler Jacobian, CFL 10 shift)");
  }

  std::printf(
      "\nShape check: in the elliptic regime one-level iterations climb\n"
      "steeply with the subdomain count while two-level stays nearly flat;\n"
      "in the shifted psi-NKS regime both stay moderate — exactly why the\n"
      "paper could skip the coarse grid.\n");
  return 0;
}
