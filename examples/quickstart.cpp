// Quickstart: solve a subsonic incompressible Euler flow over a wing with
// the psi-NKS solver — the shortest end-to-end use of the library.
//
//   $ quickstart [-vertices 8000] [-cfl0 50] [-rtol 1e-8]
//
// Walks through the canonical pipeline:
//   1. generate an unstructured tetrahedral wing mesh;
//   2. apply the paper's recommended data layout (RCM vertices + sorted
//      edges — Table 1's "all enhancements" row);
//   3. discretize (second-order edge-based finite volume, interlaced
//      fields, block Jacobian);
//   4. solve with pseudo-transient Newton-Krylov-Schwarz;
//   5. report the convergence history and a wall-pressure summary.

#include <cmath>
#include <cstdio>

#include "cfd/problem.hpp"
#include "io/vtk.hpp"
#include "common/options.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "solver/newton.hpp"

int main(int argc, char** argv) {
  using namespace f3d;
  Options opts(argc, argv);

  // 1. Mesh.
  auto mesh = mesh::generate_wing_mesh_with_size(opts.get_int("vertices", 8000));
  std::printf("mesh: %d vertices, %d tets, %d edges, %d boundary faces\n",
              mesh.num_vertices(), mesh.num_tets(), mesh.num_edges(),
              mesh.num_boundary_faces());

  // 2. Layout tuning (the paper's big sequential win).
  mesh::apply_best_ordering(mesh);
  std::printf("applied RCM + sorted-edge ordering; matrix bandwidth = %d\n",
              mesh.bandwidth());

  // 3. Discretization.
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 2;
  cfg.alpha_deg = 2.0;
  cfd::EulerDiscretization disc(mesh, cfg);
  cfd::EulerProblem problem(disc, /*switch_to_second_at=*/0.0);

  // 4. Solve.
  solver::PtcOptions popts;
  popts.cfl0 = opts.get_double("cfl0", 50.0);
  popts.rtol = opts.get_double("rtol", 1e-8);
  popts.max_steps = opts.get_int("max-steps", 60);
  popts.schwarz.fill_level = 1;
  auto x = problem.initial_state();
  auto result = solver::ptc_solve(problem, x, popts);

  std::printf("\n%-6s %-12s %-8s %-10s\n", "step", "residual", "CFL",
              "linear its");
  for (const auto& h : result.history)
    std::printf("%-6d %-12.3e %-8.0f %-10d\n", h.step,
                h.residual / result.initial_residual, h.cfl,
                h.linear_iterations);
  std::printf("\n%s in %d steps (%lld linear iterations, %lld residual "
              "evaluations)\n",
              result.converged ? "CONVERGED" : "NOT converged", result.steps,
              result.total_linear_iterations, result.function_evaluations);

  // The paper: "the CFD application spends almost all of its time in two
  // phases: flux computations ... and sparse linear algebraic kernels."
  std::printf("time per phase: rerun with F3D_TRACE=1 for the span "
              "timeline, or python3 perfbench/run.py --trace 1 for the "
              "per-layer ledger\n");

  // 5. Wall pressure summary: integrate p n over the wall (force vector).
  double force[3] = {0, 0, 0};
  double pmin = 1e30, pmax = -1e30;
  const auto& bfaces = mesh.boundary_faces();
  const auto& dual = disc.dual();
  for (std::size_t f = 0; f < bfaces.size(); ++f) {
    if (bfaces[f].tag != mesh::BoundaryTag::kWall) continue;
    for (int lv = 0; lv < 3; ++lv) {
      const int v = bfaces[f].v[lv];
      const double p = x[static_cast<std::size_t>(v) * 4 + 0];
      pmin = std::min(pmin, p);
      pmax = std::max(pmax, p);
      for (int d = 0; d < 3; ++d)
        force[d] += p * dual.bface_normal[f][d] / 3.0;
    }
  }
  std::printf("wall pressure range: [%.4f, %.4f]\n", pmin, pmax);

  // Optional: write the solution for ParaView (-output flow.vtk).
  if (opts.has("output")) {
    const auto path = opts.get_string("output", "flow.vtk");
    io::write_flow_vtk(path, mesh, disc.config(), x);
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("pressure force on wall: (%.4f, %.4f, %.4f) — the wing bump "
              "generates lift (negative z here: the wall normal points "
              "down)\n",
              force[0], force[1], force[2]);
  return result.converged ? 0 : 1;
}
