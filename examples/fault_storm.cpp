// Fault storm: run the resilient psi-NKS solver through a barrage of
// injected faults — corrupted residuals, zeroed pivots, poisoned Krylov
// iterations — and print the structured recovery log showing how the
// ladder (step rejection, CFL backtracking, pivot shifts, restart
// escalation, Krylov method swaps) rides them out.
//
//   $ fault_storm [-seed 42] [-vertices 2000] [-storm 3]
//
// `-storm` scales the fault rate (1 = sparse, 5 = relentless). With
// recovery disabled (-recovery 0) the same storm kills the solve.

#include <algorithm>
#include <cstdio>

#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"
#include "solver/newton.hpp"

int main(int argc, char** argv) {
  using namespace f3d;
  using resilience::FaultPlan;
  using resilience::FaultSite;
  Options opts(argc, argv);

  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const int storm = std::clamp(opts.get_int("storm", 3), 1, 10);
  const bool recovery = opts.get_int("recovery", 1) != 0;

  auto mesh = mesh::generate_wing_mesh_with_size(opts.get_int("vertices", 2000));
  mesh::apply_best_ordering(mesh);
  std::printf("mesh: %d vertices, %d edges | seed %llu, storm level %d, "
              "recovery %s\n",
              mesh.num_vertices(), mesh.num_edges(),
              static_cast<unsigned long long>(seed), storm,
              recovery ? "ON" : "OFF");

  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(mesh, cfg);
  cfd::EulerProblem problem(disc, /*switch_to_second_at=*/-1.0);

  // Arm every solver-stack site. fire_every schedules are deterministic,
  // so the same seed + storm level always replays the same storm.
  resilience::FaultInjector injector(seed);
  FaultPlan nan_plan;
  nan_plan.fire_every = 60 / storm;
  nan_plan.skip_first = 4;
  nan_plan.max_fires = storm;
  injector.arm(FaultSite::kResidual, nan_plan);
  FaultPlan pivot_plan;
  pivot_plan.fire_every = 4;
  pivot_plan.skip_first = 1;
  pivot_plan.max_fires = storm;
  injector.arm(FaultSite::kFactorPivot, pivot_plan);
  FaultPlan krylov_plan;
  krylov_plan.probability = 0.02 * storm;
  krylov_plan.max_fires = 2 * storm;
  injector.arm(FaultSite::kBicgstab, krylov_plan);

  solver::PtcOptions popts;
  popts.cfl0 = opts.get_double("cfl0", 20.0);
  popts.rtol = opts.get_double("rtol", 1e-6);
  popts.max_steps = opts.get_int("max-steps", 60);
  popts.schwarz.fill_level = 1;
  popts.num_subdomains = 2;
  popts.recovery.enabled = recovery;
  popts.fault_injector = &injector;

  auto x = problem.initial_state();
  solver::PtcResult result;
  try {
    result = solver::ptc_solve(problem, x, popts);
  } catch (const NumericalError& e) {
    std::printf("\nSOLVE ABORTED: %s\n", e.what());
    std::printf("(re-run with -recovery 1 to see the ladder absorb the "
                "same storm)\n");
    return 1;
  }

  std::printf("\nfaults fired:");
  for (int s = 0; s < resilience::kNumFaultSites; ++s) {
    const auto site = static_cast<FaultSite>(s);
    if (injector.fires(site) > 0)
      std::printf("  %s x%d", resilience::fault_site_name(site),
                  injector.fires(site));
  }
  std::printf("\n\nrecovery log (%zu events, %d detections):\n",
              result.recovery_log.size(), result.recovery_log.detections());
  std::printf("%s", result.recovery_log.to_string().c_str());

  std::printf("\n%s in %d steps (%d rejected, %d Krylov breakdowns, "
              "final residual %.3e)\n",
              result.converged ? "CONVERGED" : "NOT converged", result.steps,
              result.recovery_log.count(
                  resilience::RecoveryAction::kStepRejected),
              result.krylov_breakdowns,
              result.final_residual / result.initial_residual);
  return result.converged ? 0 : 1;
}
