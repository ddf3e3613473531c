// Bit-flip storm: inject silent, finite-value bit flips — the kind no
// NaN/Inf guard can see — into the resilient psi-NKS solve and watch the
// SDC defense catch them: the ABFT-checksummed SpMV, the residual
// transport checksum, the Krylov drift monitors, and the step-entry
// state scan, with the recompute and rollback rungs clearing what they
// flag.
//
//   $ bit_flip_storm [-seed 7] [-bit 58] [-target state|residual|krylov|
//                     matrix|any] [-flips 3] [-vertices 500] [-recovery 1]
//
// `-bit` picks the flipped IEEE-754 bit: 52-62 (exponent) corrupts by
// orders of magnitude and must be caught; 0-25 (low mantissa) sits below
// the checksum noise floor and silently rides along — the measured
// escape class. With -recovery 0 the first detection aborts the solve.

#include <cstdio>
#include <cstring>
#include <string>

#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/faults.hpp"
#include "resilience/recovery.hpp"
#include "solver/newton.hpp"

int main(int argc, char** argv) {
  using namespace f3d;
  using resilience::FlipTarget;
  Options opts(argc, argv);

  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 7));
  const int bit = opts.get_int("bit", 58);
  const int flips = opts.get_int("flips", 3);
  const bool recovery = opts.get_int("recovery", 1) != 0;
  const std::string tname = opts.get_string("target", "any");

  FlipTarget target = FlipTarget::kAny;
  for (auto t : {FlipTarget::kState, FlipTarget::kResidual,
                 FlipTarget::kKrylov, FlipTarget::kMatrix})
    if (tname == resilience::flip_target_name(t)) target = t;

  auto mesh = mesh::generate_wing_mesh_with_size(opts.get_int("vertices", 500));
  mesh::apply_best_ordering(mesh);
  std::printf("mesh: %d vertices | seed %llu, bit %d (%s), target %s, "
              "%d flip(s), recovery %s\n",
              mesh.num_vertices(), static_cast<unsigned long long>(seed), bit,
              bit >= 52 ? (bit == 63 ? "sign" : "exponent") : "mantissa",
              resilience::flip_target_name(target), flips,
              recovery ? "ON" : "OFF");

  resilience::FaultInjector injector(seed);
  resilience::FaultPlan plan;
  plan.fire_every = 2;  // one flip every couple of residual/state/matrix touches
  plan.skip_first = 3;
  plan.max_fires = flips;
  injector.arm(resilience::FaultSite::kBitFlip, plan);
  injector.set_bit_flip({.bit = bit, .target = target});

  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc(mesh, cfg);
  cfd::EulerProblem problem(disc, /*switch_to_second_at=*/-1.0);

  solver::PtcOptions popts;
  popts.cfl0 = opts.get_double("cfl0", 20.0);
  popts.rtol = opts.get_double("rtol", 1e-8);
  popts.max_steps = opts.get_int("max-steps", 80);
  popts.schwarz.fill_level = 1;
  popts.num_subdomains = 2;
  popts.matrix_free = false;  // assembled operator: ABFT on the hook
  popts.recovery.enabled = recovery;
  popts.sdc.enabled = true;
  popts.fault_injector = &injector;

  auto x = problem.initial_state();
  solver::PtcResult result;
  try {
    result = solver::ptc_solve(problem, x, popts);
  } catch (const NumericalError& e) {
    std::printf("\nSOLVE ABORTED: %s\n", e.what());
    std::printf("flips fired before abort: %d\n",
                injector.fires(resilience::FaultSite::kBitFlip));
    std::printf("(re-run with -recovery 1 to see the SDC rungs clear the "
                "same storm)\n");
    return 1;
  }

  using resilience::RecoveryAction;
  const resilience::RecoveryLog& log = result.recovery_log;
  std::printf("\nflips fired: %d (of %d planned)\n",
              injector.fires(resilience::FaultSite::kBitFlip), flips);
  std::printf("SDC detections: %d | recompute rungs: %d | rollback rungs: "
              "%d\n",
              log.count(RecoveryAction::kDetectSdc),
              log.count(RecoveryAction::kSdcRecompute),
              log.count(RecoveryAction::kSdcRollback));
  std::printf("\nrecovery log (%zu events, %d detections):\n", log.size(),
              log.detections());
  std::printf("%s", log.to_string().c_str());

  std::printf("\n%s in %d steps (%d rejected, final residual %.3e)\n",
              result.converged ? "CONVERGED" : "NOT converged", result.steps,
              log.count(RecoveryAction::kStepRejected),
              result.final_residual / result.initial_residual);
  return result.converged ? 0 : 1;
}
