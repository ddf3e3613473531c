// Oracle-instrumented silent-data-corruption campaign.
//
// Sweep bit position x injection site over seeded psi-NKS solves on the
// wing problem with every SDC guard armed (ABFT-checksummed assembled
// SpMV, Krylov invariant monitors, physical-admissibility scans, plus the
// classic NaN/divergence ladder underneath). Each injected run is judged
// against a clean reference solve — the oracle:
//
//   caught   a guard fired (SDC rungs or the classic ladder) or the solve
//            loudly aborted: the corruption did NOT silently pass,
//   benign   no guard fired but the converged answer matches the clean
//            reference: Newton absorbed the flip (a perturbed iterate is
//            just another initial guess),
//   escaped  no guard fired AND the answer moved: true silent corruption.
//
// The paper's performance-model discipline applied to integrity: measure
// the coverage boundary (exponent flips must be caught, low mantissa bits
// sit below the rounding-bound noise floor and escape), the false-positive
// rate on clean runs (must be exactly zero — the ABFT bound is derived,
// not tuned), and the wall-clock overhead of running every guard.
//
// Writes BENCH_sdc.json (f3d-bench-v1 envelope). Gates (exit status and
// series.gates): exponent-bit detection coverage >= 90%, zero false
// positives on clean runs, guard overhead <= 10% (median of alternating
// guards-off/guards-on pairs).
//
// Usage: bench_sdc [-seeds 3] [-steps 40] [-overhead-vertices 2000]
//                  [-out BENCH_sdc.json]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "resilience/bitflip.hpp"
#include "resilience/faults.hpp"
#include "solver/newton.hpp"

namespace {

using namespace f3d;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;
using resilience::FlipTarget;
using resilience::RecoveryAction;

solver::PtcOptions campaign_options() {
  solver::PtcOptions o;
  o.cfl0 = 20.0;
  o.max_steps = 60;
  o.rtol = 1e-8;
  o.num_subdomains = 2;
  o.schwarz.fill_level = 1;
  o.matrix_free = false;  // assembled operator: the ABFT-guarded path
  o.recovery.enabled = true;
  o.sdc.enabled = true;
  return o;
}

struct RunOutcome {
  bool injected = false;
  bool caught = false;   ///< guard fired or loud abort
  bool escaped = false;  ///< silent AND answer altered
  bool benign = false;   ///< silent but answer identical to reference
};

struct Rig {
  mesh::UnstructuredMesh mesh = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 3, .nz = 3});
  cfd::FlowConfig cfg;
  std::vector<double> x_ref;  ///< clean converged answer
  double ref_norm = 0;
  bool verbose = false;

  Rig() {
    cfg.model = cfd::Model::kCompressible;
    cfg.order = 1;
    cfd::EulerDiscretization disc(mesh, cfg);
    cfd::EulerProblem prob(disc, -1.0);
    x_ref = prob.initial_state();
    auto res = solver::ptc_solve(prob, x_ref, campaign_options());
    F3D_CHECK_MSG(res.converged, "clean reference solve must converge");
    for (double v : x_ref) ref_norm = std::max(ref_norm, std::abs(v));
  }

  RunOutcome run(int bit, FlipTarget target, std::uint64_t seed) {
    FaultInjector inj(seed);
    FaultPlan p;
    p.fire_every = 1;
    // Vary the strike point with the seed so a sweep samples different
    // elements/steps, not one fixed victim.
    p.skip_first = 2 + static_cast<int>(seed % 7);
    p.max_fires = 1;
    inj.arm(FaultSite::kBitFlip, p);
    inj.set_bit_flip({.bit = bit, .target = target});

    cfd::EulerDiscretization disc(mesh, cfg);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    auto o = campaign_options();
    o.fault_injector = &inj;

    RunOutcome out;
    bool aborted = false;
    solver::PtcResult res;
    try {
      res = solver::ptc_solve(prob, x, o);
    } catch (const NumericalError&) {
      aborted = true;  // loud failure: not silent by definition
    }
    out.injected = inj.fires(FaultSite::kBitFlip) > 0;
    if (!out.injected) return out;

    // Every SDC detection is logged (kDetectSdc), so detections() covers it.
    const bool guard_fired = aborted || res.recovery_log.detections() > 0;
    double diff = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      diff = std::max(diff, std::abs(x[i] - x_ref[i]));
    if (guard_fired) {
      out.caught = true;
    } else if (!res.converged || diff / ref_norm > 1e-6) {
      out.escaped = true;  // wrong (or unconverged) answer, nothing fired
    } else {
      out.benign = true;
    }
    if (verbose)
      std::printf("  bit %2d %-9s seed %llu: %-7s (sdc_det %d, log_det %d, "
                  "diff %.2e)%s\n",
                  bit, resilience::flip_target_name(target),
                  static_cast<unsigned long long>(seed),
                  out.caught ? "caught" : out.escaped ? "ESCAPED" : "benign",
                  res.recovery_log.count(RecoveryAction::kDetectSdc),
                  res.recovery_log.detections(),
                  diff / ref_norm, aborted ? " [aborted]" : "");
    return out;
  }
};

struct Bucket {
  std::string name;
  int lo = 0, hi = 0;  ///< inclusive bit range
  int injected = 0, caught = 0, escaped = 0, benign = 0;
  [[nodiscard]] double coverage() const {
    return injected > 0 ? static_cast<double>(caught) / injected : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int nseeds = opts.get_int("seeds", 3);
  const int overhead_vertices = opts.get_int("overhead-vertices", 2000);
  const int overhead_steps = opts.get_int("steps", 40);
  const std::string out_path = opts.get_string("out", "BENCH_sdc.json");

  benchutil::print_header(
      "SDC defense - detection coverage, escape rate, guard overhead",
      "ABFT bound |1'(Ax) - c'x| <= slack*eps*(|A|'1)'|x|; exponent flips "
      "caught, low mantissa bits escape below the noise floor");

  const std::vector<int> bits = {0,  4,  8,  16, 24, 32, 40, 44,
                                 48, 51, 52, 55, 58, 61, 62, 63};
  const std::vector<FlipTarget> targets = {FlipTarget::kState,
                                           FlipTarget::kResidual,
                                           FlipTarget::kKrylov,
                                           FlipTarget::kMatrix};

  Rig rig;
  rig.verbose = opts.get_bool("verbose", false);
  std::printf("wing mesh: %d vertices | %d bits x %zu targets x %d seeds\n\n",
              rig.mesh.num_vertices(), static_cast<int>(bits.size()),
              targets.size(), nseeds);

  std::vector<Bucket> buckets = {{"mantissa-low", 0, 25},
                                 {"mantissa-high", 26, 51},
                                 {"exponent", 52, 62},
                                 {"sign", 63, 63}};
  benchutil::Json detail = benchutil::Json::array();

  for (int bit : bits) {
    Bucket row;  // per-bit tallies for the detail series
    for (FlipTarget target : targets) {
      for (int seed = 1; seed <= nseeds; ++seed) {
        const auto out =
            rig.run(bit, target, static_cast<std::uint64_t>(seed));
        if (!out.injected) continue;
        for (auto& b : buckets) {
          if (bit < b.lo || bit > b.hi) continue;
          ++b.injected;
          b.caught += out.caught;
          b.escaped += out.escaped;
          b.benign += out.benign;
        }
        ++row.injected;
        row.caught += out.caught;
        row.escaped += out.escaped;
        row.benign += out.benign;
      }
    }
    detail.push(benchutil::Json::object()
                    .set("bit", benchutil::Json(static_cast<long long>(bit)))
                    .set("injected", benchutil::Json(
                                         static_cast<long long>(row.injected)))
                    .set("caught",
                         benchutil::Json(static_cast<long long>(row.caught)))
                    .set("escaped",
                         benchutil::Json(static_cast<long long>(row.escaped)))
                    .set("benign",
                         benchutil::Json(static_cast<long long>(row.benign))));
  }

  Table tab({"bit class", "bits", "injected", "caught", "benign", "escaped",
             "coverage"});
  for (const auto& b : buckets)
    tab.add_row({b.name, std::to_string(b.lo) + "-" + std::to_string(b.hi),
                 std::to_string(b.injected), std::to_string(b.caught),
                 std::to_string(b.benign), std::to_string(b.escaped),
                 Table::num(100.0 * b.coverage(), 1) + " %"});
  tab.print();

  // --- false positives: clean solves with every guard armed ---------------
  int clean_runs = 0, false_positives = 0;
  for (int seed = 1; seed <= 2 * nseeds; ++seed) {
    cfd::EulerDiscretization disc(rig.mesh, rig.cfg);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    auto res = solver::ptc_solve(prob, x, campaign_options());
    ++clean_runs;
    if (res.recovery_log.count(RecoveryAction::kDetectSdc) > 0)
      ++false_positives;
  }
  std::printf("\nclean runs: %d, SDC false positives: %d\n", clean_runs,
              false_positives);

  // --- guard overhead: identical solve with guards off vs on --------------
  auto mesh_big = mesh::generate_wing_mesh_with_size(overhead_vertices);
  mesh::apply_best_ordering(mesh_big);
  cfd::FlowConfig cfg_big;
  cfg_big.model = cfd::Model::kIncompressible;
  cfg_big.order = 1;
  auto timed_solve = [&](bool guards) {
    cfd::EulerDiscretization disc(mesh_big, cfg_big);
    cfd::EulerProblem prob(disc, -1.0);
    auto x = prob.initial_state();
    auto o = campaign_options();
    o.max_steps = overhead_steps;
    o.rtol = 1e-300;  // fixed work: run every step
    o.sdc.enabled = guards;
    Timer t;
    auto res = solver::ptc_solve(prob, x, o);
    const double seconds = t.seconds();
    F3D_CHECK(res.steps == overhead_steps);
    return seconds;
  };
  const auto overhead = benchutil::paired_ratio(
      [&] { return timed_solve(false); }, [&] { return timed_solve(true); });
  const double overhead_pct = 100.0 * (overhead.median - 1.0);
  std::printf("guard overhead: %d vertices x %d steps, median of %zu "
              "alternating off/on pairs -> %+.2f %%\n",
              mesh_big.num_vertices(), overhead_steps, overhead.ratios.size(),
              overhead_pct);

  // --- verdicts + artifact ------------------------------------------------
  const auto& expo = buckets[2];
  const auto& mlow = buckets[0];
  const double expo_cov = expo.coverage();
  const double mlow_escape =
      mlow.injected > 0 ? static_cast<double>(mlow.escaped) / mlow.injected
                        : 0.0;
  benchutil::Gates gates;
  gates.check("exponent_detection_coverage", expo_cov, ">=", 0.90);
  gates.check("false_positives", false_positives, "==", 0);
  gates.check("guard_overhead_pct", overhead_pct, "<=", 10.0);
  gates.print();

  benchutil::Json classes = benchutil::Json::array();
  for (const auto& b : buckets)
    classes.push(
        benchutil::Json::object()
            .set("class", benchutil::Json(b.name))
            .set("bits", benchutil::Json(std::to_string(b.lo) + "-" +
                                         std::to_string(b.hi)))
            .set("injected",
                 benchutil::Json(static_cast<long long>(b.injected)))
            .set("caught", benchutil::Json(static_cast<long long>(b.caught)))
            .set("benign", benchutil::Json(static_cast<long long>(b.benign)))
            .set("escaped",
                 benchutil::Json(static_cast<long long>(b.escaped)))
            .set("coverage", benchutil::Json(b.coverage())));

  benchutil::Json series =
      benchutil::Json::object()
          .set("by_bit_class", std::move(classes))
          .set("by_bit", std::move(detail))
          .set("exponent_detection_coverage", benchutil::Json(expo_cov))
          .set("low_mantissa_escape_rate", benchutil::Json(mlow_escape))
          .set("clean_runs", benchutil::Json(static_cast<long long>(clean_runs)))
          .set("false_positives",
               benchutil::Json(static_cast<long long>(false_positives)))
          .set("guard_overhead_pct", benchutil::Json(overhead_pct))
          .set("guard_overhead_pair_ratios", [&] {
            auto a = benchutil::Json::array();
            for (double r : overhead.ratios) a.push(r);
            return a;
          }())
          .set("overhead_vertices",
               benchutil::Json(static_cast<long long>(mesh_big.num_vertices())))
          .set("overhead_steps",
               benchutil::Json(static_cast<long long>(overhead_steps)))
          .set("seeds", benchutil::Json(static_cast<long long>(nseeds)));
  benchutil::write_json(out_path, series, gates);
  std::printf("wrote %s\n", out_path.c_str());
  return gates.exit_status();
}
