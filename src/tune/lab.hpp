#pragma once
// tune::SolveLab — the bridge between the abstract search driver and the
// real solver stack: one wing problem, the full knob registry bound over
// it, and an Evaluator that scores a candidate configuration by running
// short genuine psi-NKS solves under a guard::SolveBudget.
//
// Correctness gates (a trial that fails ANY of them is rejected, i.e.
// TrialOutcome::ok == false, and can never become the tuned config):
//  * the solve reaches the per-fidelity residual tolerance,
//  * the verdict is guard::SolveVerdict::kConverged (no budget trip, no
//    stall, no fault exit),
//  * bit-identity: the solve is run twice from the same initial state and
//    the returned states must hash identically (CRC-32 over the raw
//    bytes) with identical deterministic work-unit totals,
//  * no exception escapes (a config whose solve throws — e.g. the
//    NumericalError of an exhausted recovery ladder — is rejected, not
//    fatal).
//
// Score = wall seconds of the second (timed) run; lower is better.
// Scores are only comparable within one fidelity level — exactly how the
// successive-halving driver uses them.

#include <string>
#include <vector>

#include "cfd/state.hpp"
#include "mesh/mesh.hpp"
#include "mesh/ordering.hpp"
#include "solver/newton.hpp"
#include "tune/db.hpp"
#include "tune/registry.hpp"
#include "tune/search.hpp"

namespace f3d::tune {

/// Per-fidelity solve parameters (exposed for tests/benches that want to
/// reason about what a rung costs).
struct LabFidelity {
  double rtol = 1e-4;           ///< steady residual reduction target
  int max_steps = 25;           ///< pseudo-timestep cap
  long long max_work_units = 10000;  ///< guard budget (deterministic units)
};
[[nodiscard]] LabFidelity lab_fidelity(int fidelity);

class SolveLab {
public:
  /// Builds the shuffled ("as-delivered") wing mesh of ~`num_vertices`
  /// and binds every knob — flow, mesh ordering, ptc/gmres/schwarz —
  /// into registry().
  explicit SolveLab(int num_vertices, unsigned mesh_seed = 1);

  [[nodiscard]] Registry& registry() { return reg_; }
  [[nodiscard]] const Registry& registry() const { return reg_; }

  /// Run the gates on the registry's current configuration at the given
  /// fidelity. Never throws: config failures come back as ok == false.
  [[nodiscard]] TrialOutcome evaluate(int fidelity);

  /// The search-driver adapter (captures `this`; the lab must outlive it).
  [[nodiscard]] Evaluator evaluator();

  /// The knob subset the bench searches: the paper's high-leverage axes.
  [[nodiscard]] static std::vector<std::string> default_search_space();

  /// DB key for this lab's problem: (mesh class, host ISA, "double").
  [[nodiscard]] DbKey db_key() const;

  [[nodiscard]] int num_vertices() const { return base_mesh_.num_vertices(); }

private:
  struct RunResult {
    bool ok = false;
    double wall_seconds = 0;
    long long work_units = 0;
    std::uint32_t state_hash = 0;
    double residual_drop_orders = 0;
    std::string note;
  };
  RunResult run_once(const LabFidelity& fid);

  mesh::UnstructuredMesh base_mesh_;  ///< shuffled; copied per evaluation
  cfd::FlowConfig flow_;
  mesh::OrderingOptions ordering_;
  solver::PtcOptions ptc_;
  Registry reg_;
};

}  // namespace f3d::tune
