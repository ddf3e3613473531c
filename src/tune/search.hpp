#pragma once
// tune::search — the search driver over a Registry's knob space.
// Successive halving proposes configurations, an Evaluator runs them (for the solver: a short real
// ψNKS solve under a guard::SolveBudget — see tune/lab.hpp) and reports
// a score plus a pass/fail on the correctness gates; the driver never
// lets a gate-failing configuration win. The result always carries a
// usable configuration: when no proposal beats the baseline (the
// registry's state on entry, i.e. the compiled defaults), the baseline
// is restored and returned with improved == false — the "tuned config is
// never worse than compiled defaults" guarantee is structural.
//
// Every proposal comes from a seeded f3d::Rng, so a search over a
// deterministic evaluator is reproducible bit-for-bit from its seed.
//
// Degenerate inputs are first-class (the measure_load/fit_surface_law
// lesson): an empty knob list, a single-candidate halving bracket, a
// one-rung schedule, or eta <= 1 must all terminate without dividing by
// zero — they just evaluate what they were given.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "tune/registry.hpp"

namespace f3d::tune {

/// What one evaluation of the current registry configuration reported.
struct TrialOutcome {
  /// All correctness gates passed (solver evaluators: bit-identity of a
  /// repeated run, residual tolerance reached, no SolveVerdict failure).
  bool ok = false;
  double score = 0;         ///< minimized; only meaningful when ok
  double wall_seconds = 0;  ///< measured solve wall time
  long long work_units = 0; ///< deterministic cost-model total
  std::string note;         ///< gate-failure reason when !ok
};

/// Evaluate the configuration currently held by the registry. `fidelity`
/// is the successive-halving rung (0 = cheapest); evaluators scale their
/// solve budget/tolerance with it. Scores are only compared within one
/// fidelity level.
using Evaluator = std::function<TrialOutcome(Registry&, int fidelity)>;

/// The search strategy's name, as recorded in tuning-DB entries.
inline constexpr const char* kSearchStrategy = "successive-halving";

struct SearchOptions {
  std::uint64_t seed = 1;

  // Successive halving: `halving_width` seeded candidates (slot 0 is the
  // baseline configuration) race through `halving_rungs` rungs; rung r
  // evaluates the survivors at fidelity r and keeps ceil(n / halving_eta)
  // of the gate-passing ones. The baseline is additionally scored at the
  // final rung's fidelity so the winner is comparable to it.
  int halving_width = 8;
  int halving_rungs = 2;
  double halving_eta = 2.0;
};

struct TrialRecord {
  int trial = 0;     ///< global evaluation index (0 = baseline)
  int fidelity = 0;
  obs::Json config;  ///< full flat dump of the evaluated configuration
  TrialOutcome outcome;
};

struct SearchResult {
  obs::Json best_config;      ///< full flat dump; baseline when !improved
  double best_score = 0;      ///< final-fidelity score of best_config
  double baseline_score = 0;  ///< final-fidelity score of the entry config
  bool baseline_ok = false;   ///< baseline passed the gates
  bool improved = false;      ///< a proposal beat the baseline
  int evaluations = 0;        ///< evaluator calls, baseline included
  int rejected = 0;           ///< evaluations failing the correctness gates
  std::string note;           ///< e.g. why the search fell back to baseline
  std::vector<TrialRecord> history;
};

/// Search the space spanned by `knob_names` (each must be registered).
/// On return the registry holds best_config. Throws f3d::Error on an
/// unknown knob name; an empty `knob_names` is the degenerate
/// nothing-to-search space — the baseline is evaluated once and returned.
SearchResult search(Registry& reg, const std::vector<std::string>& knob_names,
                    const Evaluator& evaluate, const SearchOptions& opts);

}  // namespace f3d::tune
