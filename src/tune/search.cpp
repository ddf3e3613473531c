#include "tune/search.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace f3d::tune {

namespace {

// A candidate is the numeric vector over the searched knobs; the full
// registry (searched + untouched knobs) is what the evaluator sees.
using Values = std::vector<double>;

void apply(Registry& reg, const std::vector<const Knob*>& knobs,
           const Values& v) {
  for (std::size_t i = 0; i < knobs.size(); ++i)
    reg.set_number(knobs[i]->name, v[i]);
}

Values current(const std::vector<const Knob*>& knobs) {
  Values v(knobs.size());
  for (std::size_t i = 0; i < knobs.size(); ++i) v[i] = knobs[i]->get();
  return v;
}

double sample_knob(const Knob& k, Rng& rng) {
  switch (k.kind) {
    case KnobKind::kBool:
      return rng.below(2) ? 1.0 : 0.0;
    case KnobKind::kEnum:
    case KnobKind::kInt: {
      const long long lo = std::llround(k.min), hi = std::llround(k.max);
      return static_cast<double>(
          lo + static_cast<long long>(rng.below(
                   static_cast<std::uint64_t>(hi - lo + 1))));
    }
    case KnobKind::kDouble:
      if (k.log_scale)
        return std::exp(rng.uniform(std::log(k.min), std::log(k.max)));
      return rng.uniform(k.min, k.max);
  }
  return k.min;
}

Values sample_config(const std::vector<const Knob*>& knobs, Rng& rng) {
  Values v(knobs.size());
  for (std::size_t i = 0; i < knobs.size(); ++i)
    v[i] = sample_knob(*knobs[i], rng);
  return v;
}

struct Driver {
  Registry& reg;
  const std::vector<const Knob*>& knobs;
  const Evaluator& evaluate;
  SearchResult& result;

  TrialOutcome run(const Values& v, int fidelity) {
    apply(reg, knobs, v);
    TrialRecord rec;
    rec.trial = result.evaluations++;
    rec.fidelity = fidelity;
    rec.config = reg.to_json();
    rec.outcome = evaluate(reg, fidelity);
    if (!rec.outcome.ok) ++result.rejected;
    result.history.push_back(rec);
    return result.history.back().outcome;
  }
};

}  // namespace

SearchResult search(Registry& reg, const std::vector<std::string>& knob_names,
                    const Evaluator& evaluate, const SearchOptions& opts) {
  std::vector<const Knob*> knobs;
  knobs.reserve(knob_names.size());
  for (const auto& name : knob_names) knobs.push_back(&reg.at(name));

  SearchResult result;
  Driver drv{reg, knobs, evaluate, result};
  Rng rng(opts.seed);

  // Degenerate-input guards: a one-rung schedule, eta <= 1, or a
  // zero-width bracket must not divide by zero / loop forever below.
  const int rungs = std::max(1, opts.halving_rungs);
  const double eta = opts.halving_eta > 1.0 ? opts.halving_eta : 2.0;
  const int final_fidelity = rungs - 1;

  // Baseline: the configuration the registry holds on entry (for a
  // freshly bound registry, the compiled defaults).
  const Values base = current(knobs);
  const obs::Json base_config = reg.to_json();
  const TrialOutcome base_out = drv.run(base, final_fidelity);
  result.baseline_ok = base_out.ok;
  result.baseline_score = base_out.score;

  Values best = base;
  double best_score = base_out.score;
  bool best_ok = base_out.ok;
  bool best_is_base = true;

  auto offer = [&](const Values& v, const TrialOutcome& out) {
    if (!out.ok) return;
    if (!best_ok || out.score < best_score) {
      best = v;
      best_score = out.score;
      best_ok = true;
      best_is_base = v == base;
    }
  };

  if (knobs.empty()) {
    // Empty knob space: nothing to search; the baseline is the answer.
    result.note = "empty knob space: baseline returned untouched";
  } else {
    // Bracket: slot 0 = baseline, the rest seeded samples. A width of 1
    // (single-candidate bracket) degenerates to re-scoring the baseline
    // and is handled by the same loop.
    const int width = std::max(1, opts.halving_width);
    std::vector<Values> alive;
    alive.push_back(base);
    for (int c = 1; c < width; ++c) alive.push_back(sample_config(knobs, rng));

    for (int r = 0; r < rungs && !alive.empty(); ++r) {
      std::vector<std::pair<double, Values>> scored;
      for (const auto& v : alive) {
        const TrialOutcome out = drv.run(v, r);
        if (out.ok) scored.emplace_back(out.score, v);
        if (r == rungs - 1 && out.ok) offer(v, out);
      }
      if (scored.empty()) {
        result.note =
            "all rung-" + std::to_string(r) + " candidates failed the gates";
        alive.clear();
        break;
      }
      std::stable_sort(
          scored.begin(), scored.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      const int keep =
          std::max(1, static_cast<int>(std::ceil(scored.size() / eta)));
      alive.clear();
      for (int i = 0; i < keep && i < static_cast<int>(scored.size()); ++i)
        alive.push_back(scored[i].second);
    }
  }

  // The winner must beat the baseline to count as an improvement; ties
  // and losses fall back to the compiled defaults.
  if (best_ok && !best_is_base &&
      (!result.baseline_ok || best_score < result.baseline_score)) {
    result.improved = true;
    apply(reg, knobs, best);
    result.best_config = reg.to_json();
    result.best_score = best_score;
  } else {
    apply(reg, knobs, base);
    result.best_config = base_config;
    result.best_score = result.baseline_score;
    if (result.note.empty())
      result.note = result.baseline_ok
                        ? "no proposal beat the baseline"
                        : "baseline and every proposal failed the gates";
  }
  return result;
}

}  // namespace f3d::tune
