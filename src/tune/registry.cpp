#include "tune/registry.hpp"

#include <cmath>

namespace f3d::tune {

const char* knob_kind_name(KnobKind kind) {
  switch (kind) {
    case KnobKind::kInt: return "int";
    case KnobKind::kDouble: return "double";
    case KnobKind::kBool: return "bool";
    case KnobKind::kEnum: return "enum";
  }
  return "?";
}

obs::Json Knob::value_json() const {
  const double v = get();
  switch (kind) {
    case KnobKind::kInt:
      return obs::Json(static_cast<long long>(std::llround(v)));
    case KnobKind::kDouble: return obs::Json(v);
    case KnobKind::kBool: return obs::Json(v != 0);
    case KnobKind::kEnum:
      return obs::Json(choices[static_cast<std::size_t>(std::llround(v))]);
  }
  return obs::Json();
}

obs::Json Knob::describe() const {
  obs::Json j = obs::Json::object();
  j.set("name", name).set("kind", knob_kind_name(kind));
  if (kind == KnobKind::kInt) {
    j.set("min", static_cast<long long>(std::llround(min)))
        .set("max", static_cast<long long>(std::llround(max)));
    j.set("default", static_cast<long long>(std::llround(def)));
  } else if (kind == KnobKind::kDouble) {
    j.set("min", min).set("max", max);
    j.set("default", def);
    j.set("log_scale", log_scale);
  } else if (kind == KnobKind::kBool) {
    j.set("default", def != 0);
  } else {
    obs::Json cs = obs::Json::array();
    for (const auto& c : choices) cs.push(obs::Json(c));
    j.set("choices", std::move(cs));
    j.set("default", choices[static_cast<std::size_t>(std::llround(def))]);
  }
  j.set("doc", doc);
  return j;
}

void Registry::add(Knob k) {
  F3D_CHECK_MSG(!k.name.empty(), "knob name must be non-empty");
  F3D_CHECK_MSG(index_.find(k.name) == index_.end(),
                "duplicate knob name: " + k.name);
  F3D_CHECK_MSG(k.min <= k.max, "knob " + k.name + ": min > max");
  k.def = k.get();
  F3D_CHECK_MSG(k.def >= k.min && k.def <= k.max,
                "knob " + k.name + ": default outside [min, max]");
  index_[k.name] = static_cast<int>(knobs_.size());
  knobs_.push_back(std::move(k));
}

void Registry::add_int(const std::string& name, int* target, int lo, int hi,
                       const std::string& doc) {
  Knob k;
  k.name = name;
  k.doc = doc;
  k.kind = KnobKind::kInt;
  k.min = lo;
  k.max = hi;
  k.get = [target] { return static_cast<double>(*target); };
  k.set = [target](double v) { *target = static_cast<int>(std::llround(v)); };
  add(std::move(k));
}

void Registry::add_double(const std::string& name, double* target, double lo,
                          double hi, const std::string& doc) {
  Knob k;
  k.name = name;
  k.doc = doc;
  k.kind = KnobKind::kDouble;
  k.min = lo;
  k.max = hi;
  // Spanning two+ decades with a positive floor: perturb multiplicatively
  // (CFL, linear tolerances — the knobs the paper sweeps on log axes).
  k.log_scale = lo > 0 && hi / lo >= 100.0;
  k.get = [target] { return *target; };
  k.set = [target](double v) { *target = v; };
  add(std::move(k));
}

void Registry::add_bool(const std::string& name, bool* target,
                        const std::string& doc) {
  Knob k;
  k.name = name;
  k.doc = doc;
  k.kind = KnobKind::kBool;
  k.min = 0;
  k.max = 1;
  k.get = [target] { return *target ? 1.0 : 0.0; };
  k.set = [target](double v) { *target = v != 0; };
  add(std::move(k));
}

void Registry::add_enum_fn(const std::string& name, std::function<int()> get,
                           std::function<void(int)> set,
                           std::vector<std::string> choices,
                           const std::string& doc) {
  F3D_CHECK_MSG(!choices.empty(), "knob " + name + ": empty choice list");
  Knob k;
  k.name = name;
  k.doc = doc;
  k.kind = KnobKind::kEnum;
  k.min = 0;
  k.max = static_cast<double>(choices.size() - 1);
  k.choices = std::move(choices);
  k.get = [g = std::move(get)] { return static_cast<double>(g()); };
  k.set = [s = std::move(set)](double v) {
    s(static_cast<int>(std::llround(v)));
  };
  add(std::move(k));
}

const Knob* Registry::find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &knobs_[it->second];
}

const Knob& Registry::at(const std::string& name) const {
  const Knob* k = find(name);
  F3D_CHECK_MSG(k != nullptr, "unknown knob: " + name);
  return *k;
}

obs::Json Registry::dump_catalog() const {
  obs::Json arr = obs::Json::array();
  for (const auto& k : knobs_) arr.push(k.describe());
  return arr;
}

double Registry::get_number(const std::string& name) const {
  return at(name).get();
}

void Registry::set_number(const std::string& name, double v) {
  const Knob& k = at(name);
  if (v < k.min) v = k.min;
  if (v > k.max) v = k.max;
  k.set(v);
}

obs::Json Registry::to_json() const {
  obs::Json j = obs::Json::object();
  for (const auto& k : knobs_) j.set(k.name, k.value_json());
  return j;
}

namespace {

// Numeric view of a JSON member for knob `k`; throws on type mismatch or
// out-of-range values. Pure — called for every member before any setter
// runs, so a bad config is rejected without partially applying.
double validated_number(const Knob& k, const obs::Json& v) {
  using Kind = obs::Json::Kind;
  switch (k.kind) {
    case KnobKind::kInt: {
      F3D_CHECK_MSG(v.kind == Kind::kInt,
                    "knob " + k.name + ": expected an integer");
      const double d = static_cast<double>(v.i);
      F3D_CHECK_MSG(d >= k.min && d <= k.max,
                    "knob " + k.name + ": " + std::to_string(v.i) +
                        " outside [" + std::to_string((long long)k.min) +
                        ", " + std::to_string((long long)k.max) + "]");
      return d;
    }
    case KnobKind::kDouble: {
      F3D_CHECK_MSG(v.kind == Kind::kInt || v.kind == Kind::kDouble,
                    "knob " + k.name + ": expected a number");
      const double d = v.number();
      F3D_CHECK_MSG(std::isfinite(d) && d >= k.min && d <= k.max,
                    "knob " + k.name + ": " + std::to_string(d) +
                        " outside [" + std::to_string(k.min) + ", " +
                        std::to_string(k.max) + "]");
      return d;
    }
    case KnobKind::kBool:
      F3D_CHECK_MSG(v.kind == Kind::kBool,
                    "knob " + k.name + ": expected a bool");
      return v.b ? 1.0 : 0.0;
    case KnobKind::kEnum: {
      F3D_CHECK_MSG(v.kind == Kind::kString,
                    "knob " + k.name + ": expected a choice string");
      for (std::size_t i = 0; i < k.choices.size(); ++i)
        if (k.choices[i] == v.s) return static_cast<double>(i);
      F3D_CHECK_MSG(false, "knob " + k.name + ": '" + v.s +
                               "' is not one of its choices");
    }
  }
  return 0;
}

}  // namespace

void Registry::from_json(const obs::Json& config) {
  F3D_CHECK_MSG(config.is_object(), "knob config must be a JSON object");
  // Validate everything first so a throw leaves the registry untouched.
  std::vector<std::pair<const Knob*, double>> pending;
  pending.reserve(config.members.size());
  for (const auto& [name, value] : config.members) {
    const Knob* k = find(name);
    F3D_CHECK_MSG(k != nullptr, "unknown knob: " + name);
    pending.emplace_back(k, validated_number(*k, value));
  }
  for (const auto& [k, v] : pending) k->set(v);
}

void Registry::reset_defaults() {
  for (const auto& k : knobs_) k.set(k.def);
}

}  // namespace f3d::tune
