#pragma once
// f3d::tune — declarative knob registry, the flat options layer under the
// autotuner. The paper's whole arc is tuning: layout (§2.1.3, Table 1),
// precision (§2.2, Table 2), Schwarz quality (§2.4.3, Table 4), restart
// length and inexactness (§2.4.2), CFL continuation (§2.4.1, Fig 5),
// partitioning (Fig 4). Those knobs live in typed structs scattered
// across the stack (PtcOptions, SchwarzOptions, GmresOptions, FlowConfig,
// mesh ordering); each struct gains a `bind(Registry&)` that registers
// its fields as named, range-constrained knobs, so solver code keeps its
// typed access while the search driver (tune/search.hpp) and the tuning
// DB (tune/db.hpp) see one flat, introspectable space. Process-global
// state (the exec pool size, the SIMD switch) is not a knob: a DB hit
// must not rewrite the host-wide execution state.
//
// Contract: a knob is a name + kind + inclusive range (or enum choice
// list) + a getter/setter pair into the bound struct, with the default
// captured at bind time. set_number() clamps (the search driver's
// proposals are always admissible); from_json() is strict — an unknown
// knob, a type mismatch, or an out-of-range value throws f3d::Error and
// leaves the registry untouched, which is what makes a corrupt tuning-DB
// entry safely rejectable at solver startup.
//
// Layering: tune sits above obs/common and below mesh/cfd/solver (which
// link it to implement their bind() methods).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace f3d::tune {

enum class KnobKind { kInt, kDouble, kBool, kEnum };
[[nodiscard]] const char* knob_kind_name(KnobKind kind);

/// One named, typed, range-constrained tuning parameter. Numeric access
/// is uniform: bool reads/writes 0/1, enum reads/writes the choice index.
struct Knob {
  std::string name;
  std::string doc;  ///< one line incl. the paper §/table it comes from
  KnobKind kind = KnobKind::kDouble;
  double min = 0;   ///< inclusive (int/double; enum: 0)
  double max = 0;   ///< inclusive (int/double; enum: choices.size()-1)
  bool log_scale = false;  ///< hint: sample/perturb in log space
  std::vector<std::string> choices;  ///< kEnum only
  double def = 0;   ///< default captured at bind time (numeric view)

  std::function<double()> get;
  std::function<void(double)> set;

  /// Current value as JSON (int/double/bool natively; enum as its string).
  [[nodiscard]] obs::Json value_json() const;
  /// Introspection record: name/kind/min/max/choices/default/doc.
  [[nodiscard]] obs::Json describe() const;
};

class Registry {
public:
  // ---- binder API (called by the bind() methods of the option structs).
  void add_int(const std::string& name, int* target, int lo, int hi,
               const std::string& doc);
  void add_double(const std::string& name, double* target, double lo,
                  double hi, const std::string& doc);
  void add_bool(const std::string& name, bool* target, const std::string& doc);
  template <class E>
  void add_enum(const std::string& name, E* target,
                std::vector<std::string> choices, const std::string& doc) {
    add_enum_fn(
        name, [target] { return static_cast<int>(*target); },
        [target](int v) { *target = static_cast<E>(v); }, std::move(choices),
        doc);
  }
  void add_enum_fn(const std::string& name, std::function<int()> get,
                   std::function<void(int)> set,
                   std::vector<std::string> choices, const std::string& doc);

  // ---- introspection.
  [[nodiscard]] int size() const { return static_cast<int>(knobs_.size()); }
  [[nodiscard]] const std::vector<Knob>& knobs() const { return knobs_; }
  /// nullptr when no knob has that name.
  [[nodiscard]] const Knob* find(const std::string& name) const;
  /// Like find(), but throws f3d::Error naming the knob when absent.
  [[nodiscard]] const Knob& at(const std::string& name) const;
  /// JSON array of Knob::describe() records — the `--dump-knobs` payload
  /// scripts/check_docs.py cross-checks against docs/TUNING.md.
  [[nodiscard]] obs::Json dump_catalog() const;

  // ---- numeric access (search-driver surface; enum via choice index).
  [[nodiscard]] double get_number(const std::string& name) const;
  /// Set with clamping into [min, max] (bool: v != 0; int/enum: rounded).
  void set_number(const std::string& name, double v);

  // ---- whole-configuration access.
  /// Flat { name: value } object over every knob, in registration order.
  [[nodiscard]] obs::Json to_json() const;
  /// Strict load: every member must name a registered knob, match its
  /// type, and lie inside its range/choices — otherwise throws f3d::Error
  /// and applies nothing. Members may cover any subset of the knobs.
  void from_json(const obs::Json& config);
  /// Restore every knob to its bind-time default.
  void reset_defaults();

private:
  void add(Knob k);

  std::vector<Knob> knobs_;
  std::map<std::string, int> index_;
};

}  // namespace f3d::tune
