#pragma once
// Flow model configuration and layout-aware field storage.
//
// Two Euler models, matching the paper's two workloads:
//  * incompressible (artificial compressibility): 4 unknowns per vertex
//    (p, u, v, w)  — 22,677 vertices -> 90,708 DOFs as in Table 1;
//  * compressible: 5 conservative unknowns (rho, rho*u, rho*v, rho*w, E)
//    — 113,385 DOFs at the same vertex count.
//
// FlowField hides the interlaced / non-interlaced storage decision behind
// (vertex, component) accessors; hot kernels instead fetch (base, stride)
// once per vertex so the two layouts run the identical instruction mix and
// differ only in memory behaviour — exactly the paper's §2.1.1 experiment.

#include <string>
#include <vector>

#include "common/error.hpp"
#include "sparse/layout.hpp"

namespace f3d::tune {
class Registry;
}

namespace f3d::cfd {

enum class Model {
  kIncompressible,  ///< artificial compressibility, nb = 4
  kCompressible,    ///< ideal-gas Euler, nb = 5
};

constexpr int num_components(Model m) {
  return m == Model::kIncompressible ? 4 : 5;
}

struct FlowConfig {
  Model model = Model::kIncompressible;
  double beta = 4.0;        ///< artificial compressibility parameter
  double gamma = 1.4;       ///< ratio of specific heats (compressible)
  double mach = 0.3;        ///< freestream Mach number (compressible)
  double alpha_deg = 2.0;   ///< angle of attack, degrees
  int order = 2;            ///< spatial order of the flux (1 or 2)
  double venkat_k = 5.0;    ///< Venkatakrishnan limiter strength
  sparse::FieldLayout layout = sparse::FieldLayout::kInterlaced;
  /// Store the second-order reconstruction operands (gradients + limiter
  /// values) in float. Arithmetic stays double (promote-on-load, the
  /// Table 2 storage/accumulate split); halves reconstruction memory
  /// traffic at the cost of float rounding in the stored operands.
  bool reco_single_precision = false;

  [[nodiscard]] int nb() const { return num_components(model); }

  /// Register the performance-only discretization knob (reconstruction-
  /// operand precision, Table 2) into the flat tuning space under
  /// `prefix`. `layout` is not a knob: EulerProblem accepts only the
  /// interlaced layout, and the Table 1 and Fig 3 exhibits set it
  /// directly. Physics parameters (model, Mach, alpha, order) are
  /// deliberately NOT knobs: tuning must not change the problem. The
  /// registry borrows this struct: it must outlive the registry.
  void bind(tune::Registry& reg, const std::string& prefix = "flow.");
};

/// Scalar state vector of nb components per vertex in a chosen layout.
class FlowField {
public:
  FlowField() = default;
  FlowField(int num_vertices, int nb, sparse::FieldLayout layout)
      : nv_(num_vertices),
        nb_(nb),
        layout_(layout),
        data_(static_cast<std::size_t>(num_vertices) * nb, 0.0) {}

  [[nodiscard]] int num_vertices() const { return nv_; }
  [[nodiscard]] int nb() const { return nb_; }
  [[nodiscard]] sparse::FieldLayout layout() const { return layout_; }

  [[nodiscard]] double get(int v, int c) const {
    return data_[sparse::field_index(layout_, nv_, nb_, v, c)];
  }
  void set(int v, int c, double val) {
    data_[sparse::field_index(layout_, nv_, nb_, v, c)] = val;
  }

  /// Hot-loop access: element (v, c) lives at data()[base(v) + c*stride()].
  [[nodiscard]] std::size_t base(int v) const {
    return layout_ == sparse::FieldLayout::kInterlaced
               ? static_cast<std::size_t>(v) * nb_
               : static_cast<std::size_t>(v);
  }
  [[nodiscard]] std::size_t stride() const {
    return layout_ == sparse::FieldLayout::kInterlaced
               ? 1
               : static_cast<std::size_t>(nv_);
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  [[nodiscard]] std::vector<double>& data() { return data_; }

  /// Copy into the other layout.
  [[nodiscard]] FlowField as_layout(sparse::FieldLayout to) const {
    FlowField out(nv_, nb_, to);
    out.data_ = sparse::convert_layout(data_, layout_, to, nv_, nb_);
    return out;
  }

private:
  int nv_ = 0;
  int nb_ = 0;
  sparse::FieldLayout layout_ = sparse::FieldLayout::kInterlaced;
  std::vector<double> data_;
};

}  // namespace f3d::cfd
