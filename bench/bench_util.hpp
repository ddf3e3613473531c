#pragma once
// Shared infrastructure for the per-table/per-figure benchmark harnesses:
// standard meshes, work-coefficient calibration from the real kernels,
// real psi-NKS probes (measured iteration counts), the iteration-growth
// fit that extrapolates measured algorithmic behaviour to the paper's
// 2.8M-vertex scale, and the BENCH_*.json writer with the gates every
// artifact carries.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cfd/euler.hpp"
#include "mesh/generator.hpp"
#include "obs/json.hpp"
#include "par/loadmodel.hpp"
#include "par/stepmodel.hpp"
#include "partition/partition.hpp"
#include "solver/newton.hpp"

namespace f3d::benchutil {

/// Paper-style experiment header.
void print_header(const std::string& experiment, const std::string& paper_ref);

/// Wing mesh in "as-delivered" (shuffled) order.
mesh::UnstructuredMesh make_shuffled_wing(int target_vertices,
                                          unsigned seed = 1);

/// Same mesh with the paper's best layout (RCM + sorted edges).
mesh::UnstructuredMesh make_ordered_wing(int target_vertices,
                                         unsigned seed = 1);

/// Work coefficients for the virtual machine, calibrated from the actual
/// discretization and preconditioner sizes on the given mesh.
par::WorkCoefficients calibrate_work(const cfd::EulerDiscretization& disc,
                                     int ilu_fill, bool single_precision);

/// Result of a short real psi-NKS run with P subdomains.
struct NksProbe {
  int subdomains = 0;
  double linear_its_per_step = 0;
  double flux_evals_per_step = 0;
  long long total_linear_its = 0;
  int steps = 0;
  double wall_seconds = 0;
  bool converged = false;
};

enum class Partitioner { kKway, kBalanceFirst, kMultilevel };

/// Run `steps` pseudo-timesteps of the incompressible wing problem with
/// the given Schwarz configuration on `subdomains` subdomains; measure the
/// real iteration counts (the eta_alg ingredient of Tables 3-4 / Fig 4).
NksProbe probe_nks(const mesh::UnstructuredMesh& mesh, int subdomains,
                   const solver::SchwarzOptions& schwarz, int steps,
                   Partitioner partitioner = Partitioner::kKway,
                   double rtol = 1e-10);

/// Fit its(P) = its_base * (P / P_base)^alpha by least squares in log
/// space; returns alpha. Input: (procs, its) pairs.
double fit_iteration_growth(
    const std::vector<std::pair<int, double>>& its_by_procs);

/// Surface law measured from real partitions of the given mesh across a
/// range of subdomain counts.
par::SurfaceLaw measure_surface_law(const mesh::UnstructuredMesh& mesh,
                                    const std::vector<int>& part_counts,
                                    Partitioner partitioner = Partitioner::kKway);

/// JSON value for the machine-readable BENCH_*.json artifacts. Now the
/// observability layer's value type (objects keep insertion order;
/// doubles print with %.17g so round-trips are exact).
using Json = obs::Json;

/// The pass/fail criteria of one bench run, stated once. Each gate
/// compares a measured value with a threshold through one of ">=", ">",
/// "<=", "<", "=="; its name is the series field it checks
/// ("false_positives", "kernels.block_spmv.speedup_simd_mixed").
/// write_json stores the gates as series.gates, where
/// scripts/check_docs.py recomputes every verdict, and exit_status() is
/// the bench's exit status.
class Gates {
public:
  /// Required gate: a failure makes exit_status() nonzero.
  void check(std::string name, double value, const std::string& op,
             double threshold);
  /// Required boolean gate: `value == true`.
  void check(std::string name, bool value);
  /// Advisory gate: it may fail without failing the run, but then `note`
  /// must say why (it is written only when the gate fails).
  void advisory(std::string name, double value, const std::string& op,
                double threshold, std::string note);
  /// Advisory boolean gate: `value == true`.
  void advisory(std::string name, bool value, std::string note);

  [[nodiscard]] bool empty() const { return gates_.empty(); }
  /// 0 when every required gate passes, 1 otherwise.
  [[nodiscard]] int exit_status() const;
  /// The gate table (name, value, op, threshold, verdict) plus the note
  /// of every failed advisory gate, on stdout.
  void print() const;
  /// [{name, value, op, threshold, pass[, advisory, note]}]
  [[nodiscard]] Json to_json() const;

private:
  struct Gate {
    std::string name;
    Json value;  ///< number, or bool for check(name, bool)
    std::string op;
    Json threshold;
    bool pass = false;
    bool advisory = false;
    std::string note;  ///< advisory only: the reason a miss is acceptable
  };
  void add(Gate g);
  std::vector<Gate> gates_;
};

/// Serialize `series` plus `gates` (as series.gates) to `path`
/// (pretty-printed, trailing newline), wrapped in the f3d-bench-v1
/// envelope {"meta": {...}, "series": ...}. The experiment name is derived
/// from the file name ("BENCH_threading.json" -> "threading"). Throws
/// f3d::Error if `gates` is empty or the file cannot be written.
void write_json(const std::string& path, Json series, const Gates& gates);

/// Relative cost of arm `on` over arm `off` on a host whose speed drifts:
/// nine back-to-back pairs, alternating which arm runs first, estimated
/// by the median per-pair ratio. Each arm returns the seconds it measured.
struct PairedRatio {
  std::vector<double> ratios;  ///< on/off seconds per pair, in run order
  double median = 1.0;         ///< the estimate
};
PairedRatio paired_ratio(const std::function<double()>& off,
                         const std::function<double()>& on);

}  // namespace f3d::benchutil
