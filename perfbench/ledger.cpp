#include "ledger.hpp"

#include <cmath>
#include <cstdint>

namespace perfbench {

const std::map<std::string, std::string>& layer_map() {
  static const std::map<std::string, std::string> m = {
      // Driver (src/solver/newton.cpp): the root and its thin wrappers
      // around calls into the problem.
      {"ptc_solve", "solver.driver_self_s"},
      {"flux", "solver.driver_self_s"},
      {"jacobian", "solver.driver_self_s"},
      {"admissibility", "solver.driver_self_s"},
      {"checkpoint", "solver.driver_self_s"},
      {"partition", "solver.partition_s"},
      {"factor", "solver.factor_setup_s"},
      {"krylov", "solver.krylov_self_s"},
      {"precond", "solver.precond_apply_s"},
      {"ilu.factor", "sparse.ilu_factor_s"},
      // cfd kernels (src/cfd/euler.cpp).
      {"gradient", "cfd.gradient_s"},
      {"limiter", "cfd.limiter_s"},
      {"flux_scatter", "cfd.flux_scatter_s"},
      {"jacobian_assembly", "cfd.jacobian_assembly_s"},
      // The benchmark's own spans around each call into cfd (main.cpp)
      // plus the timestep kernel: what cfd does outside the kernels above.
      {"cfd.residual", "cfd.other_s"},
      {"cfd.jacobian", "cfd.other_s"},
      {"cfd.timestep_scale", "cfd.other_s"},
      {"spectral_radius", "cfd.other_s"},
  };
  return m;
}

namespace {

struct Frame {
  const std::string* layer;
  std::uint64_t dur_ns;
  std::uint64_t child_ns;
};

}  // namespace

void fold_exclusive(const std::vector<f3d::obs::SpanEvent>& events,
                    const std::map<std::string, std::string>& layers,
                    Ledger& ledger) {
  static const std::string unmapped = Ledger::kUnmappedRoot;
  std::map<int, std::vector<Frame>> stacks;  // per tracer thread
  auto close = [&](std::vector<Frame>& stack) {
    const Frame& f = stack.back();
    const std::uint64_t self =
        f.dur_ns > f.child_ns ? f.dur_ns - f.child_ns : 0;
    ledger.self_s[*f.layer] += static_cast<double>(self) * 1e-9;
    stack.pop_back();
  };
  for (const auto& e : events) {
    auto& stack = stacks[e.tid];
    const auto depth = static_cast<std::size_t>(e.depth < 0 ? 0 : e.depth);
    while (stack.size() > depth) close(stack);
    const std::uint64_t dur = e.t1_ns - e.t0_ns;
    const std::string* layer = &unmapped;
    if (auto it = layers.find(e.name); it != layers.end())
      layer = &it->second;
    else if (!stack.empty())
      layer = stack.back().layer;
    if (!stack.empty()) stack.back().child_ns += dur;
    if (depth == 0) {
      ledger.root_s += static_cast<double>(dur) * 1e-9;
      ++ledger.roots;
    }
    ++ledger.span_count[e.name];
    stack.push_back({layer, dur, 0});
  }
  for (auto& [tid, stack] : stacks)
    while (!stack.empty()) close(stack);
}

std::string self_test_fold() {
  // One solve tree with known self times (ns), including an unmapped
  // exec.chunk under the limiter, then an unmapped root.
  const std::vector<f3d::obs::SpanEvent> ev = {
      {"ptc_solve", 0, 0, 1000, 0},
      {"partition", 0, 0, 50, 1},
      {"jacobian", 0, 100, 300, 1},
      {"cfd.jacobian", 0, 110, 290, 2},
      {"jacobian_assembly", 0, 120, 270, 3},
      {"krylov", 0, 300, 900, 1},
      {"precond", 0, 310, 410, 2},
      {"flux", 0, 450, 750, 2},
      {"cfd.residual", 0, 460, 740, 3},
      {"gradient", 0, 470, 570, 4},
      {"limiter", 0, 570, 620, 4},
      {"exec.chunk", 0, 580, 600, 5},
      {"flux_scatter", 0, 650, 710, 4},
      {"mystery", 0, 2000, 2010, 0},
  };
  const std::map<std::string, double> want_ns = {
      {"solver.driver_self_s", 190}, {"solver.partition_s", 50},
      {"cfd.other_s", 100},          {"cfd.jacobian_assembly_s", 150},
      {"solver.krylov_self_s", 200}, {"solver.precond_apply_s", 100},
      {"cfd.gradient_s", 100},       {"cfd.limiter_s", 50},
      {"cfd.flux_scatter_s", 60},    {Ledger::kUnmappedRoot, 10},
  };
  Ledger l;
  fold_exclusive(ev, layer_map(), l);
  if (l.self_s.size() != want_ns.size())
    return "expected " + std::to_string(want_ns.size()) + " layers, got " +
           std::to_string(l.self_s.size());
  double sum = 0;
  for (const auto& [layer, ns] : want_ns) {
    auto it = l.self_s.find(layer);
    if (it == l.self_s.end()) return "missing layer " + layer;
    if (std::fabs(it->second * 1e9 - ns) > 1e-6)
      return layer + ": got " + std::to_string(it->second * 1e9) +
             " ns, want " + std::to_string(ns);
    sum += it->second;
  }
  if (l.roots != 2 || std::fabs(l.root_s * 1e9 - 1010) > 1e-6)
    return "root total wrong";
  if (std::fabs(sum - l.root_s) > 1e-15) return "layers do not sum to roots";
  if (l.span_count.at("ptc_solve") != 1 || l.span_count.at("exec.chunk") != 1)
    return "span counts wrong";
  return "";
}

}  // namespace perfbench
