// Design-cycle walkthrough: the paper's motivating use case. "FUN3D is
// used for design optimization ... The optimization loop involves many
// analysis cycles. Thus, time to reach the steady-state solution in each
// analysis cycle is crucial." This example runs a small angle-of-attack
// sweep (the analysis loop of a lift study), warm-starting each cycle
// from the previous converged state, and reports how much cheaper warm
// cycles are than cold ones — plus a lift-vs-alpha polar at the end.
//
//   $ design_cycle [-vertices 6000] [-cycles 5] [-dalpha 0.75]
//                  [-checkpoint cycle.f3dckpt]

#include <cmath>
#include <cstdio>

#include "cfd/problem.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "mesh/generator.hpp"
#include "mesh/ordering.hpp"
#include "resilience/checkpoint.hpp"
#include "solver/newton.hpp"

int main(int argc, char** argv) {
  using namespace f3d;
  Options opts(argc, argv);
  const int vertices = opts.get_int("vertices", 6000);
  const int cycles = opts.get_int("cycles", 5);
  const double dalpha = opts.get_double("dalpha", 0.75);

  auto mesh = mesh::generate_wing_mesh_with_size(vertices);
  mesh::apply_best_ordering(mesh);
  std::printf("design study: %d analysis cycles, alpha = 0 .. %.2f deg, "
              "%d vertices\n\n",
              cycles, dalpha * (cycles - 1), mesh.num_vertices());

  Table t({"cycle", "alpha", "start", "steps", "linear its", "time",
           "wall Fz (lift proxy)"});
  std::vector<double> state;  // carried between cycles (warm start)
  double cold_steps = 0, warm_steps = 0;
  int warm_cycles = 0;

  for (int cycle = 0; cycle < cycles; ++cycle) {
    cfd::FlowConfig cfg;
    cfg.model = cfd::Model::kIncompressible;
    cfg.order = 1;
    cfg.alpha_deg = dalpha * cycle;
    cfd::EulerDiscretization disc(mesh, cfg);
    cfd::EulerProblem prob(disc, -1.0);

    const bool warm = !state.empty();
    auto x = warm ? state : prob.initial_state();

    solver::PtcOptions popts;
    popts.cfl0 = warm ? 1000.0 : 20.0;  // warm states tolerate huge CFL
    popts.rtol = 1e-8;
    popts.max_steps = 60;
    popts.schwarz.fill_level = 1;
    Timer timer;
    auto res = solver::ptc_solve(prob, x, popts);
    const double secs = timer.seconds();
    if (!res.converged) {
      std::printf("cycle %d did not converge\n", cycle);
      return 1;
    }
    if (warm) {
      warm_steps += res.steps;
      ++warm_cycles;
    } else {
      cold_steps = res.steps;
    }

    // Lift proxy: z-component of the pressure force on the wall (grows
    // monotonically with the angle of attack — the polar a design loop
    // sweeps out).
    double fz = 0;
    const auto& bfaces = mesh.boundary_faces();
    for (std::size_t f = 0; f < bfaces.size(); ++f) {
      if (bfaces[f].tag != mesh::BoundaryTag::kWall) continue;
      for (int lv = 0; lv < 3; ++lv) {
        const int v = bfaces[f].v[lv];
        fz += x[static_cast<std::size_t>(v) * 4] *
              disc.dual().bface_normal[f][2] / 3.0;
      }
    }
    t.add_row({Table::num(static_cast<long long>(cycle)),
               Table::num(cfg.alpha_deg, 2), warm ? "warm" : "cold",
               Table::num(static_cast<long long>(res.steps)),
               Table::num(res.total_linear_iterations),
               Table::num(secs, 2) + "s", Table::num(fz, 4)});

    // Checkpoint the converged state in the driver's CRC-framed checkpoint
    // format and warm-start the next cycle from the file.
    state = x;
    if (opts.has("checkpoint")) {
      const std::string path = opts.get_string("checkpoint", "cycle.f3dckpt");
      resilience::PtcCheckpoint ck;
      ck.x = state;
      F3D_CHECK_MSG(resilience::save_checkpoint(path, ck),
                    "cannot write " + path);
      const auto loaded = resilience::load_checkpoint(path);
      F3D_CHECK_MSG(loaded.has_value(), "cannot read " + path);
      state = loaded->x;
    }
  }
  t.print();
  if (warm_cycles > 0 && cold_steps > 0)
    std::printf("\nwarm cycles averaged %.1f pseudo-steps vs %.0f for the "
                "cold start (%.1fx fewer) — the payoff the paper's design "
                "loop depends on.\n",
                warm_steps / warm_cycles, cold_steps,
                cold_steps * warm_cycles / std::max(warm_steps, 1e-9));
  return 0;
}
