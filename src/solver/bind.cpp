// bind() implementations for the solver option structs: each registers
// its tunable fields as named, range-constrained knobs (tune/registry.hpp)
// while the structs keep their typed access everywhere else. Ranges are
// the admissible search intervals, not hard mathematical limits — wide
// enough to cover the paper's reported sweeps, narrow enough that every
// in-range value yields a well-posed solve.

#include "solver/krylov.hpp"
#include "solver/newton.hpp"
#include "solver/precond.hpp"
#include "tune/registry.hpp"

namespace f3d::solver {

void GmresOptions::bind(tune::Registry& reg, const std::string& prefix) {
  reg.add_int(prefix + "restart", &restart, 4, 200,
              "GMRES(m) restart length; the paper's §2.4.2 subspace-size "
              "knob (Table 4 uses 20, typical range 10-30)");
  reg.add_double(prefix + "rtol", &rtol, 1e-6, 0.5,
                 "inexact-Newton linear tolerance; looser = cheaper inner "
                 "solves but more outer steps (§2.4.2 inexactness knob)");
  reg.add_int(prefix + "max_iters", &max_iters, 20, 400,
              "total Krylov iterations across restarts per Newton "
              "correction (§2.4.2)");
  reg.add_enum(prefix + "orth", &orth,
               {"modified_gram_schmidt", "classical_gram_schmidt"},
               "orthogonalization mechanism; classical GS trades stability "
               "for fewer synchronization points (§2.4.2)");
}

void SchwarzOptions::bind(tune::Registry& reg, const std::string& prefix) {
  reg.add_enum(prefix + "type", &type, {"block_jacobi", "asm", "rasm"},
               "Schwarz variant; RASM halves the communication of ASM "
               "(§2.4.3, Table 4)");
  reg.add_int(prefix + "overlap", &overlap, 0, 2,
              "BFS levels of subdomain overlap (Table 4 sweeps 0-2)");
  reg.add_int(prefix + "fill_level", &fill_level, 0, 3,
              "ILU(k) fill level of the subdomain factorization; the "
              "paper's subdomain-solver-quality knob (§2.4.3)");
  reg.add_bool(prefix + "single_precision", &single_precision,
               "store subdomain factors in float (double arithmetic) — "
               "halves factor memory traffic (Table 2)");
  reg.add_enum(prefix + "subdomain_solver", &subdomain_solver,
               {"ilu", "ssor"},
               "subdomain solve kind: ILU(k) factorization or SSOR "
               "sweeps (§2.4.3 quality-of-subdomain-solver knob)");
  reg.add_int(prefix + "sweeps", &sweeps, 1, 6,
              "SSOR sweep count when subdomain_solver == ssor");
}

void PtcOptions::bind(tune::Registry& reg) {
  reg.add_double("ptc.cfl0", &cfl0, 0.5, 1e4,
                 "initial CFL number of the pseudo-transient continuation "
                 "(§2.4.1; paper starts at 10)");
  reg.add_double("ptc.ser_exponent", &ser_exponent, 0.0, 2.0,
                 "p in the SER power law; the paper quotes 0.75-1.5 "
                 "(§2.4.1, Fig 5)");
  reg.add_double("ptc.cfl_max", &cfl_max, 1e2, 1e6,
                 "CFL cap of the continuation (paper: CFL reaches 1e5)");
  reg.add_enum("ptc.krylov", &krylov, {"gmres", "bicgstab"},
               "inner Krylov method (§2.4.2; the paper uses GMRES)");
  reg.add_int("ptc.num_subdomains", &num_subdomains, 1, 32,
              "Schwarz subdomain count — the paper's processor-count "
              "algorithmic axis (more, smaller blocks => more Krylov "
              "iterations; Fig 4)");
  // The coarse level is a Schwarz option; the knob keeps its ptc. name so
  // tuning-DB entries and fleet specs stay valid.
  reg.add_bool("ptc.use_coarse_space", &schwarz.coarse_space,
               "two-level Schwarz aggregation coarse space (the paper's "
               "coarse-grid-usage knob, §2.4.3)");
  reg.add_int("ptc.jacobian_refresh", &jacobian_refresh, 1, 10,
              "rebuild+refactor the preconditioner every k pseudo-steps "
              "(§2.4 refresh-frequency knob)");
  reg.add_bool("ptc.matrix_free", &matrix_free,
               "matrix-free FD Jacobian action vs the assembled "
               "first-order operator (§2.4.2; ablated in "
               "bench_ablation_subsolver)");
  reg.add_bool("ptc.matrix_single_precision", &matrix_single_precision,
               "assembled Krylov operator stored in float (double "
               "arithmetic) — Table 2 storage/accumulate split; only "
               "active when ptc.matrix_free is off");
  gmres.bind(reg, "gmres.");
  schwarz.bind(reg, "schwarz.");
}

}  // namespace f3d::solver
