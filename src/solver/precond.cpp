#include "solver/precond.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "common/densemat.hpp"
#include "common/error.hpp"
#include "guard/guard.hpp"
#include "obs/obs.hpp"
#include "resilience/faults.hpp"

namespace f3d::solver {

namespace {

// First rung of the zero-pivot shift ladder, relative to the diagonal
// scale of the failing subdomain.
constexpr double kPivotShift0 = 1e-8;

// The one place a build or refresh changes a subdomain's values, before
// elimination, for either subdomain solver: a fired kFactorPivot draw
// zeroes block (0, 0) (a corrupted Jacobian block arriving at the
// factorization), and a ladder rung adds its shift to every scalar
// diagonal entry, once.
void edit_diagonal_block(int nb, bool zeroed, double shift, int k,
                         double* blk) {
  if (zeroed && k == 0)
    std::fill_n(blk, static_cast<std::size_t>(nb) * nb, 0.0);
  if (shift != 0)
    for (int c = 0; c < nb; ++c)
      blk[static_cast<std::size_t>(c) * nb + c] += shift;
}

// That edit for a gathered subdomain. Empty when neither applies, so a
// fault-free factorization reads A's values untouched.
sparse::DiagonalEdit diagonal_edit(int nb, bool zeroed, double shift) {
  if (!zeroed && shift == 0) return {};
  return [=](int k, double* blk) {
    edit_diagonal_block(nb, zeroed, shift, k, blk);
  };
}

// `assemble`, then the kFactorPivot draw into `zeroed`: assembled in
// place, the draw still follows the assembly, as it follows A's when A is
// assembled first.
sparse::BlockAssembler then_draw_pivot(const sparse::BlockAssembler& assemble,
                                       bool& zeroed) {
  return [&assemble, &zeroed](sparse::Bcsr<double>& m) {
    assemble(m);
    zeroed = resilience::fault_fires(resilience::FaultSite::kFactorPivot);
  };
}

// Diagonal scale of a failing subdomain, so the ladder's shift is
// relative: the largest |diagonal entry| of A's blocks (v, v), v in
// `vertices`, where a zeroed block (0, 0) adds nothing; 1 when that is 0
// or not finite.
double diagonal_scale(const sparse::Bcsr<double>& a,
                      const std::vector<int>& vertices, bool zeroed) {
  const int nb = a.nb;
  double scale = 0;
  for (std::size_t k = zeroed ? 1 : 0; k < vertices.size(); ++k) {
    const double* blk = a.find_block(vertices[k], vertices[k]);
    if (blk == nullptr) continue;
    for (int c = 0; c < nb; ++c)
      scale = std::max(scale,
                       std::abs(blk[static_cast<std::size_t>(c) * nb + c]));
  }
  if (scale == 0 || !std::isfinite(scale)) scale = 1.0;
  return scale;
}

// The rungs of the shift ladder for a subdomain whose first factorization
// failed: rung k refactors from A's values with kPivotShift0 * 10^k
// relative to the diagonal scale added once. `retry(shift, added)`
// refactors with relative shift `shift` and sets `added` to the absolute
// shift it added. Returns whether a rung factored.
template <class Retry>
bool climb_shift_ladder(int shift_attempts, const Retry& retry,
                        resilience::FactorReport& report) {
  double shift = kPivotShift0;
  for (int attempt = 0; attempt < shift_attempts; ++attempt, shift *= 10) {
    double added = 0;
    const bool ok = retry(shift, added);
    ++report.shift_attempts;
    report.shift_used = std::max(report.shift_used, added);
    if (ok) return true;
  }
  return false;
}

std::string ilu_failure(int bad_row) {
  return "singular diagonal block in block ILU at local row " +
         std::to_string(bad_row);
}

void check_options(const SchwarzOptions& opts) {
  F3D_CHECK(opts.overlap >= 0 && opts.fill_level >= 0);
  if (opts.type == SchwarzType::kBlockJacobi) {
    F3D_CHECK_MSG(opts.overlap == 0, "block Jacobi has no overlap");
  }
}

// `sweeps` symmetric block Gauss-Seidel iterations on the local system
// (pattern `local`, values `val` with factored diagonal blocks), starting
// from z = 0. Each half-sweep: z_i = D_ii^{-1} (b_i - sum_{j!=i} A_ij z_j)
// with the latest z values (forward then backward order).
template <int NB, bool kSimd>
void ssor_sweeps(const sparse::IluPattern& local, const double* val,
                 int sweeps, const double* b, double* z) {
  constexpr std::size_t bsz = static_cast<std::size_t>(NB) * NB;
  std::fill(z, z + static_cast<std::size_t>(local.n) * NB, 0.0);
  auto relax_row = [&](int i) {
    double zi[NB];
    std::copy_n(b + static_cast<std::size_t>(i) * NB, NB, zi);
    for (int p = local.ptr[i]; p < local.ptr[i + 1]; ++p) {
      const int j = local.col[p];
      if (j == i) continue;
      dense::gemv_sub<NB, kSimd>(val + p * bsz,
                                 z + static_cast<std::size_t>(j) * NB, zi);
    }
    dense::lu_solve<NB>(val + local.diag[i] * bsz, zi, zi);
    std::copy_n(zi, NB, z + static_cast<std::size_t>(i) * NB);
  };
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int i = 0; i < local.n; ++i) relax_row(i);
    for (int i = local.n - 1; i >= 0; --i) relax_row(i);
  }
}

}  // namespace

mesh::Graph graph_from_bcsr(const sparse::Bcsr<double>& a) {
  std::vector<std::array<int, 2>> edges;
  for (int i = 0; i < a.nrows; ++i)
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
      if (a.col[p] > i) edges.push_back({i, a.col[p]});
  return mesh::build_graph(a.nrows, edges);
}

SchwarzPreconditioner::SchwarzPreconditioner(const sparse::Bcsr<double>& a,
                                             const part::Partition& partition,
                                             const SchwarzOptions& opts)
    : n_(a.scalar_n()), nb_(a.nb), opts_(opts) {
  F3D_CHECK(partition.num_vertices() == a.nrows);
  for (const int id : partition.part)
    F3D_CHECK_MSG(id >= 0 && id < partition.nparts,
                  "partition id outside [0, nparts)");
  check_options(opts_);

  const auto g = graph_from_bcsr(a);
  auto regions = part::overlap_expand(g, partition, opts_.overlap);

  subs_.resize(partition.nparts);
  for (int s = 0; s < partition.nparts; ++s) {
    auto& sd = subs_[s];
    sd.vertices = std::move(regions[s]);
    F3D_CHECK_MSG(!sd.vertices.empty(), "empty subdomain");
    sd.owned.resize(sd.vertices.size());
    for (std::size_t k = 0; k < sd.vertices.size(); ++k)
      sd.owned[k] = partition.part[sd.vertices[k]] == s ? 1 : 0;

    // First factorization of A[vertices, vertices], right after this
    // subdomain's kFactorPivot draw (one per subdomain, in subdomain
    // order). The ILU factor is built here once; refreshes refactor it in
    // place.
    const auto edit = diagonal_edit(
        nb_, resilience::fault_fires(resilience::FaultSite::kFactorPivot), 0);
    if (opts_.subdomain_solver == SubdomainSolver::kSsor) {
      F3D_CHECK(nb_ <= dense::kMaxBlockSize);
      std::tie(sd.local, sd.local_map) =
          sparse::principal_submatrix(a.ptr, a.col, sd.vertices, 0);
      sd.local_val.resize(sd.local.nnz() * nb_ * nb_);
      std::string err;
      F3D_NUMERIC_CHECK_MSG(factor_subdomain(sd, a, edit, err), err);
    } else if (opts_.single_precision) {
      sd.ilu_f.emplace(a, opts_.fill_level, sd.vertices, edit);
    } else {
      sd.ilu_d.emplace(a, opts_.fill_level, sd.vertices, edit);
    }
  }
  if (opts_.coarse_space) {
    part_of_ = partition.part;
    F3D_NUMERIC_CHECK_MSG(build_coarse(a),
                          "singular coarse operator (check pseudo-time shift)");
  }
}

SchwarzPreconditioner::SchwarzPreconditioner(
    const sparse::Bcsr<double>& pattern, const SchwarzOptions& opts,
    const sparse::BlockAssembler& assemble)
    : n_(pattern.scalar_n()), nb_(pattern.nb), opts_(opts) {
  F3D_CHECK_MSG(assembles_in_place(opts_, 1),
                "only one double ILU subdomain with no coarse level is "
                "assembled in place");
  check_options(opts_);
  Subdomain& sd = subs_.emplace_back();
  sd.vertices.resize(pattern.nrows);
  std::iota(sd.vertices.begin(), sd.vertices.end(), 0);
  sd.owned.assign(sd.vertices.size(), 1);
  bool zeroed = false;
  sd.ilu_d.emplace(pattern, opts_.fill_level, then_draw_pivot(assemble, zeroed),
                   [&](int k, double* blk) {
                     edit_diagonal_block(nb_, zeroed, 0, k, blk);
                   });
}

bool SchwarzPreconditioner::assembles_in_place(const SchwarzOptions& opts,
                                               int nparts) {
  return nparts == 1 && opts.subdomain_solver == SubdomainSolver::kIlu &&
         !opts.single_precision && !opts.coarse_space;
}

bool SchwarzPreconditioner::build_coarse(const sparse::Bcsr<double>& a) {
  const int nc = coarse_dim();
  std::vector<double> a0(static_cast<std::size_t>(nc) * nc, 0.0);
  const std::size_t bsz = static_cast<std::size_t>(nb_) * nb_;

  // A0[(s,c),(t,d)] = sum over blocks (v in s, w in t) of block[c][d].
  for (int v = 0; v < a.nrows; ++v) {
    const int s = part_of_[v];
    for (int p = a.ptr[v]; p < a.ptr[v + 1]; ++p) {
      const int t = part_of_[a.col[p]];
      const double* blk = &a.val[static_cast<std::size_t>(p) * bsz];
      for (int c = 0; c < nb_; ++c)
        for (int d = 0; d < nb_; ++d)
          a0[static_cast<std::size_t>(s * nb_ + c) * nc + t * nb_ + d] +=
              blk[static_cast<std::size_t>(c) * nb_ + d];
    }
  }
  return coarse_lu_.factor(nc, a0.data());
}

bool SchwarzPreconditioner::factor_subdomain(Subdomain& sd,
                                             const sparse::Bcsr<double>& a,
                                             const sparse::DiagonalEdit& edit,
                                             std::string& err) {
  if (opts_.subdomain_solver == SubdomainSolver::kSsor) {
    // SSOR factors only the diagonal blocks, in place in its copy; the
    // off-diagonal ones stay as A's for its sweeps.
    const std::size_t bsz = static_cast<std::size_t>(nb_) * nb_;
    sd.local_map.gather(sd.local, a.ptr, a.col, a.val, bsz,
                        sd.local_val.data());
    const int bad_row = dense::with_block_size(nb_, [&](auto kNb) {
      for (int k = 0; k < sd.local.n; ++k) {
        double* blk = &sd.local_val[sd.local.diag[k] * bsz];
        if (edit) edit(k, blk);
        if (!dense::lu_factor<kNb>(blk)) return k;
      }
      return -1;
    });
    if (bad_row >= 0)
      err = "singular diagonal block in SSOR at local row " +
            std::to_string(bad_row);
    return bad_row < 0;
  }
  const sparse::IluFactorStatus status =
      sd.ilu_f ? sd.ilu_f->refactor(a, edit) : sd.ilu_d->refactor(a, edit);
  if (!status.ok) err = ilu_failure(status.bad_row);
  return status.ok;
}

void SchwarzPreconditioner::ssor_solve(const Subdomain& sd, const double* b,
                                       double* z) const {
  dense::with_block_kernels(nb_, [&](auto kNb, auto kSimd) {
    ssor_sweeps<kNb, kSimd>(sd.local, sd.local_val.data(), opts_.sweeps, b, z);
  });
}

resilience::FactorReport SchwarzPreconditioner::refactor(
    const sparse::Bcsr<double>& a, int shift_attempts) {
  F3D_CHECK(a.scalar_n() == n_ && a.nb == nb_);
  resilience::FactorReport report;
  for (auto& sd : subs_) {
    const bool zeroed =
        resilience::fault_fires(resilience::FaultSite::kFactorPivot);
    std::string err;
    if (factor_subdomain(sd, a, diagonal_edit(nb_, zeroed, 0), err)) continue;
    const double scale = diagonal_scale(a, sd.vertices, zeroed);
    if (climb_shift_ladder(
            shift_attempts,
            [&](double shift, double& added) {
              added = shift * scale;
              return factor_subdomain(sd, a, diagonal_edit(nb_, zeroed, added),
                                      err);
            },
            report))
      continue;
    report.ok = false;
    report.detail = err;
    // Without a ladder the refresh stops at the first failure, leaving the
    // remaining subdomains (and their fault-injection draws) untouched.
    if (shift_attempts == 0) break;
  }
  // A dead coarse level degrades convergence but not correctness.
  if (opts_.coarse_space && !build_coarse(a)) {
    report.coarse_disabled = true;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += "singular coarse operator: correction disabled";
  }
  return report;
}

resilience::FactorReport SchwarzPreconditioner::refactor(
    const sparse::BlockAssembler& assemble, int shift_attempts) {
  F3D_CHECK_MSG(subs_.size() == 1 && subs_[0].ilu_d,
                "not a preconditioner assembled in place");
  Subdomain& sd = subs_[0];
  // The edit reads the draw and the rung's shift, which are known only
  // once `assemble` has run.
  bool zeroed = false;
  double added = 0;
  const sparse::DiagonalEdit edit = [&](int k, double* blk) {
    edit_diagonal_block(nb_, zeroed, added, k, blk);
  };
  sparse::IluFactorStatus status =
      sd.ilu_d->refactor(then_draw_pivot(assemble, zeroed), edit);
  resilience::FactorReport report;
  if (status.ok) return report;
  // The scale is read from the first rung's assembly: the same values the
  // failed try had before its edit.
  double scale = -1;
  if (climb_shift_ladder(
          shift_attempts,
          [&](double shift, double& rung_added) {
            status = sd.ilu_d->refactor(
                [&](sparse::Bcsr<double>& m) {
                  assemble(m);
                  if (scale < 0) scale = diagonal_scale(m, sd.vertices, zeroed);
                  added = shift * scale;
                },
                edit);
            rung_added = added;
            return status.ok;
          },
          report))
    return report;
  report.ok = false;
  report.detail = ilu_failure(status.bad_row);
  return report;
}

void SchwarzPreconditioner::apply(const double* r, double* z) const {
  F3D_OBS_SPAN("precond");
  obs::Registry::global().count("solver.precond.applies");
  std::fill(z, z + n_, 0.0);
  std::vector<double> rl, zl;
  for (const auto& sd : subs_) {
    // Cooperative cancellation boundary: with many subdomains one apply
    // is a long serial stretch between Krylov-iteration charge points.
    guard::poll_cancellation();
    const int nl = static_cast<int>(sd.vertices.size());
    rl.resize(static_cast<std::size_t>(nl) * nb_);
    zl.resize(rl.size());
    for (int k = 0; k < nl; ++k)
      for (int c = 0; c < nb_; ++c)
        rl[static_cast<std::size_t>(k) * nb_ + c] =
            r[static_cast<std::size_t>(sd.vertices[k]) * nb_ + c];
    if (opts_.subdomain_solver == SubdomainSolver::kSsor)
      ssor_solve(sd, rl.data(), zl.data());
    else if (sd.ilu_f)
      sd.ilu_f->solve_levels(rl.data(), zl.data());
    else
      sd.ilu_d->solve_levels(rl.data(), zl.data());

    const bool restrict_to_owned = opts_.type != SchwarzType::kAsm;
    for (int k = 0; k < nl; ++k) {
      if (restrict_to_owned && !sd.owned[k]) continue;
      for (int c = 0; c < nb_; ++c)
        z[static_cast<std::size_t>(sd.vertices[k]) * nb_ + c] +=
            zl[static_cast<std::size_t>(k) * nb_ + c];
    }
  }
  if (!coarse_active()) return;

  // Coarse correction: z += R0^T A0^{-1} R0 r.
  const int nc = coarse_dim();
  std::vector<double> rc(nc, 0.0), zc(nc);
  const int nv = static_cast<int>(part_of_.size());
  for (int v = 0; v < nv; ++v) {
    const int s = part_of_[v];
    for (int c = 0; c < nb_; ++c)
      rc[s * nb_ + c] += r[static_cast<std::size_t>(v) * nb_ + c];
  }
  coarse_lu_.solve(rc.data(), zc.data());
  for (int v = 0; v < nv; ++v) {
    const int s = part_of_[v];
    for (int c = 0; c < nb_; ++c)
      z[static_cast<std::size_t>(v) * nb_ + c] += zc[s * nb_ + c];
  }
}

std::string SchwarzPreconditioner::name() const {
  std::string base = opts_.type == SchwarzType::kBlockJacobi ? "bjacobi"
                     : opts_.type == SchwarzType::kAsm       ? "asm"
                                                             : "rasm";
  const std::string sub =
      opts_.subdomain_solver == SubdomainSolver::kSsor
          ? "/ssor(" + std::to_string(opts_.sweeps) + ")"
          : "/ilu(" + std::to_string(opts_.fill_level) + ")";
  return base + sub + "+ov" + std::to_string(opts_.overlap) +
         (opts_.single_precision ? "/float" : "/double") +
         (opts_.coarse_space ? "+coarse" : "");
}

std::size_t SchwarzPreconditioner::factor_bytes() const {
  std::size_t bytes = 0;
  for (const auto& sd : subs_) {
    if (sd.ilu_d) bytes += sd.ilu_d->values().size() * sizeof(double);
    if (sd.ilu_f) bytes += sd.ilu_f->values().size() * sizeof(float);
  }
  return bytes;
}

std::unique_ptr<SchwarzPreconditioner> make_global_ilu(
    const sparse::Bcsr<double>& a, int fill_level, bool single_precision) {
  part::Partition p;
  p.nparts = 1;
  p.part.assign(a.nrows, 0);
  SchwarzOptions opts;
  opts.type = SchwarzType::kBlockJacobi;
  opts.overlap = 0;
  opts.fill_level = fill_level;
  opts.single_precision = single_precision;
  return std::make_unique<SchwarzPreconditioner>(a, p, opts);
}

}  // namespace f3d::solver
