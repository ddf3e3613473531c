#include "solver/precond.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

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

// The one place a build or refresh changes a subdomain's filled values,
// before its factorization, for either subdomain solver: a fired
// kFactorPivot draw zeroes block (0, 0) (a corrupted Jacobian block
// arriving at the factorization), and a ladder rung adds its shift to
// every scalar diagonal entry, once. With neither, the fill is untouched.
void edit_diagonal(sparse::Bcsr<double>& m, bool zeroed, double shift) {
  const int nb = m.nb;
  if (zeroed) std::fill_n(m.find_block(0, 0), nb * nb, 0.0);
  if (shift == 0) return;
  for (int k = 0; k < m.nrows; ++k) {
    double* blk = m.find_block(k, k);
    for (int c = 0; c < nb; ++c) blk[c * nb + c] += shift;
  }
}

// Diagonal scale of a failing subdomain, so the ladder's shift is
// relative: the largest |diagonal entry| of its filled blocks (k, k),
// where a zeroed block (0, 0) adds nothing; 1 when that is 0 or not
// finite.
double diagonal_scale(const sparse::Bcsr<double>& m, bool zeroed) {
  const int nb = m.nb;
  double scale = 0;
  for (int k = zeroed ? 1 : 0; k < m.nrows; ++k) {
    const double* blk = m.find_block(k, k);
    for (int c = 0; c < nb; ++c)
      scale = std::max(scale, std::abs(blk[c * nb + c]));
  }
  if (scale == 0 || !std::isfinite(scale)) scale = 1.0;
  return scale;
}

void check_options(const SchwarzOptions& opts) {
  F3D_CHECK(opts.overlap >= 0 && opts.fill_level >= 0);
  if (opts.type == SchwarzType::kBlockJacobi) {
    F3D_CHECK_MSG(opts.overlap == 0, "block Jacobi has no overlap");
  }
}

// `sweeps` symmetric block Gauss-Seidel iterations on the local system
// `m` (its diagonal blocks factored), starting from z = 0. Each
// half-sweep: z_i = D_ii^{-1} (b_i - sum_{j!=i} A_ij z_j) with the latest z
// values (forward then backward order).
template <int NB, bool kSimd>
void ssor_sweeps(const sparse::Bcsr<double>& m, int sweeps, const double* b,
                 double* z) {
  constexpr std::size_t bsz = static_cast<std::size_t>(NB) * NB;
  const double* val = m.val.data();
  std::fill(z, z + static_cast<std::size_t>(m.nrows) * NB, 0.0);
  auto relax_row = [&](int i) {
    double zi[NB];
    std::copy_n(b + static_cast<std::size_t>(i) * NB, NB, zi);
    const double* dii = nullptr;
    for (int p = m.ptr[i]; p < m.ptr[i + 1]; ++p) {
      const int j = m.col[p];
      if (j == i) {
        dii = val + p * bsz;
        continue;
      }
      dense::gemv_sub<NB, kSimd>(val + p * bsz,
                                 z + static_cast<std::size_t>(j) * NB, zi);
    }
    dense::lu_solve<NB>(dii, zi, zi);
    std::copy_n(zi, NB, z + static_cast<std::size_t>(i) * NB);
  };
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int i = 0; i < m.nrows; ++i) relax_row(i);
    for (int i = m.nrows - 1; i >= 0; --i) relax_row(i);
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
  const bool ssor = opts_.subdomain_solver == SubdomainSolver::kSsor;

  // The symbolic phase of every subdomain, then one numeric pass.
  subs_.resize(partition.nparts);
  for (int s = 0; s < partition.nparts; ++s) {
    auto& sd = subs_[s];
    sd.vertices = std::move(regions[s]);
    F3D_CHECK_MSG(!sd.vertices.empty(), "empty subdomain");
    sd.owned.resize(sd.vertices.size());
    for (std::size_t k = 0; k < sd.vertices.size(); ++k)
      sd.owned[k] = partition.part[sd.vertices[k]] == s ? 1 : 0;
    // SSOR keeps A[V, V]'s own sparsity; ILU adds its fill.
    auto [pat, map] = sparse::principal_submatrix(
        a.ptr, a.col, sd.vertices, ssor ? 0 : opts_.fill_level);
    sd.map = std::move(map);
    if (ssor)
      sd.ssor = {.nb = nb_, .nrows = pat.n, .ptr = std::move(pat.ptr),
                 .col = std::move(pat.col), .val = {}};
    else if (opts_.single_precision)
      sd.ilu_f.emplace(std::move(pat), nb_);
    else
      sd.ilu_d.emplace(std::move(pat), nb_);
  }
  // The first build climbs no ladder: it stops at the first failure.
  const resilience::FactorReport report = factor_subdomains(
      [&a](const Subdomain& sd, sparse::Bcsr<double>& m) {
        sd.map.gather(a, m);
      },
      0);
  if (!report.ok) throw NumericalError(report.detail);
  if (opts_.coarse_space) {
    part_of_ = partition.part;
    if (!build_coarse(a))
      throw NumericalError("singular coarse operator (check pseudo-time shift)");
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
  sd.ilu_d.emplace(
      sparse::fill_pattern(pattern.ptr, pattern.col, opts_.fill_level), nb_);
  const resilience::FactorReport report = factor_subdomains(
      [&assemble](const Subdomain&, sparse::Bcsr<double>& m) { assemble(m); },
      0);
  if (!report.ok) throw NumericalError(report.detail);
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

resilience::FactorReport SchwarzPreconditioner::factor_subdomains(
    const Fill& fill, int shift_attempts) {
  const bool ssor = opts_.subdomain_solver == SubdomainSolver::kSsor;
  resilience::FactorReport report;
  for (auto& sd : subs_) {
    bool drawn = false, zeroed = false;
    double scale = 0;
    // One pass with the rung's relative `shift` (0: none); returns the
    // first singular diagonal block row, or -1.
    const auto factor = [&](double shift) {
      const sparse::BlockAssembler fill_edit = [&](sparse::Bcsr<double>& m) {
        fill(sd, m);
        if (!drawn) {
          drawn = true;
          zeroed = resilience::fault_fires(resilience::FaultSite::kFactorPivot);
        }
        // Read from the first rung's fill before its edit: the values the
        // failed pass had.
        if (shift != 0 && scale == 0) scale = diagonal_scale(m, zeroed);
        edit_diagonal(m, zeroed, shift * scale);
      };
      if (sd.ilu_d) return sd.ilu_d->refactor(fill_edit).bad_row;
      if (sd.ilu_f) return sd.ilu_f->refactor(fill_edit).bad_row;
      // SSOR factors only the diagonal blocks, in place in its copy; the
      // off-diagonal ones stay as A's for its sweeps.
      fill_edit(sd.ssor);
      return dense::with_block_size(nb_, [&](auto kNb) {
        for (int k = 0; k < sd.ssor.nrows; ++k)
          if (!dense::lu_factor<kNb>(sd.ssor.find_block(k, k))) return k;
        return -1;
      });
    };
    int bad_row = factor(0);
    double shift = kPivotShift0;
    for (int rung = 0; bad_row >= 0 && rung < shift_attempts;
         ++rung, shift *= 10) {
      bad_row = factor(shift);
      ++report.shift_attempts;
      report.shift_used = std::max(report.shift_used, shift * scale);
    }
    if (bad_row < 0) continue;
    report.ok = false;
    report.detail = std::string("singular diagonal block in ") +
                    (ssor ? "SSOR" : "block ILU") + " at local row " +
                    std::to_string(bad_row);
    // Without a ladder the loop stops at the first failure, leaving the
    // remaining subdomains (and their fault-injection draws) untouched.
    if (shift_attempts == 0) break;
  }
  return report;
}

void SchwarzPreconditioner::ssor_solve(const Subdomain& sd, const double* b,
                                       double* z) const {
  dense::with_block_kernels(nb_, [&](auto kNb, auto kSimd) {
    ssor_sweeps<kNb, kSimd>(sd.ssor, opts_.sweeps, b, z);
  });
}

resilience::FactorReport SchwarzPreconditioner::refactor(
    const sparse::Bcsr<double>& a, int shift_attempts) {
  F3D_CHECK(a.scalar_n() == n_ && a.nb == nb_);
  resilience::FactorReport report = factor_subdomains(
      [&a](const Subdomain& sd, sparse::Bcsr<double>& m) {
        sd.map.gather(a, m);
      },
      shift_attempts);
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
  F3D_CHECK_MSG(assembles_in_place(opts_, num_subdomains()),
                "only one double ILU subdomain with no coarse level is "
                "assembled in place");
  return factor_subdomains(
      [&assemble](const Subdomain&, sparse::Bcsr<double>& m) { assemble(m); },
      shift_attempts);
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
