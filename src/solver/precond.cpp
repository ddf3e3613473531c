#include "solver/precond.hpp"

#include <algorithm>
#include <cmath>
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
  F3D_CHECK(opts.overlap >= 0 && opts.fill_level >= 0);
  if (opts_.type == SchwarzType::kBlockJacobi) {
    F3D_CHECK_MSG(opts_.overlap == 0, "block Jacobi has no overlap");
  }

  const auto g = graph_from_bcsr(a);
  auto regions = part::overlap_expand(g, partition, opts_.overlap);

  subs_.resize(partition.nparts);
  std::vector<int> global_to_local(a.nrows, -1);
  for (int s = 0; s < partition.nparts; ++s) {
    auto& sd = subs_[s];
    sd.vertices = std::move(regions[s]);
    F3D_CHECK_MSG(!sd.vertices.empty(), "empty subdomain");
    sd.owned.resize(sd.vertices.size());
    for (std::size_t k = 0; k < sd.vertices.size(); ++k)
      sd.owned[k] = partition.part[sd.vertices[k]] == s ? 1 : 0;

    // Local block sparsity: rows/cols restricted to the subdomain set.
    const int nl = static_cast<int>(sd.vertices.size());
    for (int k = 0; k < nl; ++k) global_to_local[sd.vertices[k]] = k;

    sd.local.nb = nb_;
    sd.local.nrows = nl;
    sd.local.ptr.assign(nl + 1, 0);
    for (int k = 0; k < nl; ++k) {
      const int gi = sd.vertices[k];
      int cnt = 0;
      for (int p = a.ptr[gi]; p < a.ptr[gi + 1]; ++p)
        if (global_to_local[a.col[p]] >= 0) ++cnt;
      sd.local.ptr[k + 1] = sd.local.ptr[k] + cnt;
    }
    sd.local.col.resize(sd.local.ptr[nl]);
    sd.local.val.resize(sd.local.ptr[nl] * static_cast<std::size_t>(nb_) * nb_);
    for (int k = 0; k < nl; ++k) {
      const int gi = sd.vertices[k];
      int q = sd.local.ptr[k];
      for (int p = a.ptr[gi]; p < a.ptr[gi + 1]; ++p) {
        const int lj = global_to_local[a.col[p]];
        if (lj >= 0) sd.local.col[q++] = lj;
      }
      // Global columns ascending and the local ids monotone in global ids
      // within the subdomain set, so local columns are already sorted.
    }
    for (int k = 0; k < nl; ++k) global_to_local[sd.vertices[k]] = -1;

    // First factorization, right after this subdomain's values arrive
    // (one kFactorPivot draw per subdomain, in subdomain order). The ILU
    // factor is built here once; refreshes refactor it in place.
    extract_local_values(a, sd);
    if (opts_.subdomain_solver == SubdomainSolver::kSsor) {
      std::string err;
      F3D_NUMERIC_CHECK_MSG(factor_checked(sd, err), err);
    } else if (opts_.single_precision) {
      sd.ilu_f.emplace(sd.local, opts_.fill_level);
    } else {
      sd.ilu_d.emplace(sd.local, opts_.fill_level);
    }
  }
}

void SchwarzPreconditioner::extract_local_values(const sparse::Bcsr<double>& a,
                                                 Subdomain& sd) const {
  const std::size_t bsz = static_cast<std::size_t>(nb_) * nb_;
  std::vector<char> in_sub(a.nrows, 0);
  for (int v : sd.vertices) in_sub[v] = 1;
  const int nl = static_cast<int>(sd.vertices.size());
  for (int k = 0; k < nl; ++k) {
    const int gi = sd.vertices[k];
    int q = sd.local.ptr[k];
    for (int p = a.ptr[gi]; p < a.ptr[gi + 1]; ++p) {
      if (!in_sub[a.col[p]]) continue;
      std::copy_n(&a.val[static_cast<std::size_t>(p) * bsz], bsz,
                  &sd.local.val[static_cast<std::size_t>(q) * bsz]);
      ++q;
    }
    F3D_CHECK(q == sd.local.ptr[k + 1]);
  }
  // Fault-injection site: a corrupted Jacobian block arriving at the
  // factorization (forced zero pivot). One opportunity per subdomain
  // extraction.
  if (resilience::fault_fires(resilience::FaultSite::kFactorPivot)) {
    double* blk = sd.local.find_block(0, 0);
    if (blk != nullptr)
      std::fill_n(blk, static_cast<std::size_t>(nb_) * nb_, 0.0);
  }
}

bool SchwarzPreconditioner::factor_checked(Subdomain& sd, std::string& err) {
  if (opts_.subdomain_solver == SubdomainSolver::kSsor) {
    // SSOR only needs the factored diagonal blocks.
    const std::size_t bsz = static_cast<std::size_t>(nb_) * nb_;
    const int nl = static_cast<int>(sd.vertices.size());
    sd.diag_lu.resize(static_cast<std::size_t>(nl) * bsz);
    for (int k = 0; k < nl; ++k) {
      const double* blk = sd.local.find_block(k, k);
      F3D_CHECK_MSG(blk != nullptr, "missing diagonal block");
      std::copy_n(blk, bsz, &sd.diag_lu[static_cast<std::size_t>(k) * bsz]);
      const bool ok =
          dense::lu_factor(nb_, &sd.diag_lu[static_cast<std::size_t>(k) * bsz]);
      if (!ok) {
        err = "singular diagonal block in SSOR at local row " +
              std::to_string(k);
        return false;
      }
    }
    return true;
  }
  const sparse::IluFactorStatus status =
      sd.ilu_f ? sd.ilu_f->refactor(sd.local) : sd.ilu_d->refactor(sd.local);
  if (!status.ok)
    err = "singular diagonal block in block ILU at local row " +
          std::to_string(status.bad_row);
  return status.ok;
}

void SchwarzPreconditioner::shift_local_diagonal(Subdomain& sd, int nb,
                                                 double delta) {
  const int nl = static_cast<int>(sd.vertices.size());
  for (int k = 0; k < nl; ++k) {
    double* blk = sd.local.find_block(k, k);
    if (blk == nullptr) continue;
    for (int c = 0; c < nb; ++c)
      blk[static_cast<std::size_t>(c) * nb + c] += delta;
  }
}

void SchwarzPreconditioner::ssor_solve(const Subdomain& sd, const double* b,
                                       double* z) const {
  // `sweeps` symmetric block Gauss-Seidel iterations on the local system,
  // starting from z = 0. Each half-sweep: z_i = D_ii^{-1} (b_i - sum_{j!=i}
  // A_ij z_j) with the latest z values (forward then backward order).
  const int nl = static_cast<int>(sd.vertices.size());
  const std::size_t bsz = static_cast<std::size_t>(nb_) * nb_;
  std::fill(z, z + static_cast<std::size_t>(nl) * nb_, 0.0);
  double rhs[8], sol[8];
  F3D_CHECK(nb_ <= 8);
  auto relax_row = [&](int i) {
    const double* bi = b + static_cast<std::size_t>(i) * nb_;
    for (int c = 0; c < nb_; ++c) rhs[c] = bi[c];
    for (int p = sd.local.ptr[i]; p < sd.local.ptr[i + 1]; ++p) {
      const int j = sd.local.col[p];
      if (j == i) continue;
      dense::gemv_sub(nb_, &sd.local.val[static_cast<std::size_t>(p) * bsz],
                      z + static_cast<std::size_t>(j) * nb_, rhs);
    }
    dense::lu_solve(nb_, &sd.diag_lu[static_cast<std::size_t>(i) * bsz], rhs,
                    sol);
    double* zi = z + static_cast<std::size_t>(i) * nb_;
    for (int c = 0; c < nb_; ++c) zi[c] = sol[c];
  };
  for (int sweep = 0; sweep < opts_.sweeps; ++sweep) {
    for (int i = 0; i < nl; ++i) relax_row(i);
    for (int i = nl - 1; i >= 0; --i) relax_row(i);
  }
}

resilience::FactorReport SchwarzPreconditioner::refactor(
    const sparse::Bcsr<double>& a, int shift_attempts) {
  F3D_CHECK(a.scalar_n() == n_ && a.nb == nb_);
  resilience::FactorReport report;
  for (auto& sd : subs_) {
    extract_local_values(a, sd);
    std::string err;
    if (factor_checked(sd, err)) continue;

    // Diagonal scale of the failing subdomain, so the shift is relative.
    double scale = 0;
    const int nl = static_cast<int>(sd.vertices.size());
    for (int k = 0; k < nl; ++k) {
      const double* blk = sd.local.find_block(k, k);
      if (blk == nullptr) continue;
      for (int c = 0; c < nb_; ++c)
        scale = std::max(scale,
                         std::abs(blk[static_cast<std::size_t>(c) * nb_ + c]));
    }
    if (scale == 0 || !std::isfinite(scale)) scale = 1.0;

    bool ok = false;
    double applied = 0;
    double shift = kPivotShift0;
    for (int attempt = 0; attempt < shift_attempts; ++attempt, shift *= 10) {
      const double target = shift * scale;
      shift_local_diagonal(sd, nb_, target - applied);
      applied = target;
      ++report.shift_attempts;
      report.shift_used = std::max(report.shift_used, target);
      if (factor_checked(sd, err)) {
        ok = true;
        break;
      }
    }
    if (ok) continue;
    report.ok = false;
    report.detail = err;
    // Without a ladder the refresh stops at the first failure, leaving the
    // remaining subdomains (and their fault-injection draws) untouched.
    if (shift_attempts == 0) return report;
  }
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
         (opts_.single_precision ? "/float" : "/double");
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
