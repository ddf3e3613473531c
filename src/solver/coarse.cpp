#include "solver/coarse.hpp"

#include "common/error.hpp"

namespace f3d::solver {

TwoLevelSchwarzPreconditioner::TwoLevelSchwarzPreconditioner(
    const sparse::Bcsr<double>& a, const part::Partition& partition,
    const SchwarzOptions& opts)
    : fine_(a, partition, opts),
      part_of_(partition.part),
      nparts_(partition.nparts),
      nb_(a.nb) {
  F3D_NUMERIC_CHECK_MSG(build_coarse(a),
                        "singular coarse operator (check pseudo-time shift)");
}

bool TwoLevelSchwarzPreconditioner::build_coarse(const sparse::Bcsr<double>& a) {
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

resilience::FactorReport TwoLevelSchwarzPreconditioner::refactor(
    const sparse::Bcsr<double>& a, int shift_attempts) {
  resilience::FactorReport report = fine_.refactor(a, shift_attempts);
  coarse_ok_ = build_coarse(a);
  if (!coarse_ok_) {
    report.coarse_disabled = true;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += "singular coarse operator: correction disabled";
  }
  // A dead coarse space degrades convergence but not correctness.
  return report;
}

void TwoLevelSchwarzPreconditioner::apply(const double* r, double* z) const {
  fine_.apply(r, z);
  if (!coarse_ok_) return;

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

}  // namespace f3d::solver
