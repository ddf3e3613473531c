#include "sparse/ilu.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/densemat.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"

namespace f3d::sparse {

namespace {

// The symbolic phase of principal_submatrix. Empty `rows` become all of
// A's; `src`, when given, receives the gather map's source indices.
IluPattern symbolic(const std::vector<int>& aptr, const std::vector<int>& acol,
                    std::vector<int>& rows, int level, std::vector<int>* src) {
  F3D_CHECK(level >= 0);
  const int a_rows = static_cast<int>(aptr.size()) - 1;
  if (rows.empty()) {
    rows.resize(a_rows);
    std::iota(rows.begin(), rows.end(), 0);
  }
  // local[j]: V's number for A's row/column j, or -1 outside V. V's
  // numbering is monotone in A's, so each row's columns stay ascending.
  std::vector<int> local(a_rows, -1);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    F3D_CHECK_MSG(rows[k] >= 0 && rows[k] < a_rows &&
                      (k == 0 || rows[k - 1] < rows[k]),
                  "submatrix rows must be ascending rows of A");
    local[rows[k]] = static_cast<int>(k);
  }
  const int n = static_cast<int>(rows.size());
  IluPattern pat;
  pat.n = n;
  pat.ptr.assign(n + 1, 0);
  pat.diag.assign(n, -1);

  // U-part (cols > k) of each processed row, with fill levels, needed by
  // later rows.
  std::vector<std::vector<std::pair<int, int>>> urow(n);

  // Workspace: ordered col -> (fill level, index in A or -1) for the
  // current row.
  std::map<int, std::pair<int, int>> w;
  for (int i = 0; i < n; ++i) {
    w.clear();
    for (int p = aptr[rows[i]]; p < aptr[rows[i] + 1]; ++p)
      if (local[acol[p]] >= 0) w.emplace(local[acol[p]], std::pair(0, p));
    F3D_CHECK_MSG(w.count(i) == 1,
                  "ILU requires a structurally nonzero diagonal");

    // Merge fill contributions from all k < i present in the (growing)
    // workspace, ascending. std::map iteration stays valid under inserts.
    for (auto it = w.begin(); it != w.end() && it->first < i; ++it) {
      const int k = it->first;
      const int lev_ik = it->second.first;
      for (const auto& [j, lev_kj] : urow[k]) {
        const int lev = lev_ik + lev_kj + 1;
        if (lev > level) continue;
        auto [jt, inserted] = w.emplace(j, std::pair(lev, -1));
        if (!inserted && jt->second.first > lev) jt->second.first = lev;
      }
    }

    pat.ptr[i + 1] = pat.ptr[i] + static_cast<int>(w.size());
    for (const auto& [j, entry] : w) {
      if (j == i) pat.diag[i] = static_cast<int>(pat.col.size());
      if (j > i) urow[i].push_back({j, entry.first});
      pat.col.push_back(j);
      if (src != nullptr) src->push_back(entry.second);
    }
  }
  return pat;
}

}  // namespace

std::pair<IluPattern, GatherMap> principal_submatrix(
    const std::vector<int>& aptr, const std::vector<int>& acol,
    std::vector<int> rows, int level) {
  GatherMap map{{}, {}, static_cast<int>(aptr.size()) - 1, acol.size()};
  IluPattern pat = symbolic(aptr, acol, rows, level, &map.src);
  map.rows = std::move(rows);
  return {std::move(pat), std::move(map)};
}

IluPattern fill_pattern(const std::vector<int>& aptr,
                        const std::vector<int>& acol, int level) {
  std::vector<int> rows;
  return symbolic(aptr, acol, rows, level, nullptr);
}

namespace {

// Group rows by dependency depth. `deps(i)` yields the in-factor
// dependencies of row i via a callback; rows must be visited in an order
// where dependencies come first (ascending for L, descending for U).
TriSchedule build_levels(int n, const std::vector<int>& level) {
  TriSchedule sch;
  int nlev = 0;
  for (int i = 0; i < n; ++i) nlev = std::max(nlev, level[i] + 1);
  sch.level_ptr.assign(nlev + 1, 0);
  for (int i = 0; i < n; ++i) ++sch.level_ptr[level[i] + 1];
  for (int l = 0; l < nlev; ++l) sch.level_ptr[l + 1] += sch.level_ptr[l];
  sch.rows.resize(n);
  std::vector<int> next(sch.level_ptr.begin(), sch.level_ptr.end() - 1);
  // Ascending row ids within each level (stable fill in row order).
  for (int i = 0; i < n; ++i) sch.rows[next[level[i]]++] = i;
  return sch;
}

}  // namespace

TriSchedule lower_levels(const IluPattern& pat) {
  const int n = pat.n;
  std::vector<int> level(n, 0);
  for (int i = 0; i < n; ++i) {
    int lev = 0;
    for (int p = pat.ptr[i]; p < pat.diag[i]; ++p)
      lev = std::max(lev, level[pat.col[p]] + 1);
    level[i] = lev;
  }
  return build_levels(n, level);
}

TriSchedule upper_levels(const IluPattern& pat) {
  const int n = pat.n;
  std::vector<int> level(n, 0);
  for (int i = n - 1; i >= 0; --i) {
    int lev = 0;
    for (int p = pat.diag[i] + 1; p < pat.ptr[i + 1]; ++p)
      lev = std::max(lev, level[pat.col[p]] + 1);
    level[i] = lev;
  }
  return build_levels(n, level);
}

void GatherMap::gather(const std::vector<int>& ptr, const std::vector<int>& col,
                       const std::vector<int>& aptr,
                       const std::vector<int>& acol,
                       const std::vector<double>& aval, std::size_t bsz,
                       double* out) const {
  const char* const mismatch =
      "A's sparsity is not the one the map was built from";
  F3D_CHECK_MSG(rows.size() + 1 == ptr.size() && src.size() == col.size() &&
                    aptr.size() == static_cast<std::size_t>(a_rows) + 1 &&
                    acol.size() == a_nnz && aval.size() == a_nnz * bsz,
                mismatch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int row_begin = aptr[rows[i]], row_end = aptr[rows[i] + 1];
    for (int q = ptr[i]; q < ptr[i + 1]; ++q) {
      const int p = src[q];
      if (p < 0) {
        std::fill_n(out + q * bsz, bsz, 0.0);
        continue;
      }
      F3D_CHECK_MSG(p >= row_begin && p < row_end && acol[p] == rows[col[q]],
                    mismatch);
      std::copy_n(&aval[static_cast<std::size_t>(p) * bsz], bsz, out + q * bsz);
    }
  }
}

namespace {

// The numeric phase of a point factor: writes every entry of `val`
// (pat.nnz() doubles) from A through `map`, then eliminates in place.
// Returns the first row with a zero pivot, or -1.
int factor_point(const Csr<double>& a, const IluPattern& pat,
                 const GatherMap& map, double* val) {
  F3D_OBS_SPAN("ilu.factor");
  obs::Registry::global().count("sparse.ilu.factorizations");
  map.gather(pat.ptr, pat.col, a.ptr, a.col, a.val, 1, val);
  const int n = pat.n;
  for (int i = 0; i < n; ++i) {
    for (int pos = pat.ptr[i]; pos < pat.diag[i]; ++pos) {
      const int k = pat.col[pos];
      const double ukk = val[pat.diag[k]];
      if (ukk == 0.0) return k;
      const double lik = val[pos] / ukk;
      val[pos] = lik;
      // Row update: row_i -= lik * U-part of row k (pattern-restricted).
      int r = pos + 1;
      for (int q = pat.diag[k] + 1; q < pat.ptr[k + 1]; ++q) {
        const int j = pat.col[q];
        while (r < pat.ptr[i + 1] && pat.col[r] < j) ++r;
        if (r == pat.ptr[i + 1]) break;
        if (pat.col[r] == j) val[r] -= lik * val[q];
      }
    }
    if (val[pat.diag[i]] == 0.0) return i;
  }
  return -1;
}

// The elimination of a block factor whose filled values are in `val`,
// NB*NB doubles per pattern entry, in place; returns the first block row
// with a singular diagonal block, or -1.
template <int NB>
int eliminate_block(const IluPattern& pat, double* val) {
  constexpr std::size_t bsz = static_cast<std::size_t>(NB) * NB;
  for (int i = 0; i < pat.n; ++i) {
    for (int pos = pat.ptr[i]; pos < pat.diag[i]; ++pos) {
      const int k = pat.col[pos];
      double* blk_ik = &val[static_cast<std::size_t>(pos) * bsz];
      // blk_ik := blk_ik * (A_kk)^{-1}; A_kk already holds its LU factors.
      dense::right_lu_solve_block<NB>(
          &val[static_cast<std::size_t>(pat.diag[k]) * bsz], blk_ik);
      int r = pos + 1;
      for (int u = pat.diag[k] + 1; u < pat.ptr[k + 1]; ++u) {
        const int j = pat.col[u];
        while (r < pat.ptr[i + 1] && pat.col[r] < j) ++r;
        if (r == pat.ptr[i + 1]) break;
        if (pat.col[r] == j)
          dense::gemm_sub<NB>(blk_ik, &val[static_cast<std::size_t>(u) * bsz],
                              &val[static_cast<std::size_t>(r) * bsz]);
      }
    }
    if (!dense::lu_factor<NB>(
            &val[static_cast<std::size_t>(pat.diag[i]) * bsz]))
      return i;
  }
  return -1;
}

// One triangular-solve row update: s0 minus the row's partial dot with x,
// promoted to double. The scalar path subtracts term by term; the SIMD
// path strip-mines through row_dot_promote_simd and subtracts once.
template <class S>
double tri_row_reduce(bool use_simd, const S* val, const int* col, int count,
                      const double* x, double s0) {
  if (use_simd) return s0 - detail::row_dot_promote_simd(val, col, count, x);
  for (int k = 0; k < count; ++k)
    s0 -= static_cast<double>(val[k]) * x[col[k]];
  return s0;
}

// Runs row(i) for every row of `sch`: levels in sequence, the rows of a
// level in parallel on the exec pool.
template <class Row>
void for_each_row_by_level(const TriSchedule& sch, const Row& row) {
  auto& pool = exec::pool();
  for (int l = 0; l < sch.num_levels(); ++l) {
    pool.parallel_for(
        sch.level_ptr[l], sch.level_ptr[l + 1],
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k) row(sch.rows[k]);
        },
        /*grain=*/128);
  }
}

// The block rows of the triangular solves. A row holds x_i in registers
// across its blocks; solve() and solve_levels() call the same two updates,
// which keeps them bit-identical.

// Forward: x_i = b_i - sum_{j<i} L_ij x_j (unit block diagonal).
template <int NB, bool kSimd, class S>
void block_forward_row(const IluPattern& pat, const S* val, int i,
                       const double* b, double* x) {
  constexpr std::size_t bsz = static_cast<std::size_t>(NB) * NB;
  double xi[NB];
  std::copy_n(b + static_cast<std::size_t>(i) * NB, NB, xi);
  for (int p = pat.ptr[i]; p < pat.diag[i]; ++p)
    dense::gemv_sub<NB, kSimd>(
        val + p * bsz, x + static_cast<std::size_t>(pat.col[p]) * NB, xi);
  std::copy_n(xi, NB, x + static_cast<std::size_t>(i) * NB);
}

// Backward: x_i = U_ii^{-1} (x_i - sum_{j>i} U_ij x_j).
template <int NB, bool kSimd, class S>
void block_backward_row(const IluPattern& pat, const S* val, int i,
                        double* x) {
  constexpr std::size_t bsz = static_cast<std::size_t>(NB) * NB;
  double xi[NB];
  std::copy_n(x + static_cast<std::size_t>(i) * NB, NB, xi);
  for (int p = pat.diag[i] + 1; p < pat.ptr[i + 1]; ++p)
    dense::gemv_sub<NB, kSimd>(
        val + p * bsz, x + static_cast<std::size_t>(pat.col[p]) * NB, xi);
  dense::lu_solve<NB>(val + pat.diag[i] * bsz, xi, xi);
  std::copy_n(xi, NB, x + static_cast<std::size_t>(i) * NB);
}

}  // namespace

template <class S>
PointIlu<S>::PointIlu(const Csr<double>& a, int level) {
  std::tie(pat_, map_) = principal_submatrix(a.ptr, a.col, {}, level);
  val_.resize(pat_.nnz());
  const IluFactorStatus st = refactor(a);
  F3D_NUMERIC_CHECK_MSG(st.ok,
                        "zero pivot in ILU at row " + std::to_string(st.bad_row));
}

template <class S>
IluFactorStatus PointIlu<S>::refactor(const Csr<double>& a) {
  const int bad_row = factor_point(a, pat_, map_, val_.data());
  return {bad_row < 0, bad_row};
}

template <class S>
void PointIlu<S>::solve(const double* b, double* x) const {
  const bool use_simd = simd::enabled();
  for (int i = 0; i < pat_.n; ++i) {
    const int p0 = pat_.ptr[i];
    x[i] = tri_row_reduce(use_simd, val_.data() + p0, pat_.col.data() + p0,
                          pat_.diag[i] - p0, x, b[i]);
  }
  for (int i = pat_.n - 1; i >= 0; --i) {
    const int p0 = pat_.diag[i] + 1;
    const double s =
        tri_row_reduce(use_simd, val_.data() + p0, pat_.col.data() + p0,
                       pat_.ptr[i + 1] - p0, x, x[i]);
    x[i] = s / static_cast<double>(val_[pat_.diag[i]]);
  }
}

template <class S>
BlockIlu<S>::BlockIlu(IluPattern pat, int nb)
    : nb_(nb),
      pat_(std::move(pat)),
      fwd_(lower_levels(pat_)),
      bwd_(upper_levels(pat_)) {
  F3D_CHECK(nb_ >= 1 && nb_ <= dense::kMaxBlockSize);
}

template <class S>
BlockIlu<S>::BlockIlu(std::pair<IluPattern, GatherMap> pm, int nb)
    : BlockIlu(std::move(pm.first), nb) {
  map_ = std::move(pm.second);
}

template <class S>
BlockIlu<S>::BlockIlu(const Bcsr<double>& a, int level)
    : BlockIlu(principal_submatrix(a.ptr, a.col, {}, level), a.nb) {
  const IluFactorStatus st = refactor(a);
  F3D_NUMERIC_CHECK_MSG(st.ok, "singular diagonal block in block ILU at row " +
                                   std::to_string(st.bad_row));
}

template <class S>
IluFactorStatus BlockIlu<S>::refactor(const BlockAssembler& fill) {
  F3D_OBS_SPAN("ilu.factor");
  obs::Registry::global().count("sparse.ilu.factorizations");
  // The pattern and the values move into the matrix and back, so with
  // double storage the factor's array is the only copy of what `fill`
  // writes; float storage eliminates in a double scratch array.
  std::vector<double> scratch;
  std::vector<double>* wide = &scratch;
  if constexpr (std::is_same_v<S, double>) wide = &val_;
  Bcsr<double> m{.nb = nb_, .nrows = pat_.n, .ptr = std::move(pat_.ptr),
                 .col = std::move(pat_.col), .val = std::move(*wide)};
  const auto take_back = [&] {
    pat_.ptr = std::move(m.ptr);
    pat_.col = std::move(m.col);
    *wide = std::move(m.val);
  };
  try {
    fill(m);
  } catch (...) {
    take_back();
    throw;
  }
  take_back();
  const std::size_t nnz = pat_.nnz();
  F3D_CHECK_MSG(pat_.ptr.size() == static_cast<std::size_t>(pat_.n) + 1 &&
                    pat_.col.size() == nnz && wide->size() == nnz * nb_ * nb_,
                "the fill must write the factor's pattern in place");
  const int bad_row = dense::with_block_size(
      nb_, [&](auto kNb) { return eliminate_block<kNb>(pat_, wide->data()); });
  if constexpr (!std::is_same_v<S, double>)
    val_.assign(scratch.begin(), scratch.end());
  return {bad_row < 0, bad_row};
}

template <class S>
void BlockIlu<S>::solve(const double* b, double* x) const {
  dense::with_block_kernels(nb_, [&](auto kNb, auto kSimd) {
    for (int i = 0; i < pat_.n; ++i)
      block_forward_row<kNb, kSimd>(pat_, val_.data(), i, b, x);
    for (int i = pat_.n - 1; i >= 0; --i)
      block_backward_row<kNb, kSimd>(pat_, val_.data(), i, x);
  });
}

template <class S>
void BlockIlu<S>::solve_levels(const double* b, double* x) const {
  dense::with_block_kernels(nb_, [&](auto kNb, auto kSimd) {
    for_each_row_by_level(fwd_, [&](int i) {
      block_forward_row<kNb, kSimd>(pat_, val_.data(), i, b, x);
    });
    for_each_row_by_level(bwd_, [&](int i) {
      block_backward_row<kNb, kSimd>(pat_, val_.data(), i, x);
    });
  });
}

// Explicit instantiations for the two storage precisions.
template class PointIlu<double>;
template class BlockIlu<double>;
template class BlockIlu<float>;

}  // namespace f3d::sparse
