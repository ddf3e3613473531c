#pragma once
// Compressed sparse row (PETSc "AIJ") matrix, templated on the stored
// scalar so the paper's single-precision-storage experiment (§2.2,
// Table 2) can store float entries while all arithmetic stays double.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/densemat.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"

namespace f3d::sparse {

namespace detail {

// The ONE implementation of the "arithmetic in double regardless of
// storage type" contract: every sparse kernel (point CSR rows, Bcsr
// block rows, the cache simulator's traced copies) funnels its inner
// product through these helpers, so a float-storage path cannot drift
// from the double path by re-implementing the promotion locally.

/// s = sum_k val[k] * x[col[k]], promoted per term, sequential order.
template <class S>
[[nodiscard]] inline double row_dot_promote(const S* val, const int* col,
                                            int count, const double* x) {
  double s = 0;
  for (int k = 0; k < count; ++k)
    s += static_cast<double>(val[k]) * x[col[k]];
  return s;
}

/// SIMD variant: 4-lane strip-mine (promoting loads for float storage,
/// gathered x), fixed pairwise lane combine, in-order scalar tail.
/// Rounds differently from row_dot_promote (strip-mined association) but
/// is itself fixed-order, so results stay bit-identical at any thread
/// count within the SIMD configuration.
template <class S>
[[nodiscard]] inline double row_dot_promote_simd(const S* val, const int* col,
                                                 int count, const double* x) {
  using simd::Vd;
  Vd acc = Vd::zero();
  int k = 0;
  for (; k + simd::kDoubleLanes <= count; k += simd::kDoubleLanes)
    acc += Vd::loadu(val + k) * Vd::gather(x, col + k);
  double s = acc.hsum();
  for (; k < count; ++k) s += static_cast<double>(val[k]) * x[col[k]];
  return s;
}

/// s = sum_c row[c] * xj[c] over a contiguous dense block row.
template <class S>
[[nodiscard]] inline double dense_dot_promote(const S* row, const double* xj,
                                              int count) {
  double s = 0;
  for (int c = 0; c < count; ++c)
    s += static_cast<double>(row[c]) * xj[c];
  return s;
}

/// SIMD dense dot: same strip-mine/tail structure as the CSR variant.
template <class S>
[[nodiscard]] inline double dense_dot_promote_simd(const S* row,
                                                   const double* xj,
                                                   int count) {
  using simd::Vd;
  Vd acc = Vd::zero();
  int c = 0;
  for (; c + simd::kDoubleLanes <= count; c += simd::kDoubleLanes)
    acc += Vd::loadu(row + c) * Vd::loadu(xj + c);
  double s = acc.hsum();
  for (; c < count; ++c) s += static_cast<double>(row[c]) * xj[c];
  return s;
}

}  // namespace detail

template <class S = double>
struct Csr {
  int n = 0;  ///< square: rows == cols
  std::vector<int> ptr;  ///< size n+1
  std::vector<int> col;  ///< column indices, ascending within a row
  std::vector<S> val;

  [[nodiscard]] std::size_t nnz() const { return col.size(); }

  void check() const {
    F3D_CHECK(static_cast<int>(ptr.size()) == n + 1);
    F3D_CHECK(col.size() == val.size());
    F3D_CHECK(ptr[0] == 0 && ptr[n] == static_cast<int>(col.size()));
    for (int i = 0; i < n; ++i) {
      F3D_CHECK(ptr[i] <= ptr[i + 1]);
      for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
        F3D_CHECK(col[p] >= 0 && col[p] < n);
        if (p > ptr[i]) F3D_CHECK(col[p - 1] < col[p]);
      }
    }
  }

  /// y = A x. Arithmetic in double regardless of storage type (via the
  /// detail::row_dot_promote helpers). Rows are independent, so the loop
  /// runs row-parallel on the exec pool and the result is bit-identical
  /// for any thread count; the SIMD variant is selected once per call.
  void spmv(const double* x, double* y) const {
    if (simd::enabled())
      spmv_impl<true>(x, y);
    else
      spmv_impl<false>(x, y);
  }

  template <bool kSimd>
  void spmv_impl(const double* x, double* y) const {
    const S* v = val.data();
    const int* c = col.data();
    exec::pool().parallel_for(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const int b = ptr[i];
            const int count = ptr[i + 1] - b;
            y[i] = kSimd
                       ? detail::row_dot_promote_simd(v + b, c + b, count, x)
                       : detail::row_dot_promote(v + b, c + b, count, x);
          }
        },
        /*grain=*/512);
  }

  void spmv(const std::vector<double>& x, std::vector<double>& y) const {
    F3D_CHECK(static_cast<int>(x.size()) == n);
    y.resize(n);
    spmv(x.data(), y.data());
  }

  /// Pointer to entry (i, j), or nullptr if not in the pattern.
  [[nodiscard]] const S* find(int i, int j) const {
    for (int p = ptr[i]; p < ptr[i + 1]; ++p)
      if (col[p] == j) return &val[p];
    return nullptr;
  }
  [[nodiscard]] S* find(int i, int j) {
    return const_cast<S*>(static_cast<const Csr*>(this)->find(i, j));
  }

  /// Convert storage scalar (e.g. double -> float for the single-precision
  /// preconditioner experiment).
  template <class T>
  [[nodiscard]] Csr<T> convert() const {
    Csr<T> out;
    out.n = n;
    out.ptr = ptr;
    out.col = col;
    out.val.assign(val.begin(), val.end());
    return out;
  }
};

/// Block CSR (PETSc "BAIJ"): the paper's structural-blocking format.
/// Blocks are nb x nb, row-major, one per block-sparsity entry. The win
/// over point CSR: one column index per block instead of nb^2 — fewer
/// integer loads and more register reuse in spmv (paper §2.1.2).
template <class S = double>
struct Bcsr {
  int nb = 0;      ///< block size (4 incompressible, 5 compressible), at
                   ///< most dense::kMaxBlockSize
  int nrows = 0;   ///< block rows
  std::vector<int> ptr;  ///< block-row pointers, size nrows+1
  std::vector<int> col;  ///< block-column indices, ascending in a row
  std::vector<S> val;    ///< nb*nb scalars per block entry

  [[nodiscard]] std::size_t nblocks() const { return col.size(); }
  [[nodiscard]] int scalar_n() const { return nrows * nb; }

  void check() const {
    F3D_CHECK(nb >= 1 && nb <= dense::kMaxBlockSize);
    F3D_CHECK(static_cast<int>(ptr.size()) == nrows + 1);
    F3D_CHECK(val.size() ==
              col.size() * static_cast<std::size_t>(nb) * nb);
    for (int i = 0; i < nrows; ++i)
      for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
        F3D_CHECK(col[p] >= 0 && col[p] < nrows);
        if (p > ptr[i]) F3D_CHECK(col[p - 1] < col[p]);
      }
  }

  /// y = A x with x, y of length nrows*nb (interlaced field layout). The
  /// row body takes the block size at compile time: the register reuse of
  /// structural blocking (paper §2.1.2) needs NB known to the compiler.
  /// dense::with_block_kernels picks NB and reads the SIMD switch once,
  /// and throws f3d::Error for nb outside [1, dense::kMaxBlockSize].
  void spmv(const double* x, double* y) const {
    dense::with_block_kernels(nb, [&](auto kNb, auto kSimd) {
      constexpr int NB = kNb;
      const std::size_t bsz = static_cast<std::size_t>(NB) * NB;
      const S* vals = val.data();
      // Block rows are independent: row-parallel, bit-identical for any
      // thread count.
      exec::pool().parallel_for(
          0, nrows,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
              double acc[NB] = {};
              for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
                const S* b = vals + static_cast<std::size_t>(p) * bsz;
                const double* xj = &x[static_cast<std::size_t>(col[p]) * NB];
                for (int r = 0; r < NB; ++r) {
                  const S* row = b + static_cast<std::size_t>(r) * NB;
                  acc[r] += kSimd ? detail::dense_dot_promote_simd(row, xj, NB)
                                  : detail::dense_dot_promote(row, xj, NB);
                }
              }
              double* yi = &y[static_cast<std::size_t>(i) * NB];
              for (int r = 0; r < NB; ++r) yi[r] = acc[r];
            }
          },
          /*grain=*/256);
    });
  }

  void spmv(const std::vector<double>& x, std::vector<double>& y) const {
    F3D_CHECK(static_cast<int>(x.size()) == scalar_n());
    y.resize(x.size());
    spmv(x.data(), y.data());
  }

  /// Pointer to the nb*nb block (i, j), or nullptr.
  [[nodiscard]] const S* find_block(int i, int j) const {
    for (int p = ptr[i]; p < ptr[i + 1]; ++p)
      if (col[p] == j) return &val[static_cast<std::size_t>(p) * nb * nb];
    return nullptr;
  }
  [[nodiscard]] S* find_block(int i, int j) {
    return const_cast<S*>(static_cast<const Bcsr*>(this)->find_block(i, j));
  }

  template <class T>
  [[nodiscard]] Bcsr<T> convert() const {
    Bcsr<T> out;
    out.nb = nb;
    out.nrows = nrows;
    out.ptr = ptr;
    out.col = col;
    out.val.assign(val.begin(), val.end());
    return out;
  }
};

}  // namespace f3d::sparse
