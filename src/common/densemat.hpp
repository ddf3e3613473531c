#pragma once
// Small dense-block kernels used by the block sparse (BAIJ) path: in-place
// LU factorization of NB-by-NB diagonal blocks, triangular solves with
// them, and block multiply-subtract. Blocks are stored row-major and are
// small (nb = 4 incompressible, nb = 5 compressible). Each kernel is
// written once, over a compile-time block size NB, as PETSc unrolls its
// BAIJ kernels per block size: every block loop unrolls, so a block row is
// held in registers and a block's rows can run as SIMD lanes.
// with_block_size() turns a run-time nb into NB, once per factorization or
// solve. Every entry goes through the same IEEE operations, in the same
// order, as in a plain triple loop (and -ffp-contract=off rules out FMA),
// so the unrolling changes no bit.

#include <array>
#include <cstddef>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/simd.hpp"

// Unrolls a loop over a block dimension (at most kMaxBlockSize trips)
// completely: -O2 unrolls only loops whose code does not grow.
#define F3D_UNROLL_BLOCK _Pragma("GCC unroll 8")

namespace f3d::dense {

/// The largest block size of the block kernels, and of the block formats
/// that call them (sparse::Bcsr, sparse::BlockIlu, SSOR).
inline constexpr int kMaxBlockSize = 8;

/// Returns f(std::integral_constant<int, NB>{}) with NB == nb; throws
/// f3d::Error unless 1 <= nb <= kMaxBlockSize.
template <class F>
decltype(auto) with_block_size(int nb, F&& f) {
  F3D_CHECK_MSG(nb >= 1 && nb <= kMaxBlockSize,
                "block size " + std::to_string(nb) + " is not in [1, " +
                    std::to_string(kMaxBlockSize) + "]");
  static_assert(kMaxBlockSize == 8);
  switch (nb) {
    case 1: return f(std::integral_constant<int, 1>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 5: return f(std::integral_constant<int, 5>{});
    case 6: return f(std::integral_constant<int, 6>{});
    case 7: return f(std::integral_constant<int, 7>{});
    default: return f(std::integral_constant<int, 8>{});
  }
}

/// with_block_size for the callers of gemv_sub: calls f(NB, kSimd), both
/// as std::integral_constant values, with kSimd == simd::enabled() read
/// once.
template <class F>
void with_block_kernels(int nb, F&& f) {
  with_block_size(nb, [&](auto kNb) {
    if (simd::enabled())
      f(kNb, std::true_type{});
    else
      f(kNb, std::false_type{});
  });
}

/// y -= A * x for a row-major NB x NB block A stored in double or float
/// (promoted on load). Each row's dot product sums sequentially from 0;
/// with kSimd at NB == 4 the four row products are reduced together, each
/// by hsum's fixed tree (simd::hsum4).
template <int NB, bool kSimd, class TA>
inline void gemv_sub(const TA* a, const double* x, double* y) {
  if constexpr (kSimd && NB == simd::kDoubleLanes) {
    using simd::Vd;
    const Vd xv = Vd::loadu(x);
    const Vd s = simd::hsum4(Vd::loadu(a) * xv, Vd::loadu(a + 4) * xv,
                             Vd::loadu(a + 8) * xv, Vd::loadu(a + 12) * xv);
    (Vd::loadu(y) - s).storeu(y);
  } else {
    F3D_UNROLL_BLOCK
    for (int i = 0; i < NB; ++i) {
      double s = 0;
      F3D_UNROLL_BLOCK
      for (int j = 0; j < NB; ++j)
        s += static_cast<double>(a[i * NB + j]) * x[j];
      y[i] -= s;
    }
  }
}

/// C -= A * B (all row-major NB x NB blocks). Row i of C is held in
/// registers, as simd::Vd packs plus a scalar tail, while a_ik * b_kj is
/// subtracted for k ascending: lane-wise, so SIMD on or off is the same.
template <int NB>
inline void gemm_sub(const double* a, const double* b, double* c) {
  using simd::Vd;
  constexpr int kPacks = NB / simd::kDoubleLanes;
  constexpr int kHead = kPacks * simd::kDoubleLanes;
  F3D_UNROLL_BLOCK
  for (int i = 0; i < NB; ++i) {
    double* crow = c + i * NB;
    std::array<Vd, kPacks> head;
    std::array<double, NB - kHead> tail;
    F3D_UNROLL_BLOCK
    for (int p = 0; p < kPacks; ++p)
      head[p] = Vd::loadu(crow + p * simd::kDoubleLanes);
    F3D_UNROLL_BLOCK
    for (int j = kHead; j < NB; ++j) tail[j - kHead] = crow[j];
    F3D_UNROLL_BLOCK
    for (int k = 0; k < NB; ++k) {
      const double aik = a[i * NB + k];
      const double* brow = b + k * NB;
      F3D_UNROLL_BLOCK
      for (int p = 0; p < kPacks; ++p)
        head[p] -=
            Vd::broadcast(aik) * Vd::loadu(brow + p * simd::kDoubleLanes);
      F3D_UNROLL_BLOCK
      for (int j = kHead; j < NB; ++j) tail[j - kHead] -= aik * brow[j];
    }
    F3D_UNROLL_BLOCK
    for (int p = 0; p < kPacks; ++p)
      head[p].storeu(crow + p * simd::kDoubleLanes);
    F3D_UNROLL_BLOCK
    for (int j = kHead; j < NB; ++j) crow[j] = tail[j - kHead];
  }
}

/// In-place LU factorization (no pivoting; the Euler point Jacobians we
/// factor are strongly diagonally dominated by the pseudo-timestep term).
/// Returns false if a zero/denormal pivot is hit.
template <int NB>
inline bool lu_factor(double* a) {
  F3D_UNROLL_BLOCK
  for (int k = 0; k < NB; ++k) {
    const double pivot = a[k * NB + k];
    if (!(pivot != 0.0)) return false;
    const double inv = 1.0 / pivot;
    F3D_UNROLL_BLOCK
    for (int i = k + 1; i < NB; ++i) {
      const double lik = a[i * NB + k] * inv;
      a[i * NB + k] = lik;
      F3D_UNROLL_BLOCK
      for (int j = k + 1; j < NB; ++j) a[i * NB + j] -= lik * a[k * NB + j];
    }
  }
  return true;
}

/// Solve (LU) x = b with factors from lu_factor, stored in double or float
/// (promoted on load); x may alias b.
template <int NB, class TA>
inline void lu_solve(const TA* lu, const double* b, double* x) {
  // Forward: L y = b (unit diagonal).
  F3D_UNROLL_BLOCK
  for (int i = 0; i < NB; ++i) {
    double s = b[i];
    F3D_UNROLL_BLOCK
    for (int j = 0; j < i; ++j)
      s -= static_cast<double>(lu[i * NB + j]) * x[j];
    x[i] = s;
  }
  // Backward: U x = y.
  F3D_UNROLL_BLOCK
  for (int i = NB - 1; i >= 0; --i) {
    double s = x[i];
    F3D_UNROLL_BLOCK
    for (int j = i + 1; j < NB; ++j)
      s -= static_cast<double>(lu[i * NB + j]) * x[j];
    x[i] = s / static_cast<double>(lu[i * NB + i]);
  }
}

/// B := B * (LU)^{-1} (right-multiplication by the inverse of a factored
/// block). Used by block ILU to normalize sub-diagonal blocks:
/// A_ik := A_ik * A_kk^{-1}. Row r of B is independent, held in
/// registers:
///   solve y U = b (forward in U^T), then x L = y (backward in L^T).
template <int NB>
inline void right_lu_solve_block(const double* lu, double* b) {
  F3D_UNROLL_BLOCK
  for (int r = 0; r < NB; ++r) {
    double row[NB];
    F3D_UNROLL_BLOCK
    for (int j = 0; j < NB; ++j) row[j] = b[r * NB + j];
    // y U = row  (U upper, non-unit diagonal)
    F3D_UNROLL_BLOCK
    for (int j = 0; j < NB; ++j) {
      double s = row[j];
      F3D_UNROLL_BLOCK
      for (int i = 0; i < j; ++i) s -= row[i] * lu[i * NB + j];
      row[j] = s / lu[j * NB + j];
    }
    // x L = y  (L unit lower)
    F3D_UNROLL_BLOCK
    for (int j = NB - 1; j >= 0; --j) {
      double s = row[j];
      F3D_UNROLL_BLOCK
      for (int i = j + 1; i < NB; ++i) s -= row[i] * lu[i * NB + j];
      row[j] = s;
    }
    F3D_UNROLL_BLOCK
    for (int j = 0; j < NB; ++j) b[r * NB + j] = row[j];
  }
}

}  // namespace f3d::dense

#undef F3D_UNROLL_BLOCK
