// Tests for the sparse substrate: vector kernels, CSR/BCSR formats, layout
// equivalence (the operators behind the paper's Table 1 must be identical
// across layouts), and ILU(k) factorization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "mesh/generator.hpp"
#include "sparse/assembly.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu.hpp"
#include "sparse/layout.hpp"
#include "sparse/vec.hpp"

namespace {

using namespace f3d;
using namespace f3d::sparse;

// --- vector kernels ----------------------------------------------------

TEST(Vec, DotAndNorm) {
  Vec x = {3, 4};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
}

TEST(Vec, AxpyFamilies) {
  Vec x = {1, 2, 3}, y = {10, 20, 30};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vec{12, 24, 36}));
  scale(y, 0.5);
  EXPECT_EQ(y, (Vec{6, 12, 18}));
}

TEST(Vec, SizeMismatchThrows) {
  Vec x = {1, 2}, y = {1};
  EXPECT_THROW(dot(x, y), Error);
  EXPECT_THROW(axpy(1.0, x, y), Error);
}

// --- fixtures ----------------------------------------------------------

Stencil small_stencil() {
  auto m = mesh::generate_box_mesh(3, 3, 3);
  return stencil_from_mesh(m);
}

// --- stencil -----------------------------------------------------------

TEST(Stencil, ContainsSelfAndIsSorted) {
  auto s = small_stencil();
  for (int i = 0; i < s.n; ++i) {
    bool self = false;
    for (int p = s.ptr[i]; p < s.ptr[i + 1]; ++p) {
      if (s.col[p] == i) self = true;
      if (p > s.ptr[i]) {
        EXPECT_LT(s.col[p - 1], s.col[p]);
      }
    }
    EXPECT_TRUE(self) << "row " << i;
  }
}

TEST(Stencil, SymmetricPattern) {
  auto s = small_stencil();
  auto has = [&](int i, int j) {
    for (int p = s.ptr[i]; p < s.ptr[i + 1]; ++p)
      if (s.col[p] == j) return true;
    return false;
  };
  for (int i = 0; i < s.n; ++i)
    for (int p = s.ptr[i]; p < s.ptr[i + 1]; ++p)
      EXPECT_TRUE(has(s.col[p], i));
}

// --- formats and layout equivalence -----------------------------------

TEST(Formats, BcsrEqualsInterlacedPointCsr) {
  auto s = small_stencil();
  const int nb = 4;
  auto fn = synthetic_values(s);
  auto bm = build_bcsr(s, nb, fn);
  auto pm = build_point_csr(s, nb, fn, FieldLayout::kInterlaced);

  Rng rng(1);
  Vec x(static_cast<std::size_t>(s.n) * nb);
  for (auto& v : x) v = rng.uniform(-1, 1);
  Vec y1, y2;
  bm.spmv(x, y1);
  pm.spmv(x, y2);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Formats, NonInterlacedIsPermutedInterlaced) {
  auto s = small_stencil();
  const int nb = 5;
  auto fn = synthetic_values(s);
  auto mi = build_point_csr(s, nb, fn, FieldLayout::kInterlaced);
  auto mn = build_point_csr(s, nb, fn, FieldLayout::kNonInterlaced);

  Rng rng(2);
  Vec xi(static_cast<std::size_t>(s.n) * nb);
  for (auto& v : xi) v = rng.uniform(-1, 1);
  auto xn = convert_layout(xi, FieldLayout::kInterlaced,
                           FieldLayout::kNonInterlaced, s.n, nb);

  Vec yi, yn;
  mi.spmv(xi, yi);
  mn.spmv(xn, yn);
  auto yn_as_i = convert_layout(yn, FieldLayout::kNonInterlaced,
                                FieldLayout::kInterlaced, s.n, nb);
  for (std::size_t i = 0; i < yi.size(); ++i)
    EXPECT_NEAR(yi[i], yn_as_i[i], 1e-13);
}

TEST(Formats, NonInterlacedHasHugeBandwidth) {
  auto s = small_stencil();
  const int nb = 4;
  auto fn = synthetic_values(s);
  auto mi = build_point_csr(s, nb, fn, FieldLayout::kInterlaced);
  auto mn = build_point_csr(s, nb, fn, FieldLayout::kNonInterlaced);
  auto bandwidth = [](const Csr<double>& m) {
    int bw = 0;
    for (int i = 0; i < m.n; ++i)
      for (int p = m.ptr[i]; p < m.ptr[i + 1]; ++p)
        bw = std::max(bw, std::abs(m.col[p] - i));
    return bw;
  };
  // The non-interlaced bandwidth is ~(nb-1)*N (paper Eq. 1 regime); the
  // interlaced one is ~nb*beta (Eq. 2 regime).
  EXPECT_GT(bandwidth(mn), (nb - 1) * s.n / 2);
  EXPECT_LT(bandwidth(mi), bandwidth(mn) / 2);
}

TEST(Formats, ConvertLayoutRoundTrips) {
  Rng rng(3);
  const int n = 10, nb = 4;
  Vec x(static_cast<std::size_t>(n) * nb);
  for (auto& v : x) v = rng.uniform(-1, 1);
  auto y = convert_layout(x, FieldLayout::kInterlaced,
                          FieldLayout::kNonInterlaced, n, nb);
  auto z = convert_layout(y, FieldLayout::kNonInterlaced,
                          FieldLayout::kInterlaced, n, nb);
  EXPECT_EQ(x, z);
  // The index map under both: component c of vertex v sits at v*nb + c
  // interlaced and at c*n + v non-interlaced.
  for (int v = 0; v < n; ++v)
    for (int c = 0; c < nb; ++c) {
      EXPECT_EQ(field_index(FieldLayout::kInterlaced, n, nb, v, c), v * nb + c);
      EXPECT_EQ(field_index(FieldLayout::kNonInterlaced, n, nb, v, c), c * n + v);
      EXPECT_EQ(y[static_cast<std::size_t>(c) * n + v],
                x[static_cast<std::size_t>(v) * nb + c]);
    }
}

TEST(Formats, ConvertLayoutInvolutionPropertySweep) {
  // Property: there-and-back is the identity for every (n, nb) shape —
  // odd and even vertex counts, single-component fields, both starting
  // layouts. Exact equality: conversion only permutes, never rounds.
  Rng rng(7);
  for (int n : {1, 2, 3, 7, 8, 16, 17}) {
    for (int nb : {1, 2, 4, 5}) {
      Vec x(static_cast<std::size_t>(n) * nb);
      for (auto& v : x) v = rng.uniform(-10, 10);
      for (auto from : {FieldLayout::kInterlaced, FieldLayout::kNonInterlaced}) {
        const auto to = from == FieldLayout::kInterlaced
                            ? FieldLayout::kNonInterlaced
                            : FieldLayout::kInterlaced;
        auto y = convert_layout(x, from, to, n, nb);
        auto z = convert_layout(y, to, from, n, nb);
        EXPECT_EQ(x, z) << "n=" << n << " nb=" << nb;
        // nb == 1 (and n == 1): the two layouts coincide, so a single
        // conversion is already the identity.
        if (nb == 1 || n == 1) {
          EXPECT_EQ(x, y) << "n=" << n << " nb=" << nb;
        }
      }
    }
  }
}

TEST(Formats, FloatConversionPreservesValuesApprox) {
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto m = build_bcsr(s, 4, fn);
  auto mf = m.convert<float>();
  Rng rng(4);
  Vec x(static_cast<std::size_t>(m.scalar_n()));
  for (auto& v : x) v = rng.uniform(-1, 1);
  Vec yd, yf;
  m.spmv(x, yd);
  mf.spmv(x, yf);
  for (std::size_t i = 0; i < yd.size(); ++i)
    EXPECT_NEAR(yd[i], yf[i], 1e-5 * (1.0 + std::abs(yd[i])));
}

TEST(Formats, FindLocatesEntries) {
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto pm = build_point_csr(s, 2, fn, FieldLayout::kInterlaced);
  ASSERT_NE(pm.find(0, 0), nullptr);
  auto bm = build_bcsr(s, 2, fn);
  ASSERT_NE(bm.find_block(0, 0), nullptr);
  EXPECT_EQ(bm.find_block(0, s.n - 1), nullptr);  // corner not adjacent
}

// --- ILU ---------------------------------------------------------------

TEST(Ilu, SymbolicLevel0EqualsInput) {
  auto s = small_stencil();
  const auto [pat, map] = principal_submatrix(s.ptr, s.col, {}, 0);
  EXPECT_EQ(pat.ptr, s.ptr);
  EXPECT_EQ(pat.col, s.col);
  for (int i = 0; i < s.n; ++i) EXPECT_EQ(pat.col[pat.diag[i]], i);
  // Every entry gathers from itself.
  std::vector<int> identity(s.col.size());
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(map.src, identity);
}

TEST(Ilu, FillGrowsWithLevel) {
  auto s = small_stencil();
  auto p0 = principal_submatrix(s.ptr, s.col, {}, 0).first;
  auto p1 = principal_submatrix(s.ptr, s.col, {}, 1).first;
  auto p2 = principal_submatrix(s.ptr, s.col, {}, 2).first;
  EXPECT_LT(p0.nnz(), p1.nnz());
  EXPECT_LT(p1.nnz(), p2.nnz());
}

TEST(Ilu, PatternsNest) {
  auto s = small_stencil();
  auto p1 = principal_submatrix(s.ptr, s.col, {}, 1).first;
  auto p2 = principal_submatrix(s.ptr, s.col, {}, 2).first;
  // Every level-1 entry appears at level 2.
  for (int i = 0; i < s.n; ++i) {
    int q = p2.ptr[i];
    for (int p = p1.ptr[i]; p < p1.ptr[i + 1]; ++p) {
      while (q < p2.ptr[i + 1] && p2.col[q] < p1.col[p]) ++q;
      ASSERT_LT(q, p2.ptr[i + 1]);
      EXPECT_EQ(p2.col[q], p1.col[p]);
    }
  }
}

TEST(Ilu, TridiagonalFullFactorizationIsExact) {
  // For a tridiagonal matrix, ILU(0) is the exact LU: solve must match a
  // direct solution.
  const int n = 50;
  Csr<double> a;
  a.n = n;
  a.ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      a.col.push_back(i - 1);
      a.val.push_back(-1.0);
    }
    a.col.push_back(i);
    a.val.push_back(2.5);
    if (i < n - 1) {
      a.col.push_back(i + 1);
      a.val.push_back(-1.0);
    }
    a.ptr.push_back(static_cast<int>(a.col.size()));
  }
  const PointIlu<double> f(a, 0);

  Rng rng(5);
  Vec x_true(n), b(n);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  a.spmv(x_true, b);
  Vec x(n);
  f.solve(b, x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Ilu, PointIluIsApproximateInverse) {
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto a = build_point_csr(s, 2, fn, FieldLayout::kInterlaced);
  const PointIlu<double> f(a, 1);

  // For a diagonally dominant A, the preconditioned residual of one solve
  // should shrink strongly: || b - A M^{-1} b || << || b ||.
  Rng rng(6);
  Vec b(a.n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  Vec x(a.n), r(a.n);
  f.solve(b, x);
  a.spmv(x, r);
  for (int i = 0; i < a.n; ++i) r[i] = b[i] - r[i];
  EXPECT_LT(norm2(r), 0.25 * norm2(b));
}

TEST(Ilu, BlockIluMatchesPointIluOnBlockDiagonalPattern) {
  // With block size 1 the block path must numerically equal the point path.
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto bm = build_bcsr(s, 1, fn);
  auto pm = build_point_csr(s, 1, fn, FieldLayout::kInterlaced);
  const BlockIlu<double> fb(bm, 1);
  const PointIlu<double> fp(pm, 1);

  Rng rng(7);
  Vec b(pm.n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  Vec xb(pm.n), xp(pm.n);
  fb.solve(b, xb);
  fp.solve(b, xp);
  for (int i = 0; i < pm.n; ++i) EXPECT_NEAR(xb[i], xp[i], 1e-12);
}

TEST(Ilu, BlockIluReducesResidual) {
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto a = build_bcsr(s, 4, fn);
  const BlockIlu<double> f(a, 0);

  Rng rng(8);
  Vec b(static_cast<std::size_t>(a.scalar_n()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  Vec x(b.size()), r(b.size());
  f.solve(b, x);
  a.spmv(x, r);
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - r[i];
  EXPECT_LT(norm2(r), 0.25 * norm2(b));
}

TEST(Ilu, HigherFillIsMoreAccurate) {
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto a = build_bcsr(s, 4, fn);
  Rng rng(9);
  Vec b(static_cast<std::size_t>(a.scalar_n()));
  for (auto& v : b) v = rng.uniform(-1, 1);

  auto resid = [&](int level) {
    const BlockIlu<double> f(a, level);
    Vec x(b.size()), r(b.size());
    f.solve(b, x);
    a.spmv(x, r);
    for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - r[i];
    return norm2(r);
  };
  const double r0 = resid(0), r1 = resid(1), r2 = resid(2);
  EXPECT_LT(r1, r0);
  EXPECT_LT(r2, r1);
}

TEST(Ilu, FloatStorageCloseToDouble) {
  auto s = small_stencil();
  auto fn = synthetic_values(s);
  auto a = build_bcsr(s, 4, fn);
  const BlockIlu<double> fd(a, 1);
  const BlockIlu<float> ff(a, 1);

  Rng rng(10);
  Vec b(static_cast<std::size_t>(a.scalar_n()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  Vec xd(b.size()), xf(b.size());
  fd.solve(b, xd);
  ff.solve(b, xf);
  double diff = 0, ref = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    diff += (xd[i] - xf[i]) * (xd[i] - xf[i]);
    ref += xd[i] * xd[i];
  }
  EXPECT_LT(std::sqrt(diff), 1e-4 * std::sqrt(ref));
}

// refactor() writes the factors of new values over the old ones: they
// equal a factor built fresh on those values, bit for bit, and double
// storage keeps its value buffer.
template <class Factor, class Matrix>
void expect_refactor_matches_fresh(const Matrix& a1, const Matrix& a2) {
  for (int level : {0, 1}) {
    Factor f(a1, level);
    const auto* buffer = f.values().data();
    ASSERT_TRUE(f.refactor(a2).ok);
    const Factor fresh(a2, level);
    const auto& v = f.values();
    ASSERT_EQ(v.size(), fresh.values().size());
    EXPECT_EQ(std::memcmp(v.data(), fresh.values().data(), v.size() * sizeof v[0]),
              0)
        << "level " << level;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(*buffer)>, double>) {
      EXPECT_EQ(v.data(), buffer) << "level " << level;
    }
  }
}

TEST(Ilu, RefactorEqualsFreshFactorBitwise) {
  auto s = small_stencil();
  const auto fn1 = synthetic_values(s, 0), fn2 = synthetic_values(s, 1);
  const auto b1 = build_bcsr(s, 4, fn1), b2 = build_bcsr(s, 4, fn2);
  ASSERT_NE(b1.val, b2.val);
  const auto p1 = build_point_csr(s, 4, fn1, FieldLayout::kInterlaced);
  const auto p2 = build_point_csr(s, 4, fn2, FieldLayout::kInterlaced);
  expect_refactor_matches_fresh<PointIlu<double>>(p1, p2);
  expect_refactor_matches_fresh<BlockIlu<double>>(b1, b2);
  expect_refactor_matches_fresh<BlockIlu<float>>(b1, b2);
}

// The block ILU's run-time block-size loops from before its kernels took
// a compile-time block size: the numeric phase, the solve rows and the
// dense loop bodies under them, kept as the bitwise reference.
namespace runtime_nb {

void gemm_sub(int nb, const double* a, const double* b, double* c) {
  for (int i = 0; i < nb; ++i)
    for (int k = 0; k < nb; ++k) {
      const double aik = a[i * nb + k];
      for (int j = 0; j < nb; ++j) c[i * nb + j] -= aik * b[k * nb + j];
    }
}

bool lu_factor(int nb, double* a) {
  for (int k = 0; k < nb; ++k) {
    const double pivot = a[k * nb + k];
    if (!(pivot != 0.0)) return false;
    const double inv = 1.0 / pivot;
    for (int i = k + 1; i < nb; ++i) {
      const double lik = a[i * nb + k] * inv;
      a[i * nb + k] = lik;
      for (int j = k + 1; j < nb; ++j) a[i * nb + j] -= lik * a[k * nb + j];
    }
  }
  return true;
}

void right_lu_solve_block(int nb, const double* lu, double* b) {
  for (int r = 0; r < nb; ++r) {
    double* row = b + r * nb;
    for (int j = 0; j < nb; ++j) {
      double s = row[j];
      for (int i = 0; i < j; ++i) s -= row[i] * lu[i * nb + j];
      row[j] = s / lu[j * nb + j];
    }
    for (int j = nb - 1; j >= 0; --j) {
      double s = row[j];
      for (int i = j + 1; i < nb; ++i) s -= row[i] * lu[i * nb + j];
      row[j] = s;
    }
  }
}

template <class TA>
void gemv_sub(int nb, const TA* a, const double* x, double* y) {
  if (nb == simd::kDoubleLanes && simd::enabled()) {
    const simd::Vd xv = simd::Vd::loadu(x);
    for (int i = 0; i < nb; ++i)
      y[i] -= (simd::Vd::loadu(a + i * nb) * xv).hsum();
    return;
  }
  for (int i = 0; i < nb; ++i) {
    double s = 0;
    for (int j = 0; j < nb; ++j) s += static_cast<double>(a[i * nb + j]) * x[j];
    y[i] -= s;
  }
}

template <class TA>
void lu_solve(int nb, const TA* lu, const double* b, double* x) {
  for (int i = 0; i < nb; ++i) {
    double s = b[i];
    for (int j = 0; j < i; ++j) s -= static_cast<double>(lu[i * nb + j]) * x[j];
    x[i] = s;
  }
  for (int i = nb - 1; i >= 0; --i) {
    double s = x[i];
    for (int j = i + 1; j < nb; ++j)
      s -= static_cast<double>(lu[i * nb + j]) * x[j];
    x[i] = s / static_cast<double>(lu[i * nb + i]);
  }
}

// Gathers A through `map`, zeroes diagonal block `zeroed` (none if -1)
// and eliminates into `val`; returns the first singular block row, or -1.
int factor(const Bcsr<double>& a, const IluPattern& pat, const GatherMap& map,
           int zeroed, std::vector<double>& val) {
  const int nb = a.nb;
  const std::size_t bsz = static_cast<std::size_t>(nb) * nb;
  val.resize(pat.nnz() * bsz);
  map.gather(pat.ptr, pat.col, a.ptr, a.col, a.val, bsz, val.data());
  if (zeroed >= 0) std::fill_n(&val[pat.diag[zeroed] * bsz], bsz, 0.0);
  for (int i = 0; i < pat.n; ++i) {
    for (int pos = pat.ptr[i]; pos < pat.diag[i]; ++pos) {
      const int k = pat.col[pos];
      double* blk_ik = &val[pos * bsz];
      right_lu_solve_block(nb, &val[pat.diag[k] * bsz], blk_ik);
      int r = pos + 1;
      for (int u = pat.diag[k] + 1; u < pat.ptr[k + 1]; ++u) {
        const int j = pat.col[u];
        while (r < pat.ptr[i + 1] && pat.col[r] < j) ++r;
        if (r == pat.ptr[i + 1]) break;
        if (pat.col[r] == j) gemm_sub(nb, blk_ik, &val[u * bsz], &val[r * bsz]);
      }
    }
    if (!lu_factor(nb, &val[pat.diag[i] * bsz])) return i;
  }
  return -1;
}

template <class S>
void solve(int nb, const IluPattern& pat, const std::vector<S>& val,
           const double* b, double* x) {
  const std::size_t bsz = static_cast<std::size_t>(nb) * nb;
  for (int i = 0; i < pat.n; ++i) {
    double* xi = x + i * nb;
    std::copy_n(b + i * nb, nb, xi);
    for (int p = pat.ptr[i]; p < pat.diag[i]; ++p)
      gemv_sub(nb, &val[p * bsz], x + pat.col[p] * nb, xi);
  }
  for (int i = pat.n - 1; i >= 0; --i) {
    double* xi = x + i * nb;
    for (int p = pat.diag[i] + 1; p < pat.ptr[i + 1]; ++p)
      gemv_sub(nb, &val[p * bsz], x + pat.col[p] * nb, xi);
    double tmp[8];
    lu_solve(nb, &val[pat.diag[i] * bsz], xi, tmp);
    std::copy_n(tmp, nb, xi);
  }
}

}  // namespace runtime_nb

template <class T>
bool same_bytes(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

// Factors, refactors, solves and refactors through a fill that zeroes a
// diagonal block, of BlockIlu<S> at block size nb and fill `level`, each
// against the run-time-nb reference.
template <class S>
void expect_block_kernels_match_reference(const Stencil& s, int nb,
                                          int level) {
  const auto a1 = build_bcsr(s, nb, synthetic_values(s, 0));
  const auto a2 = build_bcsr(s, nb, synthetic_values(s, 1));
  const auto [pat, map] = principal_submatrix(a1.ptr, a1.col, {}, level);
  auto stored = [](const std::vector<double>& v) {
    return std::vector<S>(v.begin(), v.end());
  };
  std::vector<double> ref;

  BlockIlu<S> f(a1, level);
  ASSERT_EQ(runtime_nb::factor(a1, pat, map, -1, ref), -1);
  EXPECT_TRUE(same_bytes(f.values(), stored(ref))) << "construction";
  ASSERT_TRUE(f.refactor(a2).ok);
  ASSERT_EQ(runtime_nb::factor(a2, pat, map, -1, ref), -1);
  const std::vector<S> ref_val = stored(ref);
  EXPECT_TRUE(same_bytes(f.values(), ref_val)) << "refactor";

  Rng rng(static_cast<std::uint64_t>(10 * nb + level));
  std::vector<double> b(static_cast<std::size_t>(a1.scalar_n()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> x_ref(b.size()), x(b.size());
  runtime_nb::solve(nb, pat, ref_val, b.data(), x_ref.data());
  f.solve(b.data(), x.data());
  EXPECT_TRUE(same_bytes(x, x_ref)) << "solve";
  for (int threads : {1, 2, 4}) {
    exec::ThreadScope scope(threads);
    std::fill(x.begin(), x.end(), 0.0);
    f.solve_levels(b.data(), x.data());
    EXPECT_TRUE(same_bytes(x, x_ref)) << "solve_levels, threads " << threads;
  }

  // A fill that zeroes a diagonal block, first (0, 0), then mid-matrix.
  for (int zeroed : {0, pat.n / 2}) {
    const int ref_bad = runtime_nb::factor(a2, pat, map, zeroed, ref);
    const IluFactorStatus st = f.refactor([&](Bcsr<double>& m) {
      map.gather(a2, m);
      std::fill_n(m.find_block(zeroed, zeroed), nb * nb, 0.0);
    });
    EXPECT_EQ(st.ok, ref_bad < 0) << "zeroed " << zeroed;
    EXPECT_EQ(st.bad_row, ref_bad) << "zeroed " << zeroed;
    EXPECT_TRUE(same_bytes(f.values(), stored(ref))) << "zeroed " << zeroed;
  }
}

// Rows t < half couple only to rows of the second half, and row half + t
// to t, t + 1 and t + 7 (mod half). ILU(0)'s schedules then have levels
// of `half` rows, which the pool splits when half exceeds its grain of
// 128 rows; fill adds couplings inside the second half.
Stencil bipartite_stencil(int half) {
  std::vector<std::vector<int>> adj(2 * half);
  for (int t = 0; t < half; ++t)
    for (int d : {0, 1, 7}) {
      adj[half + t].push_back((t + d) % half);
      adj[(t + d) % half].push_back(half + t);
    }
  Stencil s;
  s.n = 2 * half;
  s.ptr = {0};
  for (int i = 0; i < s.n; ++i) {
    adj[i].push_back(i);
    std::sort(adj[i].begin(), adj[i].end());
    s.col.insert(s.col.end(), adj[i].begin(),
                 std::unique(adj[i].begin(), adj[i].end()));
    s.ptr.push_back(static_cast<int>(s.col.size()));
  }
  return s;
}

TEST(Ilu, BlockKernelsMatchRuntimeReferenceBitwise) {
  for (const Stencil& s : {small_stencil(), bipartite_stencil(150)})
    for (bool use_simd : {false, true}) {
      simd::EnabledScope simd_scope(use_simd);
      for (int nb = 1; nb <= 8; ++nb)
        for (int level : {0, 1, 2}) {
          SCOPED_TRACE("n " + std::to_string(s.n) + ", simd " +
                       std::to_string(use_simd) + ", nb " +
                       std::to_string(nb) + ", fill " + std::to_string(level));
          expect_block_kernels_match_reference<double>(s, nb, level);
          expect_block_kernels_match_reference<float>(s, nb, level);
        }
    }
}

TEST(Ilu, MissingDiagonalThrows) {
  std::vector<int> ptr = {0, 1, 2};
  std::vector<int> col = {1, 0};  // 2x2 anti-diagonal: no (0,0)
  EXPECT_THROW(principal_submatrix(ptr, col, {}, 0), Error);
}

}  // namespace
