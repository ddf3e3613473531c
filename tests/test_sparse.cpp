// Tests for the sparse substrate: vector kernels, CSR/BCSR formats, layout
// equivalence (the operators behind the paper's Table 1 must be identical
// across layouts), and ILU(k) factorization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "common/rng.hpp"
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
        if (nb == 1 || n == 1)
          EXPECT_EQ(x, y) << "n=" << n << " nb=" << nb;
      }
    }
  }
}

TEST(Formats, SoaViewAliasesSameBytes) {
  // The SIMD fast paths address fields through SoaView; the view must
  // alias the caller's storage (no copy) with the field_index map.
  const int n = 6, nb = 4;
  std::vector<double> x(static_cast<std::size_t>(n) * nb);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.5 * static_cast<double>(i);
  for (auto layout : {FieldLayout::kInterlaced, FieldLayout::kNonInterlaced}) {
    auto view = soa_view(x, layout, n, nb);
    for (int v = 0; v < n; ++v)
      for (int c = 0; c < nb; ++c)
        EXPECT_EQ(view.at(v, c), &x[field_index(layout, n, nb, v, c)]);
    // Strides are consistent with the address map.
    EXPECT_EQ(view.at(1, 0) - view.at(0, 0), view.vertex_stride());
    EXPECT_EQ(view.at(0, 1) - view.at(0, 0), view.component_stride());
    // Writes through the view land in the vector's bytes.
    *view.at(2, 3) = -99.0;
    EXPECT_EQ(x[field_index(layout, n, nb, 2, 3)], -99.0);
  }
  // Interlaced blocks are the contiguous nb-runs Vd::loadu consumes.
  auto vi = soa_view(x, FieldLayout::kInterlaced, n, nb);
  for (int v = 0; v < n; ++v) EXPECT_EQ(vi.block(v), &x[v * nb]);
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
  auto pm = bcsr_to_point(bm);
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
  const auto b1 = build_bcsr(s, 4, synthetic_values(s, 0));
  const auto b2 = build_bcsr(s, 4, synthetic_values(s, 1));
  ASSERT_NE(b1.val, b2.val);
  const auto p1 = bcsr_to_point(b1), p2 = bcsr_to_point(b2);
  expect_refactor_matches_fresh<PointIlu<double>>(p1, p2);
  expect_refactor_matches_fresh<PointIlu<float>>(p1, p2);
  expect_refactor_matches_fresh<BlockIlu<double>>(b1, b2);
  expect_refactor_matches_fresh<BlockIlu<float>>(b1, b2);
}

TEST(Ilu, MissingDiagonalThrows) {
  std::vector<int> ptr = {0, 1, 2};
  std::vector<int> col = {1, 0};  // 2x2 anti-diagonal: no (0,0)
  EXPECT_THROW(principal_submatrix(ptr, col, {}, 0), Error);
}

}  // namespace
