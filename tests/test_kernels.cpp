// Focused kernel tests: the dense block kernels that back block ILU and
// SSOR (factor, solves, right-solve identity, block-size dispatch), the
// block SpMV against its run-time-nb reference and its block-size bound,
// and scalar-storage conversions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/densemat.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "mesh/generator.hpp"
#include "simcache/traced_kernels.hpp"
#include "sparse/assembly.hpp"

namespace {

using namespace f3d;

// y += A x for a row-major nb x nb block: the plain loop the identities
// below check the library kernels against.
void gemv_acc(int nb, const double* a, const double* x, double* y) {
  for (int i = 0; i < nb; ++i)
    for (int j = 0; j < nb; ++j) y[i] += a[i * nb + j] * x[j];
}

// A^{-1} from A's LU factors, column by column through lu_solve.
template <int NB>
void inverse_from_lu(const double* lu, double* inv) {
  for (int col = 0; col < NB; ++col) {
    double e[NB] = {}, x[NB];
    e[col] = 1;
    dense::lu_solve<NB>(lu, e, x);
    for (int i = 0; i < NB; ++i) inv[i * NB + col] = x[i];
  }
}

TEST(Dense, LuRoundTrip4x4) {
  // A = random-ish diagonally dominant block; check A x = b solve.
  constexpr int nb = 4;
  double a[16] = {10, 1, 2, 0, 1, 12, 0, 3, 2, 0, 9, 1, 0, 3, 1, 11};
  double a_copy[16];
  std::copy(a, a + 16, a_copy);
  double x_true[4] = {1, -2, 3, 0.5};
  double b[4] = {0, 0, 0, 0};
  gemv_acc(nb, a, x_true, b);

  ASSERT_TRUE(dense::lu_factor<nb>(a_copy));
  double x[4];
  dense::lu_solve<nb>(a_copy, b, x);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Dense, LuDetectsZeroPivot) {
  double a[4] = {0, 1, 1, 0};  // 2x2 with zero leading pivot
  EXPECT_FALSE(dense::lu_factor<2>(a));
}

TEST(Dense, GemvSubMatchesAcc) {
  constexpr int nb = 3;
  double a[9] = {1, 2, 3, 4, 5, 6, 7, 8, 10};
  double x[3] = {1, 1, 1};
  double yp[3] = {0, 0, 0}, ym[3] = {0, 0, 0};
  gemv_acc(nb, a, x, yp);
  dense::gemv_sub<nb, false>(a, x, ym);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(yp[i], -ym[i]);
}

TEST(Dense, GemmSubMatchesManual) {
  double a[4] = {1, 2, 3, 4};
  double b[4] = {5, 6, 7, 8};
  double c[4] = {0, 0, 0, 0};
  dense::gemm_sub<2>(a, b, c);
  // c -= a*b => c = -(a*b)
  EXPECT_DOUBLE_EQ(c[0], -(1 * 5 + 2 * 7));
  EXPECT_DOUBLE_EQ(c[1], -(1 * 6 + 2 * 8));
  EXPECT_DOUBLE_EQ(c[2], -(3 * 5 + 4 * 7));
  EXPECT_DOUBLE_EQ(c[3], -(3 * 6 + 4 * 8));
}

TEST(Dense, LuSolveBlockInvertsAgainstGemm) {
  constexpr int nb = 3;
  double a[9] = {8, 1, 2, 1, 9, 3, 2, 3, 10};
  double lu[9];
  std::copy(a, a + 9, lu);
  ASSERT_TRUE(dense::lu_factor<nb>(lu));
  double b[9];
  inverse_from_lu<nb>(lu, b);  // b = A^{-1}
  // Check A * A^{-1} = I via gemm_sub: c = I - A*Ainv should be ~0.
  double c[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  dense::gemm_sub<nb>(a, b, c);
  for (double v : c) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Dense, BlockSizeDispatchCoversOneToEight) {
  for (int nb = 1; nb <= dense::kMaxBlockSize; ++nb)
    EXPECT_EQ(dense::with_block_size(nb, [](auto k) { return int{k}; }), nb);
  for (int nb : {0, dense::kMaxBlockSize + 1})
    EXPECT_THROW(dense::with_block_size(nb, [](auto k) { return int{k}; }),
                 Error);
}

TEST(DenseKernels, RightLuSolveBlockInvertsFromTheRight) {
  // B := B * (LU)^{-1}  =>  (result) * A == B_original.
  constexpr int nb = 4;
  Rng rng(3);
  double a[16], b[16], b_orig[16], lu[16];
  for (int i = 0; i < 16; ++i) {
    a[i] = rng.uniform(-1, 1);
    b[i] = rng.uniform(-1, 1);
  }
  for (int i = 0; i < nb; ++i) a[i * nb + i] += 4.0;  // invertible
  std::copy(b, b + 16, b_orig);
  std::copy(a, a + 16, lu);
  ASSERT_TRUE(dense::lu_factor<nb>(lu));
  dense::right_lu_solve_block<nb>(lu, b);

  // Check b * a == b_orig.
  for (int i = 0; i < nb; ++i)
    for (int j = 0; j < nb; ++j) {
      double s = 0;
      for (int k = 0; k < nb; ++k) s += b[i * nb + k] * a[k * nb + j];
      EXPECT_NEAR(s, b_orig[i * nb + j], 1e-11) << i << "," << j;
    }
}

TEST(DenseKernels, RightSolveConsistentWithLeftSolveViaTranspose) {
  // For B = I: right_lu_solve_block gives A^{-1}; solving A x = e_j for
  // each column gives A^{-1} too; they must agree.
  constexpr int nb = 3;
  double a[9] = {7, 1, 2, 1, 8, 3, 2, 3, 9};
  double lu[9];
  std::copy(a, a + 9, lu);
  ASSERT_TRUE(dense::lu_factor<nb>(lu));
  double left[9];
  double right[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  inverse_from_lu<nb>(lu, left);
  dense::right_lu_solve_block<nb>(lu, right);
  for (int i = 0; i < 9; ++i) EXPECT_NEAR(left[i], right[i], 1e-12);
}

TEST(SpmvDispatch, FixedKernelsMatchGenericForAllBlockSizes) {
  // Bcsr::spmv runs one row body over the compile-time block size; the
  // cache simulator's traced SpMV is the generic run-time-nb loop over the
  // same dot helpers, in the same order. The two must agree bit for bit at
  // every block size, SIMD setting and pool size (1100 block rows: five
  // chunks of the kernel's 256-row grain). Float storage promotes each
  // entry on load, so it equals the double kernel on the widened values.
  auto m = mesh::generate_box_mesh(10, 9, 9);
  auto s = sparse::stencil_from_mesh(m);
  simcache::NullTracer tracer;
  for (int nb = 1; nb <= dense::kMaxBlockSize; ++nb) {
    const auto a = sparse::build_bcsr(s, nb, sparse::synthetic_values(s, nb));
    const auto af = a.convert<float>();
    const auto afd = af.convert<double>();
    Rng rng(nb);
    std::vector<double> x(static_cast<std::size_t>(a.scalar_n()));
    for (auto& v : x) v = rng.uniform(-1, 1);
    const std::size_t bytes = x.size() * sizeof(double);
    for (bool on : {true, false}) {
      simd::EnabledScope simd_scope(on);
      std::vector<double> ref(x.size());
      simcache::traced_spmv_bcsr(a, x.data(), ref.data(), tracer);
      for (int threads : {1, 2, 4}) {
        exec::ThreadScope pool_scope(threads);
        std::vector<double> y(x.size()), yf(x.size()), yfd(x.size());
        a.spmv(x.data(), y.data());
        af.spmv(x.data(), yf.data());
        afd.spmv(x.data(), yfd.data());
        EXPECT_EQ(std::memcmp(y.data(), ref.data(), bytes), 0)
            << "nb=" << nb << " simd=" << on << " threads=" << threads;
        EXPECT_EQ(std::memcmp(yf.data(), yfd.data(), bytes), 0)
            << "float storage, nb=" << nb << " simd=" << on
            << " threads=" << threads;
      }
    }
  }
}

TEST(SpmvDispatch, FixedTemplateDirectCall) {
  // The nb = 5 instantiation (the compressible block size) against a plain
  // loop that shares no dot helper with the kernel. Integer entries and
  // x = 1 make every row sum exact, so no summation order (SIMD lanes or
  // scalar) can move a bit.
  constexpr int nb = 5;
  auto m = mesh::generate_box_mesh(2, 2, 2);
  auto s = sparse::stencil_from_mesh(m);
  const auto a = sparse::build_bcsr(s, nb, [](int i, int j, int n, double* b) {
    for (int k = 0; k < n * n; ++k) b[k] = (i + 2 * j + k) % 7 - 3;
  });
  std::vector<double> x(static_cast<std::size_t>(a.scalar_n()), 1.0);
  std::vector<double> ref(x.size(), 0.0);
  for (int i = 0; i < a.nrows; ++i)
    for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
      for (int r = 0; r < nb; ++r)
        for (int c = 0; c < nb; ++c)
          ref[static_cast<std::size_t>(i) * nb + r] +=
              a.val[(static_cast<std::size_t>(p) * nb + r) * nb + c];
  for (bool on : {true, false}) {
    simd::EnabledScope simd_scope(on);
    std::vector<double> y(x.size());
    a.spmv(x.data(), y.data());
    EXPECT_EQ(y, ref) << "simd=" << on;
  }
}

TEST(SpmvDispatch, BlockSizeAboveEightThrows) {
  // Two 9x9 diagonal blocks: above dense::kMaxBlockSize, so the format
  // check and both SpMV kernels refuse them instead of overrunning their
  // per-row accumulators. The largest size, 8, still runs.
  auto block_diagonal = [](int nb) {
    sparse::Bcsr<double> a;
    a.nb = nb;
    a.nrows = 2;
    a.ptr = {0, 1, 2};
    a.col = {0, 1};
    a.val.assign(2 * static_cast<std::size_t>(nb) * nb, 1.0);
    return a;
  };
  const auto a9 = block_diagonal(dense::kMaxBlockSize + 1);
  std::vector<double> x(static_cast<std::size_t>(a9.scalar_n()), 1.0);
  std::vector<double> y(x.size());
  simcache::NullTracer tracer;
  EXPECT_THROW(a9.check(), Error);
  EXPECT_THROW(a9.spmv(x.data(), y.data()), Error);
  EXPECT_THROW(simcache::traced_spmv_bcsr(a9, x.data(), y.data(), tracer),
               Error);

  const auto a8 = block_diagonal(dense::kMaxBlockSize);
  EXPECT_NO_THROW(a8.check());
  std::vector<double> x8(static_cast<std::size_t>(a8.scalar_n()), 1.0);
  std::vector<double> y8(x8.size()), t8(x8.size());
  a8.spmv(x8.data(), y8.data());
  simcache::traced_spmv_bcsr(a8, x8.data(), t8.data(), tracer);
  for (std::size_t i = 0; i < y8.size(); ++i) {
    EXPECT_EQ(y8[i], dense::kMaxBlockSize);
    EXPECT_EQ(t8[i], y8[i]);
  }
}

TEST(Conversion, CsrFloatRoundTripAccuracy) {
  auto m = mesh::generate_box_mesh(3, 2, 2);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  auto a = sparse::build_point_csr(s, 3, fn, sparse::FieldLayout::kInterlaced);
  auto af = a.convert<float>();
  auto back = af.convert<double>();
  EXPECT_EQ(a.ptr, back.ptr);
  EXPECT_EQ(a.col, back.col);
  for (std::size_t i = 0; i < a.val.size(); ++i)
    EXPECT_NEAR(a.val[i], back.val[i], 1e-6 * (1 + std::abs(a.val[i])));
}

TEST(Stencil, SingleTetIsFullyCoupled) {
  std::vector<std::array<double, 3>> coords = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<int, 4>> tets = {{0, 1, 2, 3}};
  mesh::UnstructuredMesh m(std::move(coords), std::move(tets), {});
  m.finalize();
  auto s = sparse::stencil_from_mesh(m);
  EXPECT_EQ(s.n, 4);
  EXPECT_EQ(s.nnz(), 16u);  // dense 4x4 coupling
}

TEST(SyntheticValues, DeterministicAndSeedSensitive) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  auto s = sparse::stencil_from_mesh(m);
  auto f1 = sparse::synthetic_values(s, 1);
  auto f2 = sparse::synthetic_values(s, 1);
  auto f3 = sparse::synthetic_values(s, 2);
  double b1[16], b2[16], b3[16];
  f1(0, 1, 4, b1);
  f2(0, 1, 4, b2);
  f3(0, 1, 4, b3);
  bool same12 = true, same13 = true;
  for (int i = 0; i < 16; ++i) {
    same12 &= b1[i] == b2[i];
    same13 &= b1[i] == b3[i];
  }
  EXPECT_TRUE(same12);
  EXPECT_FALSE(same13);
}

TEST(SyntheticValues, DiagonallyDominant) {
  auto m = mesh::generate_box_mesh(3, 3, 3);
  auto s = sparse::stencil_from_mesh(m);
  auto fn = sparse::synthetic_values(s);
  // Scalar-level weak dominance check on the point matrix.
  auto p = sparse::build_point_csr(s, 4, fn, sparse::FieldLayout::kInterlaced);
  for (int i = 0; i < p.n; ++i) {
    double diag = 0, off = 0;
    for (int q = p.ptr[i]; q < p.ptr[i + 1]; ++q) {
      if (p.col[q] == i)
        diag = std::abs(p.val[q]);
      else
        off += std::abs(p.val[q]);
    }
    EXPECT_GT(diag, off) << "row " << i;
  }
}

}  // namespace
