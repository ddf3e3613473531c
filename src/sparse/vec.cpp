#include "sparse/vec.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "exec/pool.hpp"
#include "exec/reduce.hpp"

namespace f3d::sparse {

namespace {
// Elements per parallel_for chunk for the elementwise kernels; small
// vectors run inline with zero synchronization.
constexpr std::int64_t kVecGrain = 8192;

// The elementwise kernels vectorize 4 lanes at a time with the identical
// per-element arithmetic (no reassociation), so the SIMD paths here are
// bit-identical to the scalar loops — unlike the reductions, there is no
// per-configuration rounding caveat for axpy/scale.
}  // namespace

double dot(const Vec& x, const Vec& y) {
  F3D_CHECK(x.size() == y.size());
  // Fixed-block tree reduction: bit-identical for any thread count (the
  // Krylov solvers' determinism hinges on this — see exec/reduce.hpp).
  return exec::dot(static_cast<std::int64_t>(x.size()), x.data(), y.data());
}

double norm2(const Vec& x) { return std::sqrt(dot(x, x)); }

void axpy(double a, const Vec& x, Vec& y) {
  F3D_CHECK(x.size() == y.size());
  const bool use_simd = simd::enabled();
  exec::pool().parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&, use_simd](std::int64_t lo, std::int64_t hi) {
        std::int64_t i = lo;
        if (use_simd) {
          const simd::Vd va = simd::Vd::broadcast(a);
          for (; i + simd::kDoubleLanes <= hi; i += simd::kDoubleLanes)
            (simd::Vd::loadu(&y[i]) + va * simd::Vd::loadu(&x[i]))
                .storeu(&y[i]);
        }
        for (; i < hi; ++i) y[i] += a * x[i];
      },
      kVecGrain);
}

void scale(Vec& x, double a) {
  const bool use_simd = simd::enabled();
  exec::pool().parallel_for(
      0, static_cast<std::int64_t>(x.size()),
      [&, use_simd](std::int64_t lo, std::int64_t hi) {
        std::int64_t i = lo;
        if (use_simd) {
          const simd::Vd va = simd::Vd::broadcast(a);
          for (; i + simd::kDoubleLanes <= hi; i += simd::kDoubleLanes)
            (va * simd::Vd::loadu(&x[i])).storeu(&x[i]);
        }
        for (; i < hi; ++i) x[i] *= a;
      },
      kVecGrain);
}

}  // namespace f3d::sparse
