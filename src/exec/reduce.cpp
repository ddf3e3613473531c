#include "exec/reduce.hpp"

#include <algorithm>
#include <vector>

#include "common/simd.hpp"
#include "exec/pool.hpp"

namespace f3d::exec {

namespace {

// Combine block partials pairwise in a fixed order: (0,1), (2,3), ... per
// round, odd tail carried. Serial — the partial count is n/kReduceBlock,
// negligible next to the block sums.
double tree_combine(std::vector<double>& p) {
  std::int64_t m = static_cast<std::int64_t>(p.size());
  while (m > 1) {
    std::int64_t k = 0;
    for (std::int64_t i = 0; i + 1 < m; i += 2) p[k++] = p[i] + p[i + 1];
    if (m % 2) p[k++] = p[m - 1];
    m = k;
  }
  return m == 1 ? p[0] : 0.0;
}

template <class BlockSum>
double blocked_reduce(std::int64_t n, const BlockSum& block_sum) {
  if (n <= 0) return 0.0;
  if (n <= kReduceBlock) return block_sum(0, n);
  const std::int64_t nblk = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partial(nblk);
  pool().parallel_for(
      0, nblk,
      [&](std::int64_t blo, std::int64_t bhi) {
        for (std::int64_t b = blo; b < bhi; ++b) {
          const std::int64_t lo = b * kReduceBlock;
          const std::int64_t hi = std::min(n, lo + kReduceBlock);
          partial[b] = block_sum(lo, hi);
        }
      },
      /*grain=*/1);
  return tree_combine(partial);
}

}  // namespace

// The SIMD block sums strip-mine each fixed 4096-element block into
// 4-lane packs with a fixed pairwise lane combine, then an in-order
// scalar tail. Block boundaries are data-position based, so like the
// scalar path the result is bit-identical at any thread count; rounding
// differs only between the scalar and SIMD *configurations*.

double dot(std::int64_t n, const double* x, const double* y) {
  if (simd::enabled()) {
    return blocked_reduce(n, [&](std::int64_t lo, std::int64_t hi) {
      simd::Vd acc = simd::Vd::zero();
      std::int64_t i = lo;
      for (; i + simd::kDoubleLanes <= hi; i += simd::kDoubleLanes)
        acc += simd::Vd::loadu(x + i) * simd::Vd::loadu(y + i);
      double s = acc.hsum();
      for (; i < hi; ++i) s += x[i] * y[i];
      return s;
    });
  }
  return blocked_reduce(n, [&](std::int64_t lo, std::int64_t hi) {
    double s = 0;
    for (std::int64_t i = lo; i < hi; ++i) s += x[i] * y[i];
    return s;
  });
}

double sum(std::int64_t n, const double* x) {
  if (simd::enabled()) {
    return blocked_reduce(n, [&](std::int64_t lo, std::int64_t hi) {
      simd::Vd acc = simd::Vd::zero();
      std::int64_t i = lo;
      for (; i + simd::kDoubleLanes <= hi; i += simd::kDoubleLanes)
        acc += simd::Vd::loadu(x + i);
      double s = acc.hsum();
      for (; i < hi; ++i) s += x[i];
      return s;
    });
  }
  return blocked_reduce(n, [&](std::int64_t lo, std::int64_t hi) {
    double s = 0;
    for (std::int64_t i = lo; i < hi; ++i) s += x[i];
    return s;
  });
}

}  // namespace f3d::exec
