#pragma once
// Deterministic parallel reductions. The naive parallel dot product sums
// each thread's range and combines in completion order — its rounding
// depends on the thread count and on scheduling, which would break the
// resilience subsystem's bit-identical checkpoint/replay guarantee the
// moment the Krylov solvers go parallel.
//
// These reductions instead split the vector into FIXED-width blocks
// (kReduceBlock elements, independent of the thread count), sum each
// block serially, and combine the block partials with a fixed-order
// pairwise tree. Threads only decide WHICH thread computes a block, never
// the arithmetic — the result is bit-identical for any thread count,
// including 1. The tree combine also carries ~log2(n/block) fewer
// rounding steps than a running sum, so accuracy slightly improves over
// the old serial kernels.

#include <cstdint>

namespace f3d::exec {

/// Fixed reduction block width (elements). Part of the numerical contract:
/// changing it changes rounding (consistently for every thread count).
/// When the SIMD build is enabled, each block is additionally strip-mined
/// into simd::kDoubleLanes-wide packs with a fixed pairwise lane combine —
/// also data-position based, so the thread-count invariance is unchanged;
/// only the scalar-vs-SIMD *configurations* round differently.
inline constexpr std::int64_t kReduceBlock = 4096;

/// sum_i x[i] * y[i], fixed-block tree order.
double dot(std::int64_t n, const double* x, const double* y);

/// sum_i x[i], fixed-block tree order.
double sum(std::int64_t n, const double* x);

}  // namespace f3d::exec
