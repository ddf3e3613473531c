#pragma once
// f3d::simd — a small portable SIMD layer for the hot kernels: fixed
// 4-lane double packs over GCC/Clang vector extensions, with a scalar
// fallback that performs the identical lane-wise arithmetic when the
// build disables vectorization (F3D_SIMD=OFF).
//
// Precision policy (see DESIGN.md "SIMD + precision"): packs always hold
// *doubles*; loading from a float pointer promotes each lane to double
// before any arithmetic. This is the storage-precision/accumulate-
// precision split of the paper's Table 2 — float cuts the memory traffic,
// double keeps the arithmetic — and routing every promoted load through
// Vd::loadu(const float*) keeps the promote-to-double contract in one
// place.
//
// Determinism contract: within one (isa, precision) build configuration
// every pack operation is IEEE per-lane with a fixed lane order, and
// hsum() combines lanes in a fixed pairwise tree ((l0+l1)+(l2+l3)) — so
// any kernel built from these packs gives bit-identical results at any
// thread count, exactly like the scalar kernels. Across configurations
// (SIMD on/off, different summation strip widths) rounding may differ;
// the bitwise-identity guarantees are per-configuration by design.
//
// Runtime toggle: kernels branch on simd::enabled() once per call, so a
// single binary can run its scalar and SIMD variants back to back (the
// bench_simd A/B series). In an F3D_SIMD=OFF build enabled() is pinned
// false — the scalar-fallback CI lane exercises the plain loops only.

#include <atomic>
#include <cstring>

namespace f3d::simd {

#if defined(F3D_SIMD_VEC) && (defined(__GNUC__) || defined(__clang__))
#define F3D_SIMD_HAVE_VEC 1
#else
#define F3D_SIMD_HAVE_VEC 0
#endif

/// Lanes per double pack. Fixed at 4 (one 256-bit register, or a pair of
/// 128-bit ops on narrower hardware — the compiler splits as needed);
/// part of the per-configuration numerical contract like
/// exec::kReduceBlock.
inline constexpr int kDoubleLanes = 4;

/// True when the build compiled the vector-extension backend.
[[nodiscard]] constexpr bool compiled() { return F3D_SIMD_HAVE_VEC == 1; }

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{compiled()};
  return flag;
}
}  // namespace detail

/// Process-wide dispatch switch consulted once per kernel call. Defaults
/// to the compiled setting; set_enabled(false) forces the scalar kernels
/// (the bench A/B baseline). Cannot enable what was not compiled.
[[nodiscard]] inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on && compiled(), std::memory_order_relaxed);
}

/// RAII scope for the A/B benches and the identity tests.
class EnabledScope {
public:
  explicit EnabledScope(bool on) : prev_(enabled()) { set_enabled(on); }
  ~EnabledScope() { set_enabled(prev_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

private:
  bool prev_;
};

/// Best compile-time ISA name (for BENCH_*.json meta.host_isa).
[[nodiscard]] inline const char* isa_name() {
#if !F3D_SIMD_HAVE_VEC
  return "scalar";
#elif defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(_M_X64)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

[[nodiscard]] inline const char* target_arch() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

/// Lanes the dispatched kernels actually use right now.
[[nodiscard]] inline int double_lanes() { return enabled() ? kDoubleLanes : 1; }

/// Four doubles. All loads are memcpy-based (UBSan-clean on unaligned
/// addresses); loading from float promotes per lane — the one place
/// storage scalars widen to the accumulate precision.
struct Vd {
#if F3D_SIMD_HAVE_VEC
  typedef double Raw __attribute__((vector_size(kDoubleLanes * sizeof(double))));
  Raw r;
#else
  double r[kDoubleLanes];
#endif

  static Vd zero() {
    Vd v;
#if F3D_SIMD_HAVE_VEC
    v.r = Raw{0.0, 0.0, 0.0, 0.0};
#else
    for (double& x : v.r) x = 0.0;
#endif
    return v;
  }

  static Vd broadcast(double a) {
    Vd v;
#if F3D_SIMD_HAVE_VEC
    v.r = Raw{a, a, a, a};
#else
    for (double& x : v.r) x = a;
#endif
    return v;
  }

  static Vd loadu(const double* p) {
    Vd v;
    std::memcpy(&v.r, p, kDoubleLanes * sizeof(double));
    return v;
  }

  /// Promoting load: four stored floats widen to four double lanes.
  static Vd loadu(const float* p) {
    float f[kDoubleLanes];
    std::memcpy(f, p, kDoubleLanes * sizeof(float));
    Vd v;
#if F3D_SIMD_HAVE_VEC
    v.r = Raw{static_cast<double>(f[0]), static_cast<double>(f[1]),
              static_cast<double>(f[2]), static_cast<double>(f[3])};
#else
    for (int i = 0; i < kDoubleLanes; ++i) v.r[i] = static_cast<double>(f[i]);
#endif
    return v;
  }

  /// Gather four doubles through 32-bit indices (SpMV column access).
  static Vd gather(const double* base, const int* idx) {
    Vd v;
#if F3D_SIMD_HAVE_VEC
    v.r = Raw{base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]};
#else
    for (int i = 0; i < kDoubleLanes; ++i) v.r[i] = base[idx[i]];
#endif
    return v;
  }

  void storeu(double* p) const {
    std::memcpy(p, &r, kDoubleLanes * sizeof(double));
  }

  [[nodiscard]] double lane(int i) const {
#if F3D_SIMD_HAVE_VEC
    return r[i];
#else
    return r[i];
#endif
  }

  /// Fixed pairwise combine: (l0 + l1) + (l2 + l3). Part of the
  /// per-configuration determinism contract.
  [[nodiscard]] double hsum() const {
    return (lane(0) + lane(1)) + (lane(2) + lane(3));
  }

  Vd& operator+=(const Vd& o) {
#if F3D_SIMD_HAVE_VEC
    r += o.r;
#else
    for (int i = 0; i < kDoubleLanes; ++i) r[i] += o.r[i];
#endif
    return *this;
  }
  Vd& operator-=(const Vd& o) {
#if F3D_SIMD_HAVE_VEC
    r -= o.r;
#else
    for (int i = 0; i < kDoubleLanes; ++i) r[i] -= o.r[i];
#endif
    return *this;
  }
  Vd& operator*=(const Vd& o) {
#if F3D_SIMD_HAVE_VEC
    r *= o.r;
#else
    for (int i = 0; i < kDoubleLanes; ++i) r[i] *= o.r[i];
#endif
    return *this;
  }

  friend Vd operator+(Vd a, const Vd& b) { return a += b; }
  friend Vd operator-(Vd a, const Vd& b) { return a -= b; }
  friend Vd operator*(Vd a, const Vd& b) { return a *= b; }
};

/// Four hsum()s at once: lane r of the result is the r-th argument's
/// hsum(), by the same fixed tree (l0 + l1) + (l2 + l3), so it equals four
/// hsum() calls bit for bit (the four row products of a 4x4 block).
[[nodiscard]] inline Vd hsum4(const Vd& a, const Vd& b, const Vd& c,
                              const Vd& d) {
  Vd out;
#if F3D_SIMD_HAVE_VEC && (defined(__clang__) || __GNUC__ >= 12)
  // Pair lanes (0, 1) and (2, 3) of a with b and of c with d, then add
  // the pair sums of lanes 0/1 to those of lanes 2/3.
  const Vd::Raw ab = __builtin_shufflevector(a.r, b.r, 0, 4, 2, 6) +
                     __builtin_shufflevector(a.r, b.r, 1, 5, 3, 7);
  const Vd::Raw cd = __builtin_shufflevector(c.r, d.r, 0, 4, 2, 6) +
                     __builtin_shufflevector(c.r, d.r, 1, 5, 3, 7);
  out.r = __builtin_shufflevector(ab, cd, 0, 1, 4, 5) +
          __builtin_shufflevector(ab, cd, 2, 3, 6, 7);
#else
  const Vd* packs[kDoubleLanes] = {&a, &b, &c, &d};
  for (int i = 0; i < kDoubleLanes; ++i) out.r[i] = packs[i]->hsum();
#endif
  return out;
}

}  // namespace f3d::simd
