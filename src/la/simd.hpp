#pragma once

/// SIMD backends for the kernel engine. la/engine.cpp is compiled once per
/// rung (la/engine.hpp) and names its backend with NADMM_RUNG_VECTOR:
///
///   Scalar   1 lane, plain double      every target
///   Sse2     2 lanes, __m128d          x86-64 baseline
///   Avx2     4 lanes, __m256d          needs __AVX2__
///   Avx512   8 lanes, __m512d          needs __AVX512F__
///
/// The contract every backend obeys: a lane is an *independent output
/// element*. Kernels vectorize only across independent outputs (the
/// column/class dimension), never across a reduction, and no backend
/// ever fuses a multiply-add — `mul` then `add` are separate rounding
/// steps, exactly like the scalar engine. Together those two rules make
/// every backend bit-identical to the scalar path per element, which is
/// what keeps the committed sweep/figure artifacts byte-stable while
/// the instruction mix underneath changes. (The build also pins
/// `-ffp-contract=off` so the compiler cannot re-fuse what we split.)
///
/// Everything here has internal linkage: each rung object gets its own
/// copy, compiled for its own ISA, that no other object can link to.
///
/// Helpers at the bottom (`scale`, `add_inplace`, `combine`, `axpy`)
/// are the shared elementwise loops: vector body plus a scalar tail
/// whose per-element expression trees match the vector lanes exactly.

#include <cstddef>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace nadmm::la::simd {
namespace {

/// 1-lane backend; also the reference semantics every other backend
/// must reproduce bitwise.
struct Scalar {
  static constexpr std::size_t width = 1;
  double v;
  static Scalar load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static Scalar broadcast(double x) { return {x}; }
  static Scalar zero() { return {0.0}; }
  friend Scalar operator+(Scalar a, Scalar b) { return {a.v + b.v}; }
  friend Scalar operator*(Scalar a, Scalar b) { return {a.v * b.v}; }
};

#if defined(__SSE2__)
struct Sse2 {
  static constexpr std::size_t width = 2;
  __m128d v;
  static Sse2 load(const double* p) { return {_mm_loadu_pd(p)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  static Sse2 broadcast(double x) { return {_mm_set1_pd(x)}; }
  static Sse2 zero() { return {_mm_setzero_pd()}; }
  friend Sse2 operator+(Sse2 a, Sse2 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Sse2 operator*(Sse2 a, Sse2 b) { return {_mm_mul_pd(a.v, b.v)}; }
};
#endif

#if defined(__AVX2__)
struct Avx2 {
  static constexpr std::size_t width = 4;
  __m256d v;
  static Avx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static Avx2 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2 zero() { return {_mm256_setzero_pd()}; }
  friend Avx2 operator+(Avx2 a, Avx2 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Avx2 operator*(Avx2 a, Avx2 b) { return {_mm256_mul_pd(a.v, b.v)}; }
};
#endif

#if defined(__AVX512F__)
struct Avx512 {
  static constexpr std::size_t width = 8;
  __m512d v;
  static Avx512 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static Avx512 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static Avx512 zero() { return {_mm512_setzero_pd()}; }
  friend Avx512 operator+(Avx512 a, Avx512 b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend Avx512 operator*(Avx512 a, Avx512 b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
};
#endif

/// Hint the cache that `p` will be read soon (read, low temporal
/// locality is wrong here — gathered rows are reused across classes, so
/// default locality). No-op where unsupported.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// ---------------------------------------------------------------------------
// Shared elementwise loops. Each runs the vector body over full lanes and a
// scalar tail; both use the same per-element expression tree, so the result
// is bit-identical to a pure scalar loop for every V.

/// p[i] *= s
template <class V>
inline void scale(double s, double* p, std::size_t n) {
  const V sv = V::broadcast(s);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    (V::load(p + i) * sv).store(p + i);
  }
  for (; i < n; ++i) p[i] *= s;
}

/// acc[i] += src[i]
template <class V>
inline void add_inplace(double* acc, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    (V::load(acc + i) + V::load(src + i)).store(acc + i);
  }
  for (; i < n; ++i) acc[i] += src[i];
}

/// y[i] += a * x[i]
template <class V>
inline void axpy(double a, const double* x, double* y, std::size_t n) {
  const V av = V::broadcast(a);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    (V::load(y + i) + av * V::load(x + i)).store(y + i);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

/// The engine's epilogue: out = beta * out + alpha * acc, with the same
/// beta == 0 / beta == 1 special cases (and expression trees) the scalar
/// fold has always used.
template <class V>
inline void combine(double alpha, double beta, double* out, const double* acc,
                    std::size_t n) {
  const V av = V::broadcast(alpha);
  std::size_t i = 0;
  if (beta == 0.0) {
    for (; i + V::width <= n; i += V::width) {
      (av * V::load(acc + i)).store(out + i);
    }
    for (; i < n; ++i) out[i] = alpha * acc[i];
  } else if (beta == 1.0) {
    for (; i + V::width <= n; i += V::width) {
      (V::load(out + i) + av * V::load(acc + i)).store(out + i);
    }
    for (; i < n; ++i) out[i] += alpha * acc[i];
  } else {
    const V bv = V::broadcast(beta);
    for (; i + V::width <= n; i += V::width) {
      (bv * V::load(out + i) + av * V::load(acc + i)).store(out + i);
    }
    for (; i < n; ++i) out[i] = beta * out[i] + alpha * acc[i];
  }
}

}  // namespace
}  // namespace nadmm::la::simd
