#pragma once

/// SIMD backends for the kernel engine. la/engine.cpp is compiled once per
/// rung (la/engine.hpp) and names its backend with NADMM_RUNG_VECTOR:
///
///   Scalar   1 lane, plain double      every target
///   Avx2     4 lanes, __m256d          needs __AVX2__ and __FMA__
///   Avx512   8 lanes, __m512d          needs __AVX512F__
///
/// The contract every backend obeys: a lane is an *independent output
/// element*. Kernels vectorize only across independent outputs, never
/// across a reduction, and every term of a product chain is one fused
/// multiply-add, `fma(a, b, c)` = a·b + c rounded once: the FMA
/// instruction on the avx2/avx512 rungs, `std::fma` on the scalar one.
/// IEEE fma has one correctly rounded result, so together those two
/// rules make every backend bit-identical to the scalar path per
/// element, which is what keeps the committed
/// sweep/figure artifacts byte-stable across ISAs while the instruction
/// mix underneath changes. Outside `fma` a `*` and a `+` stay two
/// roundings: the build pins `-ffp-contract=off`, so the compiler fuses
/// nothing the kernels did not ask for. Which outputs share a vector
/// is the kernel's choice: class columns (gemm_nn strips, the sparse
/// products), features (gemm_tn) or rows (gemm_nn's leftover
/// classes, whose A tile `transpose` turns into one vector per
/// k-column). Moving an element to another lane leaves its expression
/// tree alone.
///
/// A row whose length is not a lane multiple ends in a partial vector:
/// `load_first(p, k)` / `store_first(p, k)` touch only the first k lanes
/// (1 ≤ k ≤ width) at p, so a row's last vector never reads or writes
/// past its end. The other lanes load as +0.0 and whatever they compute
/// is never stored.
///
/// Everything here has internal linkage: each rung object gets its own
/// copy, compiled for its own ISA, that no other object can link to.

#include <cmath>
#include <cstddef>

#if defined(__AVX2__) || defined(__AVX512F__)
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
  static Scalar load_first(const double* p, std::size_t) { return {*p}; }
  void store_first(double* p, std::size_t) const { *p = v; }
  static Scalar broadcast(double x) { return {x}; }
  static Scalar zero() { return {0.0}; }
  friend Scalar operator+(Scalar a, Scalar b) { return {a.v + b.v}; }
  friend Scalar operator*(Scalar a, Scalar b) { return {a.v * b.v}; }
  /// a·b + c, rounded once.
  static Scalar fma(Scalar a, Scalar b, Scalar c) {
    return {std::fma(a.v, b.v, c.v)};
  }
  /// Rows of a width×width tile in, its columns out: lane j of r[i]
  /// moves to lane i of r[j]. Pure data movement.
  static void transpose(Scalar (&)[1]) {}
};

#if defined(__AVX2__) && defined(__FMA__)
struct Avx2 {
  static constexpr std::size_t width = 4;
  __m256d v;
  static Avx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  /// Lanes below k: the sign bit of each 64-bit mask element.
  static __m256i first(std::size_t k) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(k)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Avx2 load_first(const double* p, std::size_t k) {
    return {_mm256_maskload_pd(p, first(k))};
  }
  void store_first(double* p, std::size_t k) const {
    _mm256_maskstore_pd(p, first(k), v);
  }
  static Avx2 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2 zero() { return {_mm256_setzero_pd()}; }
  friend Avx2 operator+(Avx2 a, Avx2 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Avx2 operator*(Avx2 a, Avx2 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static Avx2 fma(Avx2 a, Avx2 b, Avx2 c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  static void transpose(Avx2 (&r)[4]) {
    // Pairs of rows interleave within 128-bit halves, then the halves swap.
    const __m256d t0 = _mm256_unpacklo_pd(r[0].v, r[1].v);
    const __m256d t1 = _mm256_unpackhi_pd(r[0].v, r[1].v);
    const __m256d t2 = _mm256_unpacklo_pd(r[2].v, r[3].v);
    const __m256d t3 = _mm256_unpackhi_pd(r[2].v, r[3].v);
    r[0].v = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1].v = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2].v = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3].v = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};
#endif

#if defined(__AVX512F__)
struct Avx512 {
  static constexpr std::size_t width = 8;
  __m512d v;
  static Avx512 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static __mmask8 first(std::size_t k) {
    return static_cast<__mmask8>((1U << k) - 1U);
  }
  static Avx512 load_first(const double* p, std::size_t k) {
    return {_mm512_maskz_loadu_pd(first(k), p)};
  }
  void store_first(double* p, std::size_t k) const {
    _mm512_mask_storeu_pd(p, first(k), v);
  }
  static Avx512 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static Avx512 zero() { return {_mm512_setzero_pd()}; }
  friend Avx512 operator+(Avx512 a, Avx512 b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend Avx512 operator*(Avx512 a, Avx512 b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  static Avx512 fma(Avx512 a, Avx512 b, Avx512 c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  static void transpose(Avx512 (&r)[8]) {
    // Rows interleave in pairs within 128-bit lanes (t), the lanes of row
    // pairs then gather into rows-0..3 / rows-4..7 halves (u), and a last
    // lane shuffle joins the halves into columns. The full-mask maskz
    // forms are the plain instructions; GCC 12's unmasked intrinsics
    // trip -Wmaybe-uninitialized on their undefined merge source.
    constexpr __mmask8 kAll = 0xFF;
    __m512d t[8];
    for (int p = 0; p < 4; ++p) {
      t[2 * p] = _mm512_maskz_unpacklo_pd(kAll, r[2 * p].v, r[2 * p + 1].v);
      t[2 * p + 1] =
          _mm512_maskz_unpackhi_pd(kAll, r[2 * p].v, r[2 * p + 1].v);
    }
    constexpr int kEven = _MM_SHUFFLE(2, 0, 2, 0);
    constexpr int kOdd = _MM_SHUFFLE(3, 1, 3, 1);
    __m512d u[8];
    for (int h = 0; h < 2; ++h) {
      const __m512d* th = t + 4 * h;
      // Columns 0/4, 2/6, 1/5 and 3/7 of rows 4h..4h+3.
      u[4 * h + 0] = _mm512_maskz_shuffle_f64x2(kAll, th[0], th[2], kEven);
      u[4 * h + 1] = _mm512_maskz_shuffle_f64x2(kAll, th[0], th[2], kOdd);
      u[4 * h + 2] = _mm512_maskz_shuffle_f64x2(kAll, th[1], th[3], kEven);
      u[4 * h + 3] = _mm512_maskz_shuffle_f64x2(kAll, th[1], th[3], kOdd);
    }
    constexpr int kCol[4] = {0, 2, 1, 3};
    for (int q = 0; q < 4; ++q) {
      r[kCol[q]].v = _mm512_maskz_shuffle_f64x2(kAll, u[q], u[4 + q], kEven);
      r[kCol[q] + 4].v = _mm512_maskz_shuffle_f64x2(kAll, u[q], u[4 + q], kOdd);
    }
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

/// out = beta * out + alpha * acc for one element, with the beta == 0 /
/// beta == 1 special cases (and expression trees) the scalar fold has
/// always used.
inline void combine_one(double alpha, double beta, double& out, double acc) {
  if (beta == 0.0) {
    out = alpha * acc;
  } else if (beta == 1.0) {
    out += alpha * acc;
  } else {
    out = beta * out + alpha * acc;
  }
}

}  // namespace
}  // namespace nadmm::la::simd
