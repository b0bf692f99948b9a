// The kernel engine's loops, compiled once per SIMD rung (la/engine.hpp).
// NADMM_RUNG names the rung's namespace and NADMM_RUNG_VECTOR its backend
// in la/simd.hpp; both come from CMakeLists.txt (nadmm_add_rung).
//
// Everything below except <rung>::rung() has internal linkage, and the
// code calls nothing defined in a header outside this file and simd.hpp:
// no std:: algorithm or container, no nadmm class member. See the note in
// la/engine.hpp on why a rung object must not emit such code.
//
// No kernel reduces across threads: every output element is produced by
// one thread in an order fixed by the shape alone, so every kernel is
// bit-identical at any thread count. gemm_nn and the sparse products
// split output rows, and gemm_tn splits features in whole cache lines.
#include "la/engine.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <new>

#include "la/simd.hpp"

#if !defined(NADMM_RUNG) || !defined(NADMM_RUNG_VECTOR)
#error "la/engine.cpp is compiled per rung with NADMM_RUNG and NADMM_RUNG_VECTOR"
#endif

#define NADMM_RUNG_STR2(x) #x
#define NADMM_RUNG_STR(x) NADMM_RUNG_STR2(x)

namespace nadmm::la::kernels::NADMM_RUNG {

namespace {

using Lanes = simd::NADMM_RUNG_VECTOR;

// gemm_nn strip tile: kMR rows of A against a kNR-wide packed strip of B.
// The 8-lane rung's strip is one vector, so it takes 8 rows to keep 8
// independent add chains in flight; narrower rungs have several vectors
// per strip row and keep 4.
constexpr std::size_t kNR = 8;
template <class V>
constexpr std::size_t kMR = V::width == kNR ? 8 : 4;

// The sparse products keep up to kRowVecs vectors of one output row in
// registers while they walk that row's entries: kRowVecs accumulators,
// the broadcast value and a B load fit the 16 vector registers of the
// avx2 rung. Wider rows run in chunks of kRowVecs vectors.
constexpr std::size_t kRowVecs = 8;

// How many entries ahead of the sparse row cursor to prefetch the B row
// for. Index-driven rows of B are the one access pattern the hardware
// prefetcher cannot predict; 8 entries is far enough to cover a memory
// latency at the row loop's per-entry cost on the E18 shapes.
constexpr std::int64_t kPrefetchAhead = 8;

// Doubles per 64-byte cache line.
constexpr std::size_t kLineDoubles = 8;

std::size_t min_of(std::size_t a, std::size_t b) { return a < b ? a : b; }

void zero(double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = 0.0;
}

/// First element of the ascending range [first, last) not less than v.
template <class T>
const T* lower_bound(const T* first, const T* last, T v) {
  std::ptrdiff_t count = last - first;
  while (count > 0) {
    const std::ptrdiff_t half = count / 2;
    if (first[half] < v) {
      first += half + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  return first;
}

/// Threads an OpenMP region started here would get.
std::size_t max_threads() {
#ifdef _OPENMP
  return static_cast<std::size_t>(omp_get_max_threads());
#else
  return 1;
#endif
}

/// body(i) for every i in [0, count). Below the parallel threshold the
/// loop runs on the calling thread and never enters the OpenMP runtime:
/// even a one-thread team pays for a region, and every serving-size
/// product is that small. In parallel, Chunk 0 gives each thread one
/// static block of indices (the same one every call, so pages a thread
/// first-touched stay its own); Chunk > 0 hands out Chunk at a time.
template <std::size_t Chunk, class F>
void for_each_index(bool parallel, std::size_t count, F&& body) {
  const auto n = static_cast<std::ptrdiff_t>(count);
  if (!parallel) {
    for (std::size_t i = 0; i < count; ++i) body(i);
  } else if constexpr (Chunk == 0) {
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < n; ++i) body(static_cast<std::size_t>(i));
  } else {
#pragma omp parallel for schedule(dynamic, Chunk)
    for (std::ptrdiff_t i = 0; i < n; ++i) body(static_cast<std::size_t>(i));
  }
}

struct Range {
  std::size_t lo;
  std::size_t hi;
};

/// Static slice t of `count` elements among `team` threads.
Range slice(std::size_t count, std::size_t t, std::size_t team) {
  return {count * t / team, count * (t + 1) / team};
}

/// Grow-only, 64-byte-aligned, *uninitialized* per-thread buffer backing
/// the packed panels and the gemm_tn workspace. The kernels run every CG
/// iteration, so steady-state calls must never touch the allocator; the
/// allocation deliberately leaves pages untouched, which is the NUMA
/// first-touch half of the contract: each team thread zero-fills only
/// its own feature columns of the gemm_tn workspace inside the parallel
/// region, so on multi-socket hosts those pages land on the node of the
/// thread that accumulates into them.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  ~AlignedBuffer() { release(); }

  double* ensure(std::size_t elems) {
    if (cap_ < elems) {
      release();
      data_ = static_cast<double*>(
          ::operator new(elems * sizeof(double), std::align_val_t{64}));
      cap_ = elems;
    }
    return data_;
  }

 private:
  void release() {
    if (data_ != nullptr) ::operator delete(data_, std::align_val_t{64});
    data_ = nullptr;
    cap_ = 0;
  }

  double* data_ = nullptr;
  std::size_t cap_ = 0;
};

// ------------------------------------------------------------- gemm_nn
//
// Every element C[i, j] is alpha·(a[i,0]·b[0,j] + a[i,1]·b[1,j] + …)
// accumulated in k order from zero, one fused multiply-add per term,
// then combined with C through the beta 0/1/other epilogue. The
// lane-multiple columns [0, nvec) vectorize across columns in packed
// strips; the n − nvec leftover columns vectorize across rows instead,
// so a class count like 9 on an 8-lane rung never falls to a scalar
// column tail. Both forms keep the per-element chain above, so every
// rung matches the scalar one.

/// Pack the lane-multiple columns [0, nvec) of B (k×n row-major) into
/// kNR-wide strips, the last one as wide as what is left: the microkernel
/// then reads one contiguous row of its strip per k step. The panel lives
/// in a grow-only per-thread buffer (this runs every CG iteration — see
/// tn_workspace below for the rationale). Strips start 64-byte
/// aligned (k·kNR doubles apart from an aligned base).
double* pack_b(const double* pb, std::size_t k, std::size_t n,
               std::size_t nvec) {
  static thread_local AlignedBuffer panel;
  double* bp = panel.ensure(k * nvec);
  for (std::size_t j0 = 0; j0 < nvec; j0 += kNR) {
    const std::size_t w = min_of(kNR, nvec - j0);
    double* dst = bp + j0 * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double* src = pb + kk * n + j0;
      for (std::size_t jj = 0; jj < w; ++jj) dst[kk * w + jj] = src[jj];
    }
  }
  return bp;
}

/// MR rows of A against a packed strip of NV vectors: MR·NV accumulators
/// live in registers across the whole k loop (compile-time bounds,
/// __restrict so nothing is spilled for aliasing) and C is touched once
/// per tile. Register budget at kMR: AVX-512 holds 8 acc + B + broadcast
/// in 10 of 32 zmm; AVX2 8 + 2 + 1 of 16 ymm.
template <class V, std::size_t MR, std::size_t NV>
inline void micro_nn_strip(const double* __restrict pa, std::size_t lda,
                           const double* __restrict bp, std::size_t k,
                           double alpha, double beta, double* __restrict pc,
                           std::size_t ldc) {
  constexpr std::size_t ldb = NV * V::width;
  V acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t j = 0; j < NV; ++j) acc[r][j] = V::zero();
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* __restrict b = bp + kk * ldb;
    V bv[NV];
    for (std::size_t j = 0; j < NV; ++j) bv[j] = V::load(b + j * V::width);
    for (std::size_t r = 0; r < MR; ++r) {
      const V av = V::broadcast(pa[r * lda + kk]);
      for (std::size_t j = 0; j < NV; ++j) {
        acc[r][j] = V::fma(av, bv[j], acc[r][j]);
      }
    }
  }
  const V alphav = V::broadcast(alpha);
  for (std::size_t r = 0; r < MR; ++r) {
    double* __restrict crow = pc + r * ldc;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < NV; ++j) {
        (alphav * acc[r][j]).store(crow + j * V::width);
      }
    } else if (beta == 1.0) {
      for (std::size_t j = 0; j < NV; ++j) {
        (V::load(crow + j * V::width) + alphav * acc[r][j])
            .store(crow + j * V::width);
      }
    } else {
      const V betav = V::broadcast(beta);
      for (std::size_t j = 0; j < NV; ++j) {
        (betav * V::load(crow + j * V::width) + alphav * acc[r][j])
            .store(crow + j * V::width);
      }
    }
  }
}

/// micro_nn_strip for a runtime tile height mr ≤ MR and strip width
/// nv ≤ NV vectors.
template <class V, std::size_t MR = kMR<V>, std::size_t NV = kNR / V::width>
inline void dispatch_strip(std::size_t mr, std::size_t nv, const double* pa,
                           std::size_t lda, const double* bp, std::size_t k,
                           double alpha, double beta, double* pc,
                           std::size_t ldc) {
  if constexpr (MR > 1) {
    if (mr < MR) {
      return dispatch_strip<V, MR - 1, NV>(mr, nv, pa, lda, bp, k, alpha,
                                           beta, pc, ldc);
    }
  }
  if constexpr (NV > 1) {
    if (nv < NV) {
      return dispatch_strip<V, MR, NV - 1>(mr, nv, pa, lda, bp, k, alpha,
                                           beta, pc, ldc);
    }
  }
  micro_nn_strip<V, MR, NV>(pa, lda, bp, k, alpha, beta, pc, ldc);
}

/// V::width rows of A against NL < V::width leftover columns of B (read
/// in place, leading dimension ldb): one accumulator per column holds its
/// V::width rows. Each V::width×V::width tile of A is transposed in
/// registers so every vector is one k-column, which multiplies the
/// broadcast b[kk, j] — the same k-ordered chain per element as the
/// strips, with the rows in the lanes.
template <class V, std::size_t NL>
inline void micro_nn_rows(const double* __restrict pa, std::size_t lda,
                          const double* __restrict pb, std::size_t ldb,
                          std::size_t k, double alpha, double beta,
                          double* __restrict pc, std::size_t ldc) {
  constexpr std::size_t W = V::width;
  V acc[NL];
  for (std::size_t j = 0; j < NL; ++j) acc[j] = V::zero();
  std::size_t kk = 0;
  for (; kk + W <= k; kk += W) {
    V col[W];
    for (std::size_t r = 0; r < W; ++r) col[r] = V::load(pa + r * lda + kk);
    V::transpose(col);
    for (std::size_t q = 0; q < W; ++q) {
      const double* __restrict b = pb + (kk + q) * ldb;
      for (std::size_t j = 0; j < NL; ++j) {
        acc[j] = V::fma(col[q], V::broadcast(b[j]), acc[j]);
      }
    }
  }
  for (; kk < k; ++kk) {
    double a[W];
    for (std::size_t r = 0; r < W; ++r) a[r] = pa[r * lda + kk];
    const V col = V::load(a);
    const double* __restrict b = pb + kk * ldb;
    for (std::size_t j = 0; j < NL; ++j) {
      acc[j] = V::fma(col, V::broadcast(b[j]), acc[j]);
    }
  }
  for (std::size_t j = 0; j < NL; ++j) {
    double s[W];
    acc[j].store(s);
    for (std::size_t r = 0; r < W; ++r) {
      simd::combine_one(alpha, beta, pc[r * ldc + j], s[r]);
    }
  }
}

/// micro_nn_rows for a runtime leftover count 0 < nl ≤ NL.
template <class V, std::size_t NL = V::width - 1>
inline void dispatch_rows(std::size_t nl, const double* pa, std::size_t lda,
                          const double* pb, std::size_t ldb, std::size_t k,
                          double alpha, double beta, double* pc,
                          std::size_t ldc) {
  if constexpr (NL > 0) {
    if (nl < NL) {
      return dispatch_rows<V, NL - 1>(nl, pa, lda, pb, ldb, k, alpha, beta,
                                      pc, ldc);
    }
    micro_nn_rows<V, NL>(pa, lda, pb, ldb, k, alpha, beta, pc, ldc);
  }
}

// ------------------------------------------------------------- gemm_tn

/// Reusable per-calling-thread gemm_tn workspace: gemm_tn runs every CG
/// iteration, and a fresh large allocation per call means fresh page
/// faults per call. Grow-only and uninitialized — each team thread
/// first-touches its own feature columns (see AlignedBuffer).
double* tn_workspace(std::size_t elems) {
  static thread_local AlignedBuffer ws;
  return ws.ensure(elems);
}

/// Fold U samples starting at row `i` into features [j0, j1) of the
/// class-major accumulator `acc` (n rows, leading dimension ld) in one
/// pass over the panel. The feature dimension — the long one — advances
/// V::width independent output elements per step: the U sample rows'
/// features are loaded once and each class's weight is broadcast. U is a
/// compile-time constant so the inner sums fully unroll; the per-element
/// sum over u starts from zero in u order on every backend. j0 is a lane
/// multiple, so every feature falls in the vector body or the scalar
/// tail exactly as it does for the whole range [0, m).
template <class V, std::size_t U>
inline void tn_block(const double* __restrict pa, const double* __restrict pb,
                     std::size_t m, std::size_t n, std::size_t i,
                     std::size_t j0, std::size_t j1, std::size_t ld,
                     double* __restrict acc) {
  const double* a[U];
  const double* b[U];
  for (std::size_t u = 0; u < U; ++u) {
    a[u] = pa + (i + u) * m;
    b[u] = pb + (i + u) * n;
  }
  std::size_t j = j0;
  for (; j + V::width <= j1; j += V::width) {
    V x[U];
    for (std::size_t u = 0; u < U; ++u) x[u] = V::load(a[u] + j);
    for (std::size_t c = 0; c < n; ++c) {
      V s = V::zero();
      for (std::size_t u = 0; u < U; ++u) {
        s = V::fma(x[u], V::broadcast(b[u][c]), s);
      }
      double* __restrict l = acc + c * ld + j;
      (V::load(l) + s).store(l);
    }
  }
  for (; j < j1; ++j) {
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t u = 0; u < U; ++u) s = std::fma(a[u][j], b[u][c], s);
      acc[c * ld + j] += s;
    }
  }
}

/// Accumulate features [j0, j1) of (Aᵀ·B)ᵀ over all k samples into `acc`
/// (pre-zeroed there), 8 samples per pass with 4/2/1 tails.
template <class V>
void accumulate_tn(const double* pa, const double* pb, std::size_t k,
                   std::size_t m, std::size_t n, std::size_t j0,
                   std::size_t j1, std::size_t ld, double* acc) {
  std::size_t i = 0;
  for (; i + 8 <= k; i += 8) tn_block<V, 8>(pa, pb, m, n, i, j0, j1, ld, acc);
  for (; i + 4 <= k; i += 4) tn_block<V, 4>(pa, pb, m, n, i, j0, j1, ld, acc);
  for (; i + 2 <= k; i += 2) tn_block<V, 2>(pa, pb, m, n, i, j0, j1, ld, acc);
  for (; i < k; ++i) tn_block<V, 1>(pa, pb, m, n, i, j0, j1, ld, acc);
}

// ------------------------------------------------------ sparse rows
//
// Both sparse products compute one output row at a time from a list of
// entries: C[r] = beta·C[r] + Σ_e (alpha·vals[e])·B[idx[e] − base]. The
// row stays in registers across the entries and is stored once, so no
// add waits on the previous entry's store. Every element keeps the chain
// the scalar engine has always used — beta·C (or +0.0 when beta is 0),
// then one fused multiply-add per entry, in entry order — so a row is
// bit-identical on every rung and on whichever thread computes it.

/// Prefetch every cache line of the `cols` doubles at p, which fill NV
/// vectors (the last one partial). A fixed count of prefetches, unrolled:
/// a loop bounded by cols costs more than the prefetches save.
template <class V, std::size_t NV>
inline void prefetch_chunk(const double* p, std::size_t cols) {
  static_assert(kLineDoubles % V::width == 0, "lines hold whole vectors");
  // j is a multiple of V::width below NV·width, so p + j stays in the row.
  for (std::size_t j = 0; j < NV * V::width; j += kLineDoubles) {
    simd::prefetch(p + j);
  }
  simd::prefetch(p + cols - 1);
}

/// NV vectors of one output row over the entries [e0, e1); the last
/// vector holds `last` lanes (1..V::width). B's leading dimension is ldb.
template <class V, std::size_t NV, class Index>
inline void row_chunk(double alpha, double beta, const Index* __restrict idx,
                      Index base, const double* __restrict vals,
                      std::int64_t e0, std::int64_t e1,
                      const double* __restrict pb, std::size_t ldb,
                      std::size_t last, double* __restrict crow) {
  constexpr std::size_t W = V::width;
  constexpr std::size_t L = NV - 1;
  V acc[NV];
  if (beta == 0.0) {
    for (std::size_t j = 0; j < NV; ++j) acc[j] = V::zero();
  } else {
    for (std::size_t j = 0; j < L; ++j) acc[j] = V::load(crow + j * W);
    acc[L] = V::load_first(crow + L * W, last);
    if (beta != 1.0) {
      const V bv = V::broadcast(beta);
      for (std::size_t j = 0; j < NV; ++j) acc[j] = acc[j] * bv;
    }
  }
  const std::size_t cols = L * W + last;
  for (std::int64_t e = e0; e < e1; ++e) {
    if (e + kPrefetchAhead < e1) {
      const auto ahead =
          static_cast<std::size_t>(idx[e + kPrefetchAhead] - base);
      prefetch_chunk<V, NV>(pb + ahead * ldb, cols);
    }
    const V av = V::broadcast(alpha * vals[e]);
    const double* __restrict b =
        pb + static_cast<std::size_t>(idx[e] - base) * ldb;
    for (std::size_t j = 0; j < L; ++j) {
      acc[j] = V::fma(av, V::load(b + j * W), acc[j]);
    }
    acc[L] = V::fma(av, V::load_first(b + L * W, last), acc[L]);
  }
  for (std::size_t j = 0; j < L; ++j) acc[j].store(crow + j * W);
  acc[L].store_first(crow + L * W, last);
}

/// row_chunk for a runtime vector count 0 < nv ≤ NV.
template <class V, std::size_t NV = kRowVecs, class Index>
inline void dispatch_row_chunk(std::size_t nv, double alpha, double beta,
                               const Index* idx, Index base,
                               const double* vals, std::int64_t e0,
                               std::int64_t e1, const double* pb,
                               std::size_t ldb, std::size_t last,
                               double* crow) {
  if constexpr (NV > 1) {
    if (nv < NV) {
      return dispatch_row_chunk<V, NV - 1>(nv, alpha, beta, idx, base, vals,
                                           e0, e1, pb, ldb, last, crow);
    }
  }
  row_chunk<V, NV>(alpha, beta, idx, base, vals, e0, e1, pb, ldb, last, crow);
}

/// One n-wide output row of a sparse product, kRowVecs vectors at a time.
template <class V, class Index>
void sparse_row(double alpha, double beta, const Index* idx, Index base,
                const double* vals, std::int64_t e0, std::int64_t e1,
                const double* pb, std::size_t n, double* crow) {
  constexpr std::size_t W = V::width;
  constexpr std::size_t kChunk = kRowVecs * W;
  for (std::size_t j0 = 0; j0 < n; j0 += kChunk) {
    const std::size_t cols = min_of(kChunk, n - j0);
    const std::size_t nv = (cols + W - 1) / W;
    dispatch_row_chunk<V>(nv, alpha, beta, idx, base, vals, e0, e1, pb + j0,
                          n, cols - (nv - 1) * W, crow + j0);
  }
}

// ===========================================================================
// Engine kernels, templated on the SIMD backend. Identical blocking,
// partitioning and fold order on every rung — only the number of
// independent chains per instruction differs.
// ===========================================================================

template <class V>
void engine_gemm_nn(double alpha, DenseArg a, DenseArg b, double beta,
                    DenseOut c) {
  constexpr std::size_t W = V::width;
  // A strip tile's rows also hold whole leftover-column tiles.
  static_assert(kMR<V> % W == 0, "strip tiles must span whole row tiles");
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  const double* pa = a.p;
  const double* pb = b.p;
  double* pc = c.p;

  const std::size_t nvec = n - n % W;
  const std::size_t nstrips = (nvec + kNR - 1) / kNR;
  const double* bp = pack_b(pb, k, n, nvec);

  const std::size_t ntiles = (m + kMR<V> - 1) / kMR<V>;
  const bool parallel = 2 * m * k * n >= kParallelFlops;
  for_each_index<0>(parallel, ntiles, [&](std::size_t it) {
    const std::size_t i0 = it * kMR<V>;
    const std::size_t mr = min_of(kMR<V>, m - i0);
    for (std::size_t s = 0; s < nstrips; ++s) {
      const std::size_t j0 = s * kNR;
      dispatch_strip<V>(mr, min_of(kNR, nvec - j0) / W, pa + i0 * k, k,
                        bp + j0 * k, k, alpha, beta, pc + i0 * n + j0, n);
    }
    if (nvec == n) return;
    std::size_t i = i0;
    for (; i + W <= i0 + mr; i += W) {
      dispatch_rows<V>(n - nvec, pa + i * k, k, pb + nvec, n, k, alpha, beta,
                       pc + i * n + nvec, n);
    }
    // The last m mod W rows of the leftover columns.
    for (; i < i0 + mr; ++i) {
      for (std::size_t j = nvec; j < n; ++j) {
        double sum = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
          sum = std::fma(pa[i * k + kk], pb[kk * n + j], sum);
        }
        simd::combine_one(alpha, beta, pc[i * n + j], sum);
      }
    }
  });
}

/// C = alpha·Aᵀ·B + beta·C. Each thread takes a slice of whole cache
/// lines of features, runs every sample over them into its own columns of
/// one class-major workspace, and writes those rows of C. Each element's
/// chain is the one-thread chain, so any team size gives the same bits.
template <class V>
void engine_gemm_tn(double alpha, DenseArg a, DenseArg b, double beta,
                    DenseOut c) {
  const std::size_t k = a.rows;  // samples
  const std::size_t m = a.cols;  // features
  const std::size_t n = b.cols;  // classes
  const double* pa = a.p;
  const double* pb = b.p;
  double* pc = c.p;

  // Slices start on lane multiples, so each feature stays in the vector
  // body or the scalar tail it falls in for the whole range.
  static_assert(kLineDoubles % V::width == 0, "lines hold whole vectors");
  // Workspace rows padded to whole lines: no two slices share a line.
  const std::size_t lines = (m + kLineDoubles - 1) / kLineDoubles;
  const std::size_t ld = lines * kLineDoubles;
  double* ws = tn_workspace(n * ld);
  const bool parallel = 2 * k * m * n >= kParallelFlops;
  const std::size_t team = parallel ? max_threads() : 1;
  for_each_index<0>(parallel, team, [&](std::size_t t) {
    const Range lr = slice(lines, t, team);
    const std::size_t j0 = lr.lo * kLineDoubles;
    const std::size_t j1 = min_of(m, lr.hi * kLineDoubles);
    if (j0 < j1) {
      for (std::size_t cl = 0; cl < n; ++cl) zero(ws + cl * ld + j0, j1 - j0);
      accumulate_tn<V>(pa, pb, k, m, n, j0, j1, ld, ws);
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t cl = 0; cl < n; ++cl) {
          simd::combine_one(alpha, beta, pc[j * n + cl], ws[cl * ld + j]);
        }
      }
    }
  });
}

/// Scores S = alpha·A·B + beta·S over CSR rows: output row i is
/// sparse_row over row i's entries, so rows can go to any thread in any
/// order and the result is bit-identical regardless.
template <class V>
void engine_spmm_nn(double alpha, CsrArg a, DenseArg b, double beta,
                    DenseOut c) {
  const std::size_t n = b.cols;
  const std::int64_t* rp = a.row_ptr;
  const bool parallel = 2 * a.nnz * n >= kParallelFlops;
  for_each_index<64>(parallel, a.rows, [&](std::size_t i) {
    sparse_row<V>(alpha, beta, a.col_idx, std::int64_t{0}, a.values, rp[i],
                  rp[i + 1], b.p, n, c.p + i * n);
  });
}

/// G = alpha·Aᵀ·B + beta·G as a gather over the parent matrix's cached
/// CSC: output row j is sparse_row over column j's entries in ascending
/// sample order, restricted for a shard view to the view's parent rows
/// (rows ascend within a column, so that is one binary-searched subrange
/// per column). No partials and no fold: the per-element order is fixed,
/// so the result is bit-identical for any thread count and to a copied
/// shard's own CSC.
template <class V>
void engine_spmm_tn(double alpha, CscArg a, DenseArg b, double beta,
                    DenseOut c) {
  const std::size_t m = a.cols, n = b.cols;
  const std::int64_t* colptr = a.col_ptr;
  const std::int32_t* trows = a.row_idx;
  const bool parallel = 2 * a.nnz * n >= kParallelFlops;
  // Small dynamic chunks: column lengths are skewed (a few dense genes on
  // E18), and which thread takes a column never changes its bits.
  for_each_index<16>(parallel, m, [&](std::size_t j) {
    const std::int32_t* first = trows + colptr[j];
    const std::int32_t* last = trows + colptr[j + 1];
    if (!a.covers_parent) {
      first = lower_bound(first, last, a.row_lo);
      last = lower_bound(first, last, a.row_hi);
    }
    sparse_row<V>(alpha, beta, trows, a.row_lo, a.values, first - trows,
                  last - trows, b.p, n, c.p + j * n);
  });
}

template <class V>
double peak_probe(double x, std::size_t steps) {
  V acc[kProbeChains];
  for (std::size_t ch = 0; ch < kProbeChains; ++ch) {
    acc[ch] = V::broadcast(x + 1e-9 * static_cast<double>(ch));
  }
  const V mul = V::broadcast(1.0 + 1e-12 * x);
  const V add = V::broadcast(1e-12 * x);
  for (std::size_t s = 0; s < steps; ++s) {
    for (auto& v : acc) v = V::fma(v, mul, add);
  }
  V sum = acc[0];
  for (std::size_t ch = 1; ch < kProbeChains; ++ch) sum = sum + acc[ch];
  double out[V::width];
  sum.store(out);
  return out[0];
}

}  // namespace

const Rung& rung() {
  static constexpr Rung table{
      NADMM_RUNG_STR(NADMM_RUNG), Lanes::width,
      engine_gemm_nn<Lanes>,      engine_gemm_tn<Lanes>,
      engine_spmm_nn<Lanes>,      engine_spmm_tn<Lanes>,
      peak_probe<Lanes>};
  return table;
}

}  // namespace nadmm::la::kernels::NADMM_RUNG
