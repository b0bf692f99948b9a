#include "la/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::la::kernels {

namespace {

DenseArg arg(DenseView v) { return {v.data().data(), v.rows(), v.cols()}; }

DenseOut out(DenseMatrix& m) { return {m.data().data(), m.rows(), m.cols()}; }

CsrArg arg(const CsrView& a) {
  return {a.row_ptr().data(), a.col_idx().data(), a.values().data(), a.rows(),
          a.nnz()};
}

/// In-place C = beta·C for the degenerate k = 0 case.
void scale_output(double beta, std::span<double> c) {
  if (beta == 0.0) {
    std::fill(c.begin(), c.end(), 0.0);
  } else if (beta != 1.0) {
    for (double& v : c) v *= beta;
  }
}

/// Every compiled rung this CPU can run, narrowest first. The x86 rungs
/// are compiled with the -m flags named in CMakeLists.txt (nadmm_add_rung);
/// the CPU must report each of those features for the rung to qualify.
std::vector<const Rung*> probe_ladder() {
  std::vector<const Rung*> rungs{&scalar::rung()};
#ifdef NADMM_X86_RUNGS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    rungs.push_back(&avx2::rung());
  }
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw")) {
    rungs.push_back(&avx512::rung());
  }
#endif
  return rungs;
}

}  // namespace

std::span<const Rung* const> host_rungs() {
  static const std::vector<const Rung*> rungs = probe_ladder();
  return rungs;
}

const Rung& active_rung() {
  static const Rung& rung = *host_rungs().back();
  return rung;
}

const char* active_isa() { return active_rung().name; }

void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung) {
  NADMM_CHECK(a.cols() == b.rows(), "gemm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm_nn: output shape mismatch");
  if (c.size() == 0) return;
  rung.gemm_nn(alpha, arg(a), arg(b), beta, out(c));
}

void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung) {
  NADMM_CHECK(a.rows() == b.rows(), "gemm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "gemm_tn: output shape mismatch");
  if (c.size() == 0) return;
  if (a.rows() == 0) {
    scale_output(beta, c.data());
    return;
  }
  rung.gemm_tn(alpha, arg(a), arg(b), beta, out(c));
}

void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung) {
  NADMM_CHECK(a.cols() == b.rows(), "spmm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "spmm_nn: output shape mismatch");
  if (c.size() == 0) return;
  rung.spmm_nn(alpha, arg(a), arg(b), beta, out(c));
}

void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c, const Rung& rung) {
  NADMM_CHECK(a.rows() == b.rows(), "spmm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "spmm_tn: output shape mismatch");
  if (c.size() == 0) return;
  if (a.nnz() == 0) {
    scale_output(beta, c.data());
    return;
  }
  const CsrTransposed& tv = a.parent()->transposed();
  const CscArg csc{tv.col_ptr.data(),
                   tv.row_idx.data(),
                   tv.values.data(),
                   a.cols(),
                   a.nnz(),
                   static_cast<std::int32_t>(a.row_begin()),
                   static_cast<std::int32_t>(a.row_begin() + a.rows()),
                   a.covers_parent()};
  rung.spmm_tn(alpha, csc, arg(b), beta, out(c));
}

double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse) {
  const std::size_t n = scores.rows();
  const std::size_t c = scores.cols();
  NADMM_CHECK(probs.rows() == n && probs.cols() == c,
              "softmax_forward: probs shape mismatch");
  NADMM_CHECK(labels.size() == n && lse.size() == n,
              "softmax_forward: labels/lse size mismatch");
  [[maybe_unused]] const bool parallel = n * c >= kParallelRows;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t ii = 0; ii < static_cast<std::ptrdiff_t>(n); ++ii) {
    const auto i = static_cast<std::size_t>(ii);
    const auto s = scores.row(i);
    auto prob = probs.row(i);
    double m = 0.0;  // implicit class score
    for (double v : s) m = std::max(m, v);
    double alpha = std::exp(-m);  // implicit class contribution
    for (std::size_t cc = 0; cc < c; ++cc) {
      prob[cc] = std::exp(s[cc] - m);
      alpha += prob[cc];
    }
    const double inv_alpha = 1.0 / alpha;
    for (double& p : prob) p *= inv_alpha;
    lse[i] = m + std::log(alpha);
  }
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto y = static_cast<std::size_t>(labels[i]);
    loss += lse[i] - (y < c ? scores.at(i, y) : 0.0);
  }
  return loss;
}

// ===========================================================================
// Seed reference products (verbatim pre-engine implementations, minus the
// flop accounting which the public wrappers own). spmm_nn's seed is the
// engine's row loop as it stood before output rows moved into registers:
// one axpy into the output row per entry.
// ===========================================================================

namespace reference {

void gemm_nn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.cols() == b.rows(), "gemm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm_nn: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* pc = c.data().data();
  constexpr std::size_t kBlockK = 256;

  const std::ptrdiff_t mm = static_cast<std::ptrdiff_t>(m);
  [[maybe_unused]] const bool parallel = 2 * m * k * n >= kParallelFlops;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t i = 0; i < mm; ++i) {
    double* crow = pc + static_cast<std::size_t>(i) * n;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const double* arow = pa + static_cast<std::size_t>(i) * k;
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t k1 = std::min(k, k0 + kBlockK);
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double av = alpha * arow[kk];
        if (av == 0.0) continue;
        const double* brow = pb + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void gemm_tn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.rows() == b.rows(), "gemm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "gemm_tn: output shape mismatch");
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* pc = c.data().data();

  if (beta == 0.0) {
    std::fill(c.data().begin(), c.data().end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, c.data());
  }

  [[maybe_unused]] const bool parallel = 2 * k * m * n >= kParallelFlops;
#pragma omp parallel if (parallel)
  {
    std::vector<double> local(m * n, 0.0);
#pragma omp for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i) {
      const double* arow = pa + static_cast<std::size_t>(i) * m;
      const double* brow = pb + static_cast<std::size_t>(i) * n;
      for (std::size_t j = 0; j < m; ++j) {
        const double av = arow[j];
        if (av == 0.0) continue;
        double* lrow = local.data() + j * n;
        for (std::size_t t = 0; t < n; ++t) lrow[t] += av * brow[t];
      }
    }
#pragma omp critical(nadmm_ref_gemm_tn_reduce)
    {
      for (std::size_t e = 0; e < local.size(); ++e) pc[e] += alpha * local[e];
    }
  }
}

void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.cols() == b.rows(), "spmm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "spmm_nn: output shape mismatch");
  const std::size_t n = b.cols();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  const double* pb = b.data().data();
  double* pc = c.data().data();
  [[maybe_unused]] const bool parallel = 2 * a.nnz() * n >= kParallelFlops;
#pragma omp parallel for schedule(dynamic, 64) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.rows()); ++i) {
    double* crow = pc + static_cast<std::size_t>(i) * n;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
      const double av = alpha * va[e];
      const double* brow = pb + static_cast<std::size_t>(ci[e]) * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.rows() == b.rows(), "spmm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "spmm_tn: output shape mismatch");
  const std::size_t n = b.cols();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  const double* pb = b.data().data();
  double* pc = c.data().data();
  if (beta == 0.0) {
    std::fill(c.data().begin(), c.data().end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, c.data());
  }
  [[maybe_unused]] const bool parallel = 2 * a.nnz() * n >= kParallelFlops;
#pragma omp parallel if (parallel)
  {
    std::vector<double> local(c.size(), 0.0);
#pragma omp for schedule(dynamic, 64)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.rows()); ++i) {
      const double* brow = pb + static_cast<std::size_t>(i) * n;
      for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        double* lrow = local.data() + static_cast<std::size_t>(ci[e]) * n;
        const double av = va[e];
        for (std::size_t j = 0; j < n; ++j) lrow[j] += av * brow[j];
      }
    }
#pragma omp critical(nadmm_ref_spmm_tn_reduce)
    {
      for (std::size_t e = 0; e < local.size(); ++e) pc[e] += alpha * local[e];
    }
  }
}

}  // namespace reference

}  // namespace nadmm::la::kernels
