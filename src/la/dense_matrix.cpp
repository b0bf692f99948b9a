#include "la/dense_matrix.hpp"

#include <cmath>

#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols,
                         std::vector<double> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  NADMM_CHECK(data_.size() == rows * cols,
              "DenseMatrix: value buffer size does not match rows*cols");
}

void DenseMatrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double DenseMatrix::frobenius_norm() const { return nrm2(data_); }

DenseView DenseMatrix::view(std::size_t begin, std::size_t end) const {
  NADMM_CHECK(begin <= end && end <= rows_, "DenseMatrix::view: bad range");
  return {data_.data() + begin * cols_, end - begin, cols_};
}

// Byte accounting below follows the compulsory-traffic model of
// flops::output_passes: operands read once, outputs written once (plus
// a read when beta forces RMW). Cache reuse beyond that is the kernel's
// job; the roofline prices the unavoidable traffic.
using flops::output_passes;

void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  // Spans close after the flop credit so the trace records the deltas.
  TELEM_SPAN("kernel", "gemm_nn");
  kernels::gemm_nn(alpha, a, b, beta, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  flops::add(2 * m * k * n);
  flops::add_bytes(8 * (m * k + k * n + output_passes(beta) * m * n));
}

void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  TELEM_SPAN("kernel", "gemm_tn");
  kernels::gemm_tn(alpha, a, b, beta, c);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  flops::add(2 * k * m * n);
  flops::add_bytes(8 * (k * m + k * n + output_passes(beta) * m * n));
}

void gemv(double alpha, DenseView a, std::span<const double> x,
          double beta, std::span<double> y) {
  NADMM_CHECK(a.cols() == x.size(), "gemv: x size mismatch");
  NADMM_CHECK(a.rows() == y.size(), "gemv: y size mismatch");
  const std::size_t m = a.rows(), k = a.cols();
  const double* pa = a.data().data();
  [[maybe_unused]] const bool parallel = 2 * m * k >= kernels::kParallelFlops;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(m); ++i) {
    const double* arow = pa + static_cast<std::size_t>(i) * k;
    double acc = 0.0;
    for (std::size_t j = 0; j < k; ++j) acc += arow[j] * x[j];
    y[i] = alpha * acc + beta * y[i];
  }
  flops::add(2 * m * k);
  flops::add_bytes(8 * (m * k + k + output_passes(beta) * m));
}

}  // namespace nadmm::la
