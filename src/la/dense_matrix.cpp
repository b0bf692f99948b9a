#include "la/dense_matrix.hpp"

#include <algorithm>

#include "la/flops.hpp"
#include "la/kernels.hpp"
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

void gemm_nn_rows(double alpha, DenseView pool,
                  std::span<const std::size_t> rows, const DenseMatrix& b,
                  double beta, DenseMatrix& c) {
  TELEM_SPAN("kernel", "gemm_nn");
  kernels::gemm_nn_rows(alpha, pool, rows, b, beta, c);
  const std::size_t m = rows.size(), k = pool.cols(), n = b.cols();
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

}  // namespace nadmm::la
