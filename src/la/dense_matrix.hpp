// Row-major dense matrix and the GEMM kernels the optimizer is built on.
//
// The softmax objective's forward pass, gradient and Hessian-vector
// product are all products of an n×p data matrix with p×c / n×c panels
// (c = C−1 classes). The paper runs these on GPUs via cuBLAS; here they
// are blocked OpenMP kernels with flop accounting so the simulated device
// clock can price them (DESIGN.md §2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace nadmm::la {

class DenseView;

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows×cols matrix, zero-initialized.
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows×cols matrix adopting `values` (row-major, size rows*cols).
  DenseMatrix(std::size_t rows, std::size_t cols, std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Row r as a span of `cols()` doubles.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// Reset every entry to `value`.
  void fill(double value);

  /// Reshape to rows×cols over the same buffer, which keeps its capacity:
  /// a panel resized within its largest shape never reallocates. Entries
  /// keep no meaningful layout; overwrite them.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Non-owning view of the contiguous row range [begin, end) — O(1)
  /// metadata, no copy. The matrix must outlive the view.
  [[nodiscard]] DenseView view(std::size_t begin, std::size_t end) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Non-owning, read-only row-major matrix view. A whole DenseMatrix
/// converts implicitly, so every product kernel below accepts either a
/// matrix or a row-range shard view; a rank's shard is O(1) metadata
/// instead of a copied buffer (the shard-native data plane relies on
/// this). The referenced storage must outlive the view.
class DenseView {
 public:
  DenseView() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate adapter.
  DenseView(const DenseMatrix& m)
      : data_(m.data().data()), rows_(m.rows()), cols_(m.cols()) {}
  DenseView(const double* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }

  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_ + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> data() const {
    return {data_, rows_ * cols_};
  }

 private:
  const double* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// C = alpha * A * B + beta * C.   A: m×k, B: k×n, C: m×n.
void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

/// gemm_nn with A = the listed rows of `pool` (m = rows.size()), read in
/// place: the result, the flops and the bytes credited are those of
/// gemm_nn on the gathered m×k copy.
void gemm_nn_rows(double alpha, DenseView pool,
                  std::span<const std::size_t> rows, const DenseMatrix& b,
                  double beta, DenseMatrix& c);

/// C = alpha * A^T * B + beta * C.   A: k×m (transposed view), B: k×n, C: m×n.
/// This is the gradient-accumulation shape: A is the data shard (rows =
/// samples), B the per-sample residual panel.
void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

}  // namespace nadmm::la
