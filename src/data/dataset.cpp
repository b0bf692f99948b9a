#include "data/dataset.hpp"

#include "support/check.hpp"

namespace nadmm::data {

namespace {
void validate_labels(std::span<const std::int32_t> labels, int num_classes) {
  NADMM_CHECK(num_classes >= 2, "dataset needs at least two classes");
  for (std::int32_t y : labels) {
    NADMM_CHECK(y >= 0 && y < num_classes, "label out of [0, num_classes)");
  }
}

const la::DenseMatrix& empty_dense() {
  static const la::DenseMatrix kEmpty;
  return kEmpty;
}

const la::CsrMatrix& empty_sparse() {
  static const la::CsrMatrix kEmpty;
  return kEmpty;
}
}  // namespace

Dataset Dataset::dense(la::DenseMatrix features,
                       std::vector<std::int32_t> labels, int num_classes) {
  NADMM_CHECK(features.rows() == labels.size(),
              "dense dataset: row/label count mismatch");
  validate_labels(labels, num_classes);
  Dataset d;
  d.is_sparse_ = false;
  d.num_features_ = features.cols();
  d.num_classes_ = num_classes;
  d.row_count_ = labels.size();
  d.dense_ = std::make_shared<const la::DenseMatrix>(std::move(features));
  d.labels_ =
      std::make_shared<const std::vector<std::int32_t>>(std::move(labels));
  return d;
}

Dataset Dataset::sparse(la::CsrMatrix features,
                        std::vector<std::int32_t> labels, int num_classes) {
  NADMM_CHECK(features.rows() == labels.size(),
              "sparse dataset: row/label count mismatch");
  validate_labels(labels, num_classes);
  Dataset d;
  d.is_sparse_ = true;
  d.num_features_ = features.cols();
  d.num_classes_ = num_classes;
  d.row_count_ = labels.size();
  d.sparse_ = std::make_shared<const la::CsrMatrix>(std::move(features));
  d.labels_ =
      std::make_shared<const std::vector<std::int32_t>>(std::move(labels));
  return d;
}

std::size_t Dataset::storage_rows() const {
  return labels_ == nullptr ? 0 : labels_->size();
}

bool Dataset::is_view() const {
  return row_begin_ != 0 || row_count_ != storage_rows();
}

const la::DenseMatrix& Dataset::dense_features() const {
  NADMM_CHECK(!is_sparse_, "dataset is sparse; dense_features() unavailable");
  NADMM_CHECK(!is_view(),
              "dataset is a row-range view; use dense_view() instead of "
              "dense_features()");
  return dense_ == nullptr ? empty_dense() : *dense_;
}

const la::CsrMatrix& Dataset::sparse_features() const {
  NADMM_CHECK(is_sparse_, "dataset is dense; sparse_features() unavailable");
  NADMM_CHECK(!is_view(),
              "dataset is a row-range view; use csr_view() instead of "
              "sparse_features()");
  return sparse_ == nullptr ? empty_sparse() : *sparse_;
}

la::DenseView Dataset::dense_view() const {
  NADMM_CHECK(!is_sparse_, "dataset is sparse; dense_view() unavailable");
  if (dense_ == nullptr) return {};
  return dense_->view(row_begin_, row_begin_ + row_count_);
}

la::CsrView Dataset::csr_view() const {
  NADMM_CHECK(is_sparse_, "dataset is dense; csr_view() unavailable");
  if (sparse_ == nullptr) return {};
  return sparse_->view(row_begin_, row_begin_ + row_count_);
}

Dataset Dataset::view(std::size_t begin, std::size_t end) const {
  NADMM_CHECK(begin <= end && end <= row_count_, "view: bad range");
  Dataset v = *this;  // shares storage
  v.row_begin_ = row_begin_ + begin;
  v.row_count_ = end - begin;
  return v;
}

Dataset Dataset::row_slice(std::size_t begin, std::size_t end) const {
  NADMM_CHECK(begin <= end && end <= num_samples(), "row_slice: bad range");
  const auto lab = labels();
  std::vector<std::int32_t> labels_out(lab.begin() + static_cast<std::ptrdiff_t>(begin),
                                       lab.begin() + static_cast<std::ptrdiff_t>(end));
  if (is_sparse_) {
    return Dataset::sparse(
        sparse_->row_slice(row_begin_ + begin, row_begin_ + end),
        std::move(labels_out), num_classes_);
  }
  const la::DenseView src = dense_view();
  la::DenseMatrix sub(end - begin, num_features_);
  for (std::size_t r = begin; r < end; ++r) {
    const auto row = src.row(r);
    std::copy(row.begin(), row.end(), sub.row(r - begin).begin());
  }
  return Dataset::dense(std::move(sub), std::move(labels_out), num_classes_);
}

void Dataset::scores(const la::DenseMatrix& x, la::DenseMatrix& s) const {
  if (is_sparse_) {
    la::spmm_nn(1.0, csr_view(), x, 0.0, s);
  } else {
    la::gemm_nn(1.0, dense_view(), x, 0.0, s);
  }
}

void Dataset::accumulate_gradient(double alpha, const la::DenseMatrix& w,
                                  double beta, la::DenseMatrix& g) const {
  if (is_sparse_) {
    la::spmm_tn(alpha, csr_view(), w, beta, g);
  } else {
    la::gemm_tn(alpha, dense_view(), w, beta, g);
  }
}

std::size_t Dataset::approx_bytes() const {
  // A proper sub-view owns nothing: its bytes belong to the parent
  // storage, which the owning dataset (or sharded cache entry) accounts.
  if (is_view()) return 0;
  std::size_t bytes = storage_rows() * sizeof(std::int32_t);
  if (is_sparse_) {
    // Includes the lazily built transposed view (la/sparse_matrix.hpp),
    // so the provider's LRU byte budget holds once the gradient kernels
    // materialize it.
    if (sparse_ != nullptr) bytes += sparse_->approx_bytes();
  } else if (dense_ != nullptr) {
    bytes += dense_->size() * sizeof(double);
  }
  return bytes;
}

}  // namespace nadmm::data
