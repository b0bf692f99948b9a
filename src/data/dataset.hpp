// Dataset container: features (dense or CSR) + integer class labels.
//
// The objective code (src/model) is storage-agnostic: it calls the
// dispatching products below, so the same solver stack runs MNIST-like
// dense shards and E18-like sparse shards (DESIGN.md §2).
//
// Storage is shared, not owned per instance: a Dataset holds
// shared_ptr'd feature/label buffers plus a row range, so
// `Dataset::view(RowRange)` hands out a rank shard as O(1) metadata —
// no copy, and the shard keeps the parent storage alive even after the
// parent Dataset is gone. The dispatching products run on la::DenseView
// / la::CsrView row-range views, so a view shard computes in place on
// the parent's buffers (bit-identical to a copied shard; see
// la/kernels.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "la/dense_matrix.hpp"
#include "la/sparse_matrix.hpp"

namespace nadmm::data {

class Dataset {
 public:
  Dataset() = default;

  /// Dense dataset. Labels must be in [0, num_classes).
  static Dataset dense(la::DenseMatrix features, std::vector<std::int32_t> labels,
                       int num_classes);

  /// Sparse (CSR) dataset. Labels must be in [0, num_classes).
  static Dataset sparse(la::CsrMatrix features, std::vector<std::int32_t> labels,
                        int num_classes);

  [[nodiscard]] std::size_t num_samples() const { return row_count_; }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  [[nodiscard]] bool is_sparse() const { return is_sparse_; }
  [[nodiscard]] bool empty() const { return row_count_ == 0; }

  [[nodiscard]] std::span<const std::int32_t> labels() const {
    if (labels_ == nullptr) return {};
    return {labels_->data() + row_begin_, row_count_};
  }

  /// Whole stored feature matrix. Throws unless the dataset is
  /// dense / sparse respectively, or when this dataset is a proper
  /// sub-view (use dense_view() / csr_view() for shards).
  [[nodiscard]] const la::DenseMatrix& dense_features() const;
  [[nodiscard]] const la::CsrMatrix& sparse_features() const;

  /// Row-range feature views over the shared storage (valid while any
  /// Dataset sharing the storage is alive).
  [[nodiscard]] la::DenseView dense_view() const;
  [[nodiscard]] la::CsrView csr_view() const;

  /// O(1) zero-copy view of rows [begin, end) of this dataset. The view
  /// shares (and keeps alive) this dataset's storage.
  [[nodiscard]] Dataset view(std::size_t begin, std::size_t end) const;

  /// True when this dataset references only part of its shared storage
  /// (a rank shard or minibatch view).
  [[nodiscard]] bool is_view() const;

  /// Contiguous row shard [begin, end) as an owning deep copy. Prefer
  /// view() on hot paths; this remains for callers that need detached
  /// storage (and as the oracle for view-vs-copy bit-identity tests).
  [[nodiscard]] Dataset row_slice(std::size_t begin, std::size_t end) const;

  /// S = A · X  (A = features, n×p; X: p×c; S: n×c).
  void scores(const la::DenseMatrix& x, la::DenseMatrix& s) const;

  /// G = alpha · Aᵀ · W + beta · G  (W: n×c; G: p×c).
  void accumulate_gradient(double alpha, const la::DenseMatrix& w, double beta,
                           la::DenseMatrix& g) const;

  /// Resident bytes this dataset is responsible for: the full feature +
  /// label storage for an owning dataset, and 0 for a proper sub-view
  /// (its storage is accounted to the parent). Used by the
  /// DatasetProvider's LRU byte budget and the sweep's
  /// peak_dataset_bytes column.
  [[nodiscard]] std::size_t approx_bytes() const;

 private:
  [[nodiscard]] std::size_t storage_rows() const;

  bool is_sparse_ = false;
  std::size_t num_features_ = 0;
  int num_classes_ = 0;
  std::shared_ptr<const la::DenseMatrix> dense_;
  std::shared_ptr<const la::CsrMatrix> sparse_;
  std::shared_ptr<const std::vector<std::int32_t>> labels_;
  std::size_t row_begin_ = 0;
  std::size_t row_count_ = 0;
};

/// A train/test pair drawn from the same source (generator or file).
struct TrainTest {
  Dataset train;
  Dataset test;

  /// Combined resident size, used by the DatasetProvider byte budget.
  [[nodiscard]] std::size_t approx_bytes() const {
    return train.approx_bytes() + test.approx_bytes();
  }
};

}  // namespace nadmm::data
