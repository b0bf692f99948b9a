// Row partitioning of a dataset across workers — the shard planner of
// the shard-native data plane.
//
// Strong scaling splits a fixed dataset into N shards; weak scaling keeps
// the shard size fixed and grows N. Rank r always owns its balanced
// contiguous range of rows, the paper's setup (data pre-sharded per
// node), so in-memory shards are O(1) zero-copy views.
//
// A ShardPlan captures the part count once; `ranges(n)` re-plans the
// same layout for any row count, so the train and test splits shard
// consistently. `make_sharded` turns a TrainTest into one RankData
// {train, test} per rank plus the byte accounting the sweep reports as
// peak_dataset_bytes.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace nadmm::data {

struct RowRange {
  std::size_t begin;
  std::size_t end;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Balanced contiguous ranges: first (n % parts) ranges get one extra row.
std::vector<RowRange> partition_rows(std::size_t n, int parts);

/// How a dataset is split across `parts` ranks.
struct ShardPlan {
  int parts = 1;

  /// Per-rank contiguous ranges for `n` rows.
  [[nodiscard]] std::vector<RowRange> ranges(std::size_t n) const;

  /// Stable identifier ("contiguous4") used by the sharded dataset cache
  /// key.
  [[nodiscard]] std::string cache_tag() const;
};

/// The shard of `full` that `rank` owns under `plan`: an O(1) zero-copy
/// view of its contiguous range.
Dataset shard_dataset(const Dataset& full, const ShardPlan& plan, int rank);

/// Shard `parts` ways, returning the shard for `rank` (contiguous rows)
/// as an owning deep copy. Superseded by shard_dataset on hot paths;
/// kept as the copy oracle for view-vs-copy bit-identity tests.
Dataset shard_contiguous(const Dataset& full, int parts, int rank);

/// One rank's slice of the experiment data. `test` is empty when the
/// scenario has no test split.
struct RankData {
  Dataset train;
  Dataset test;
};

/// The whole experiment's data, pre-sharded: what the harness hands every
/// distributed solver through the registry (no solver re-shards). Rank
/// shards are all there is — materialized and streamed sources look the
/// same, and a solver that needs a global value sums it over the shards.
struct ShardedDataset {
  std::vector<RankData> ranks;

  // Global shape.
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  std::size_t num_features = 0;
  int num_classes = 0;

  /// Bytes the shards own: 0 for views, their buffers for streamed
  /// shards. A provider cache entry counts only these; the full storage
  /// views share is counted by the full dataset's entry.
  std::size_t owned_bytes = 0;
  /// Resident dataset bytes for this layout: the full storage the shards
  /// were cut from (in-memory sources) plus owned_bytes. The sweep
  /// reports this as peak_dataset_bytes.
  std::size_t resident_bytes = 0;

  [[nodiscard]] int parts() const { return static_cast<int>(ranks.size()); }
  /// Parameter dimension p·(C−1) of the softmax model.
  [[nodiscard]] std::size_t dim() const {
    return num_features * (static_cast<std::size_t>(num_classes) - 1);
  }
};

/// Shard a materialized train/test pair under `plan` as zero-copy views.
/// `test` may be null or empty (rank test shards stay empty).
ShardedDataset make_sharded(const Dataset& train, const Dataset* test,
                            const ShardPlan& plan);

}  // namespace nadmm::data
