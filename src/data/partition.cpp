#include "data/partition.hpp"

#include "support/check.hpp"

namespace nadmm::data {

std::vector<RowRange> partition_rows(std::size_t n, int parts) {
  NADMM_CHECK(parts >= 1, "partition_rows: parts must be >= 1");
  std::vector<RowRange> out;
  out.reserve(static_cast<std::size_t>(parts));
  const std::size_t base = n / static_cast<std::size_t>(parts);
  const std::size_t extra = n % static_cast<std::size_t>(parts);
  std::size_t at = 0;
  for (int r = 0; r < parts; ++r) {
    const std::size_t len = base + (static_cast<std::size_t>(r) < extra ? 1 : 0);
    out.push_back({at, at + len});
    at += len;
  }
  NADMM_ASSERT(at == n);
  return out;
}

std::vector<RowRange> ShardPlan::ranges(std::size_t n) const {
  NADMM_CHECK(parts >= 1, "ShardPlan: parts must be >= 1");
  return partition_rows(n, parts);
}

std::string ShardPlan::cache_tag() const {
  return "contiguous" + std::to_string(parts);
}

Dataset shard_dataset(const Dataset& full, const ShardPlan& plan, int rank) {
  NADMM_CHECK(rank >= 0 && rank < plan.parts, "shard_dataset: bad rank");
  const auto ranges = plan.ranges(full.num_samples());
  const RowRange r = ranges[static_cast<std::size_t>(rank)];
  return full.view(r.begin, r.end);
}

Dataset shard_contiguous(const Dataset& full, int parts, int rank) {
  NADMM_CHECK(rank >= 0 && rank < parts, "shard_contiguous: bad rank");
  const auto ranges = partition_rows(full.num_samples(), parts);
  const RowRange r = ranges[static_cast<std::size_t>(rank)];
  return full.row_slice(r.begin, r.end);
}

ShardedDataset make_sharded(const Dataset& train, const Dataset* test,
                            const ShardPlan& plan) {
  NADMM_CHECK(plan.parts >= 1, "make_sharded: need >= 1 part");
  ShardedDataset out;
  out.train_samples = train.num_samples();
  out.num_features = train.num_features();
  out.num_classes = train.num_classes();
  const bool have_test = test != nullptr && !test->empty();
  if (have_test) out.test_samples = test->num_samples();
  out.ranks.reserve(static_cast<std::size_t>(plan.parts));
  for (int r = 0; r < plan.parts; ++r) {
    RankData rd;
    rd.train = shard_dataset(train, plan, r);
    if (have_test) rd.test = shard_dataset(*test, plan, r);
    out.ranks.push_back(std::move(rd));
  }
  // The shards are views sharing the full storage and own nothing (a
  // one-part "view" covers the whole set, so summing its approx_bytes
  // would double-count).
  out.resident_bytes = train.approx_bytes();
  if (have_test) out.resident_bytes += test->approx_bytes();
  return out;
}

}  // namespace nadmm::data
