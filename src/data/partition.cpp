#include "data/partition.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "la/sparse_matrix.hpp"
#include "support/check.hpp"

namespace nadmm::data {

PartitionMode partition_mode_from_string(const std::string& name) {
  if (name == "contiguous") return PartitionMode::kContiguous;
  if (name == "strided") return PartitionMode::kStrided;
  if (name == "weighted") return PartitionMode::kWeighted;
  throw InvalidArgument("unknown partition mode '" + name +
                        "' (expected contiguous|strided|weighted)");
}

std::string to_string(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::kContiguous: return "contiguous";
    case PartitionMode::kStrided: return "strided";
    case PartitionMode::kWeighted: return "weighted";
  }
  return "?";
}

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

std::vector<RowRange> partition_rows_weighted(std::size_t n,
                                              std::span<const double> weights) {
  NADMM_CHECK(!weights.empty(), "partition_rows_weighted: no weights");
  double total = 0.0;
  for (const double w : weights) {
    NADMM_CHECK(w > 0.0, "partition_rows_weighted: weights must be positive");
    total += w;
  }
  const std::size_t parts = weights.size();
  // Largest-remainder rounding: floor every quota, then hand the leftover
  // rows to the largest fractional parts (ties to the lower rank index).
  // Deterministic, and the sizes sum to n exactly.
  std::vector<std::size_t> size(parts, 0);
  std::vector<double> frac(parts, 0.0);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < parts; ++r) {
    const double quota = static_cast<double>(n) * weights[r] / total;
    size[r] = static_cast<std::size_t>(quota);
    frac[r] = quota - static_cast<double>(size[r]);
    assigned += size[r];
  }
  std::vector<std::size_t> order(parts);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return frac[a] > frac[b];
  });
  for (std::size_t i = 0; assigned < n; ++i) {
    ++size[order[i % parts]];
    ++assigned;
  }
  std::vector<RowRange> out;
  out.reserve(parts);
  std::size_t at = 0;
  for (std::size_t r = 0; r < parts; ++r) {
    out.push_back({at, at + size[r]});
    at += size[r];
  }
  NADMM_ASSERT(at == n);
  return out;
}

std::vector<RowRange> ShardPlan::ranges(std::size_t n) const {
  NADMM_CHECK(parts >= 1, "ShardPlan: parts must be >= 1");
  switch (mode) {
    case PartitionMode::kContiguous:
      return partition_rows(n, parts);
    case PartitionMode::kWeighted: {
      if (weights.empty()) return partition_rows(n, parts);
      NADMM_CHECK(static_cast<int>(weights.size()) == parts,
                  "ShardPlan: weight count != parts");
      return partition_rows_weighted(n, weights);
    }
    case PartitionMode::kStrided:
      break;
  }
  throw InvalidArgument("ShardPlan::ranges: strided shards are not contiguous");
}

std::string ShardPlan::cache_tag() const {
  std::string tag = to_string(mode) + std::to_string(parts);
  if (mode == PartitionMode::kWeighted && !weights.empty()) {
    tag += ':';
    char buf[32];
    for (std::size_t r = 0; r < weights.size(); ++r) {
      if (r > 0) tag += ';';
      std::snprintf(buf, sizeof buf, "%.17g", weights[r]);
      tag += buf;
    }
  }
  return tag;
}

Dataset shard_dataset(const Dataset& full, const ShardPlan& plan, int rank) {
  NADMM_CHECK(rank >= 0 && rank < plan.parts, "shard_dataset: bad rank");
  if (plan.mode == PartitionMode::kStrided) {
    return shard_strided(full, plan.parts, rank);
  }
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

Dataset shard_strided(const Dataset& full, int parts, int rank) {
  NADMM_CHECK(rank >= 0 && rank < parts, "shard_strided: bad rank");
  const std::size_t n = full.num_samples();
  std::vector<std::size_t> mine;
  for (std::size_t i = static_cast<std::size_t>(rank); i < n;
       i += static_cast<std::size_t>(parts)) {
    mine.push_back(i);
  }
  std::vector<std::int32_t> labels;
  labels.reserve(mine.size());
  const auto full_labels = full.labels();
  for (std::size_t i : mine) labels.push_back(full_labels[i]);

  if (!full.is_sparse()) {
    const la::DenseView src = full.dense_view();
    la::DenseMatrix x(mine.size(), full.num_features());
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const auto row = src.row(mine[k]);
      std::copy(row.begin(), row.end(), x.row(k).begin());
    }
    return Dataset::dense(std::move(x), std::move(labels), full.num_classes());
  }
  const la::CsrView src = full.csr_view();
  const auto rp = src.row_ptr();
  const auto ci = src.col_idx();
  const auto va = src.values();
  std::vector<std::int64_t> row_ptr(mine.size() + 1, 0);
  for (std::size_t k = 0; k < mine.size(); ++k) {
    row_ptr[k + 1] = row_ptr[k] + (rp[mine[k] + 1] - rp[mine[k]]);
  }
  std::vector<std::int64_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<double> values(static_cast<std::size_t>(row_ptr.back()));
  for (std::size_t k = 0; k < mine.size(); ++k) {
    auto dst = static_cast<std::size_t>(row_ptr[k]);
    for (std::int64_t e = rp[mine[k]]; e < rp[mine[k] + 1]; ++e, ++dst) {
      col_idx[dst] = ci[e];
      values[dst] = va[e];
    }
  }
  la::CsrMatrix shard(mine.size(), full.num_features(), std::move(row_ptr),
                      std::move(col_idx), std::move(values));
  return Dataset::sparse(std::move(shard), std::move(labels),
                         full.num_classes());
}

ShardedDataset make_sharded(const Dataset& train, const Dataset* test,
                            const ShardPlan& plan) {
  NADMM_CHECK(plan.parts >= 1, "make_sharded: need >= 1 part");
  ShardedDataset out;
  out.plan = plan;
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
  // Contiguous/weighted shards are views sharing the full storage and own
  // nothing (a one-part "view" covers the whole set, so summing its
  // approx_bytes would double-count); strided gather copies own their
  // buffers.
  if (plan.mode == PartitionMode::kStrided) {
    for (const auto& rd : out.ranks) {
      out.owned_bytes += rd.train.approx_bytes() + rd.test.approx_bytes();
    }
  }
  out.resident_bytes = train.approx_bytes() + out.owned_bytes;
  if (have_test) out.resident_bytes += test->approx_bytes();
  return out;
}

}  // namespace nadmm::data
