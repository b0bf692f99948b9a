// Tests for the DatasetProvider (src/data/provider.*): cache-key
// identity, shared immutable copies, single-flight generation under
// concurrency, and LRU eviction under a byte budget.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "data/io.hpp"
#include "data/provider.hpp"
#include "support/check.hpp"

namespace nadmm::data {
namespace {

DatasetKey blobs_key(std::uint64_t seed = 7, std::size_t n_train = 60) {
  DatasetKey key;
  key.source = "blobs";
  key.n_train = n_train;
  key.n_test = 20;
  key.features = 8;
  key.seed = seed;
  return key;
}

// ------------------------------------------------------------ keys

TEST(DatasetKey, IdenticalParametersProduceIdenticalTags) {
  EXPECT_EQ(blobs_key(), blobs_key());
  EXPECT_EQ(blobs_key().cache_tag(), blobs_key().cache_tag());
}

TEST(DatasetKey, EveryContentParameterChangesTheTag) {
  const DatasetKey base = blobs_key();
  std::set<std::string> tags{base.cache_tag()};
  DatasetKey k = base;
  k.source = "higgs";
  tags.insert(k.cache_tag());
  k = base;
  k.n_train = base.n_train + 1;
  tags.insert(k.cache_tag());
  k = base;
  k.n_test = base.n_test + 1;
  tags.insert(k.cache_tag());
  k = base;
  k.features = base.features + 1;
  tags.insert(k.cache_tag());
  k = base;
  k.seed = base.seed + 1;
  tags.insert(k.cache_tag());
  EXPECT_EQ(tags.size(), 6u);  // base + 5 distinct variations
}

// ------------------------------------------------------------ sharing

TEST(DatasetProvider, SecondGetSharesTheFirstCopy) {
  DatasetProvider provider;
  const auto a = provider.get(blobs_key());
  const auto b = provider.get(blobs_key());
  EXPECT_EQ(a.get(), b.get());
  const auto s = provider.stats();
  EXPECT_EQ(s.generations, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(provider.bytes_in_use(), a->approx_bytes());
}

TEST(DatasetProvider, DifferentKeysGenerateSeparately) {
  DatasetProvider provider;
  const auto a = provider.get(blobs_key(7));
  const auto b = provider.get(blobs_key(8));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(provider.stats().generations, 2u);
}

TEST(DatasetProvider, ConcurrentGetsOnOneKeyGenerateOnce) {
  DatasetProvider provider;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TrainTest>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back(
        [&, t] { results[static_cast<std::size_t>(t)] = provider.get(blobs_key()); });
  }
  for (auto& t : pool) t.join();
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
  EXPECT_EQ(provider.stats().generations, 1u);
}

TEST(DatasetProvider, GenerationFailurePropagatesAndRetries) {
  DatasetProvider provider;
  DatasetKey bad = blobs_key();
  bad.source = "no-such-generator";
  EXPECT_THROW(static_cast<void>(provider.get(bad)), InvalidArgument);
  // The failed entry must not poison the cache.
  EXPECT_THROW(static_cast<void>(provider.get(bad)), InvalidArgument);
  EXPECT_EQ(provider.stats().generations, 0u);
  EXPECT_EQ(provider.bytes_in_use(), 0u);
}

// ------------------------------------------------------------ eviction

/// Resident bytes of one blobs_key() dataset (every seed has the same shape).
std::size_t one_dataset_bytes() {
  return DatasetProvider().get(blobs_key(1))->approx_bytes();
}

TEST(DatasetProvider, LruEvictionUnderSmallByteBudget) {
  const std::size_t one = one_dataset_bytes();
  // Room for one-and-a-half datasets: the second get must evict the
  // least-recently-used entry.
  DatasetProvider provider(one + one / 2);
  const auto a = provider.get(blobs_key(1));
  static_cast<void>(provider.get(blobs_key(2)));  // evicts key 1
  EXPECT_LE(provider.bytes_in_use(), one + one / 2);
  static_cast<void>(provider.get(blobs_key(1)));  // regenerated
  const auto s = provider.stats();
  EXPECT_EQ(s.generations, 3u);
  EXPECT_GE(s.evictions, 2u);
  // The evicted dataset handed out earlier is still alive for its holder.
  EXPECT_EQ(a->train.num_samples(), 60u);
}

TEST(DatasetProvider, RecentlyUsedEntrySurvivesEviction) {
  const std::size_t one = one_dataset_bytes();
  DatasetProvider provider(2 * one + one / 2);  // fits two datasets
  static_cast<void>(provider.get(blobs_key(1)));
  static_cast<void>(provider.get(blobs_key(2)));
  static_cast<void>(provider.get(blobs_key(1)));  // touch 1 → LRU is 2
  const auto c = provider.get(blobs_key(3));      // evicts 2, not 1
  static_cast<void>(c);
  const auto before = provider.stats().generations;
  static_cast<void>(provider.get(blobs_key(1)));  // still cached
  EXPECT_EQ(provider.stats().generations, before);
}

TEST(DatasetProvider, OversizedDatasetIsHandedOutButNotRetained) {
  DatasetProvider provider(1);  // 1-byte budget: nothing fits
  const auto a = provider.get(blobs_key());
  EXPECT_GT(a->approx_bytes(), 1u);
  EXPECT_EQ(provider.bytes_in_use(), 0u);
  static_cast<void>(provider.get(blobs_key()));
  EXPECT_EQ(provider.stats().generations, 2u);  // cache effectively off
}

TEST(DatasetProvider, ClearDropsEntriesButNotHeldPointers) {
  DatasetProvider provider;
  const auto a = provider.get(blobs_key());
  provider.clear();
  EXPECT_EQ(provider.bytes_in_use(), 0u);
  EXPECT_EQ(a->train.num_samples(), 60u);
  static_cast<void>(provider.get(blobs_key()));
  EXPECT_EQ(provider.stats().generations, 2u);
}

// ------------------------------------------------------------ sources

TEST(DatasetProvider, LibsvmSourceStreamsAndSplits) {
  const std::string path = testing::TempDir() + "/nadmm_provider.libsvm";
  {
    std::ofstream out(path);
    for (int i = 0; i < 30; ++i) {
      out << (i % 3) << ' ' << (i % 5 + 1) << ":1.5 7:" << i << ".0\n";
    }
  }
  DatasetProvider provider;
  DatasetKey key;
  key.source = "libsvm:" + path;
  key.n_train = 24;
  key.n_test = 6;
  const auto tt = provider.get(key);
  EXPECT_EQ(tt->train.num_samples(), 24u);
  EXPECT_EQ(tt->test.num_samples(), 6u);
  EXPECT_EQ(tt->train.num_classes(), 3);
  EXPECT_EQ(tt->train.num_features(), 7u);
  EXPECT_EQ(tt->test.num_features(), 7u);
  EXPECT_EQ(provider.stats().generations, 1u);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ sharded

TEST(DatasetProvider, ShardedInMemorySourceSharesTheFullEntry) {
  DatasetProvider provider;
  ShardPlan plan;
  plan.parts = 4;
  const auto sharded = provider.get_sharded(blobs_key(), plan);
  ASSERT_EQ(sharded->parts(), 4);
  // Shards are zero-copy views of the cached full dataset: only the full
  // entry is generated and only its bytes are resident.
  EXPECT_EQ(provider.stats().generations, 1u);
  EXPECT_EQ(provider.bytes_in_use(), sharded->resident_bytes);
  for (const auto& rd : sharded->ranks) {
    EXPECT_EQ(rd.train.approx_bytes(), 0u);
  }
  // A second plan over the same key re-slices the same cached entry.
  ShardPlan other = plan;
  other.parts = 2;
  const auto resliced = provider.get_sharded(blobs_key(), other);
  EXPECT_EQ(resliced->parts(), 2);
  EXPECT_EQ(provider.stats().generations, 1u);
  EXPECT_GE(provider.stats().hits, 1u);
  // Strided shards are real gather copies: they get their own cached
  // entry (re-sliced from the cached full dataset) that adds only the
  // copies' bytes to the budget, since the full entry already counts the
  // storage they were gathered from. A repeat request shares the entry
  // instead of re-gathering.
  ShardPlan strided = plan;
  strided.mode = PartitionMode::kStrided;
  const std::size_t before = provider.bytes_in_use();
  const auto gathered = provider.get_sharded(blobs_key(), strided);
  EXPECT_EQ(provider.stats().generations, 2u);
  std::size_t copies = 0;
  for (const auto& rd : gathered->ranks) {
    copies += rd.train.approx_bytes() + rd.test.approx_bytes();
  }
  EXPECT_GT(copies, 0u);
  EXPECT_EQ(provider.bytes_in_use(), before + copies);
  // A scenario on the copies still holds the full dataset too.
  EXPECT_EQ(gathered->resident_bytes, before + copies);
  const auto again = provider.get_sharded(blobs_key(), strided);
  EXPECT_EQ(gathered.get(), again.get());
  EXPECT_EQ(provider.stats().generations, 2u);
}

TEST(DatasetProvider, ShardedLibsvmStreamsIntoCachedPerRankShards) {
  const std::string path = testing::TempDir() + "/nadmm_sharded_cache.libsvm";
  {
    std::ofstream out(path);
    for (int i = 0; i < 40; ++i) {
      out << (i % 2) << ' ' << (i % 6 + 1) << ":2.0 9:" << (i + 1) << ".5\n";
    }
  }
  DatasetProvider provider;
  DatasetKey key;
  key.source = "libsvm:" + path;
  key.n_train = 32;
  key.n_test = 8;
  ShardPlan plan;
  plan.parts = 4;
  const auto a = provider.get_sharded(key, plan);
  EXPECT_EQ(a->train_samples, 32u);
  EXPECT_EQ(a->test_samples, 8u);
  EXPECT_EQ(provider.stats().generations, 1u);
  EXPECT_EQ(provider.bytes_in_use(), a->resident_bytes);
  // Same (key, plan) is a cache hit returning the same shards.
  const auto b = provider.get_sharded(key, plan);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(provider.stats().generations, 1u);
  // A different plan is a distinct streamed entry (no full matrix exists
  // to re-slice), accounted separately.
  ShardPlan strided = plan;
  strided.mode = PartitionMode::kStrided;
  const auto c = provider.get_sharded(key, strided);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(provider.stats().generations, 2u);
  EXPECT_EQ(provider.bytes_in_use(),
            a->resident_bytes + c->resident_bytes);
  std::filesystem::remove(path);
}

TEST(DatasetProvider, StreamedShardsStayBelowMaterializedPathPeak) {
  const std::string path = testing::TempDir() + "/nadmm_peak.libsvm";
  {
    std::ofstream out(path);
    for (int i = 0; i < 200; ++i) {
      out << (i % 4) << ' ' << (i % 17 + 1) << ":1.25 " << (i % 9 + 20)
          << ":-0.5 40:" << (i + 1) << ".0\n";
    }
  }
  const int parts = 4;
  const RankData full =
      std::move(load_libsvm_sharded(path, 160, 40, ShardPlan{}).ranks[0]);
  ShardPlan plan;
  plan.parts = parts;
  const ShardedDataset streamed = load_libsvm_sharded(path, 160, 40, plan);
  // The seed data plane materialized the full matrix AND copied one
  // shard per rank — its peak was full + Σ copies. Streaming holds only
  // the shards, comfortably below that.
  std::size_t copy_path_peak =
      full.train.approx_bytes() + full.test.approx_bytes();
  for (int r = 0; r < parts; ++r) {
    copy_path_peak += shard_contiguous(full.train, parts, r).approx_bytes();
    copy_path_peak += shard_contiguous(full.test, parts, r).approx_bytes();
  }
  EXPECT_LT(streamed.resident_bytes, copy_path_peak);
  EXPECT_LT(static_cast<double>(streamed.resident_bytes),
            0.75 * static_cast<double>(copy_path_peak));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace nadmm::data
