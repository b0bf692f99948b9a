// DatasetProvider: one immutable copy of each dataset, shared across
// every consumer whose scenario differs only in knobs that do not affect
// the data (solver, workers, device, network, penalty, λ).
//
// Datasets are keyed by their content-defining parameters (source name,
// sample counts, feature dimension, seed). A `get` on a
// cached key returns the same `shared_ptr<const TrainTest>`; a miss
// generates (or loads) the dataset exactly once even when many scheduler
// threads request the same key concurrently (single-flight). Cached
// entries are evicted least-recently-used once the resident bytes exceed
// the provider's byte budget; evicted datasets stay alive for callers
// that still hold the pointer and are simply regenerated on the next
// request.
//
// Sources: any spec data::parse_dataset_source accepts — a generator
// name, or "libsvm:<path>" to stream a LIBSVM file from disk (io.hpp).
//
// `get_sharded` is the shard-native entry point: for in-memory sources it
// builds O(1) zero-copy rank views over the cached full dataset (nothing
// extra is cached — the views share the full entry's storage); for
// `libsvm:` sources it streams the file *directly into per-rank shards*
// (io.hpp load_libsvm_sharded), so the full matrix never exists in one
// allocation. Streamed sharded entries are cached under key ⊕ shard-plan
// and account the summed per-shard bytes against the same LRU budget.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "data/dataset.hpp"
#include "data/partition.hpp"

namespace nadmm::data {

/// Content-defining parameters of a dataset. Two keys comparing equal
/// means the corresponding datasets are byte-identical.
struct DatasetKey {
  std::string source;        ///< generator name or "libsvm:<path>"
  std::size_t n_train = 0;
  std::size_t n_test = 0;
  std::size_t features = 0;  ///< p knob (honoured by e18/blobs; 0 = infer)
  std::uint64_t seed = 0;

  bool operator==(const DatasetKey&) const = default;

  /// True for file-backed sources that can stream into per-rank shards.
  [[nodiscard]] bool is_streamable() const {
    return source.rfind("libsvm:", 0) == 0;
  }

  /// Canonical string form — the cache-map key and journal/debug label.
  [[nodiscard]] std::string cache_tag() const;
};

/// Generate or load the dataset a key names (no caching). Shared by the
/// provider and the one-shot `runner::make_data` path.
TrainTest generate_dataset(const DatasetKey& key);

/// Sharded analogue of generate_dataset: streams `libsvm:` sources
/// directly into per-rank shards, and shards everything else as zero-copy
/// views of the materialized data (no caching).
ShardedDataset generate_sharded_dataset(const DatasetKey& key,
                                        const ShardPlan& plan);

class DatasetProvider {
 public:
  /// Default budget: large enough that paper-scale sweeps share every
  /// dataset, small enough to bound an unbounded grid.
  static constexpr std::size_t kDefaultByteBudget = 2ull << 30;  // 2 GiB

  explicit DatasetProvider(std::size_t byte_budget = kDefaultByteBudget);

  /// Fetch the dataset for `key`, generating it on a miss. Thread-safe;
  /// concurrent misses on one key generate once and share the result.
  std::shared_ptr<const TrainTest> get(const DatasetKey& key);

  /// Fetch the per-rank sharding of `key` under `plan`. In-memory
  /// sources: zero-copy views over the cached full dataset (one cache
  /// entry regardless of plan). Streamed sources: a dedicated cached
  /// entry per (key, plan) holding the per-rank shards, with their
  /// summed bytes in the LRU budget.
  std::shared_ptr<const ShardedDataset> get_sharded(const DatasetKey& key,
                                                    const ShardPlan& plan);

  /// Change the byte budget; evicts immediately if now over budget.
  void set_byte_budget(std::size_t bytes);
  [[nodiscard]] std::size_t byte_budget() const;

  /// Resident bytes across cached entries (excludes evicted datasets
  /// callers still hold).
  [[nodiscard]] std::size_t bytes_in_use() const;

  struct Stats {
    std::size_t generations = 0;  ///< datasets actually generated/loaded
    std::size_t hits = 0;         ///< gets served from cache
    std::size_t misses = 0;       ///< gets that had to generate
    std::size_t evictions = 0;    ///< entries dropped by the LRU budget
  };
  [[nodiscard]] Stats stats() const;

  /// Drop every cached entry (callers' shared_ptrs stay valid).
  void clear();

 private:
  struct Slot;

  /// One cached value: either a full TrainTest or a streamed
  /// ShardedDataset (exactly one pointer is set per entry).
  struct Entry {
    std::shared_ptr<const TrainTest> full;
    std::shared_ptr<const ShardedDataset> sharded;

    [[nodiscard]] std::size_t bytes() const {
      if (full != nullptr) return full->approx_bytes();
      if (sharded != nullptr) return sharded->resident_bytes;
      return 0;
    }
  };

  std::shared_ptr<const Entry> get_entry(const std::string& tag,
                                         const std::function<Entry()>& make);
  void evict_over_budget_locked(const std::string& keep_tag);

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Slot>> entries_;
  std::list<std::string> lru_;  ///< most-recent first
  std::size_t byte_budget_;
  std::size_t bytes_in_use_ = 0;
  Stats stats_;
};

}  // namespace nadmm::data
