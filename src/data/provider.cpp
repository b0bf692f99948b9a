#include "data/provider.hpp"

#include <future>
#include <sstream>

#include "data/generators.hpp"
#include "data/io.hpp"
#include "support/check.hpp"

namespace nadmm::data {

std::string DatasetKey::cache_tag() const {
  std::ostringstream os;
  os << source << "|n" << n_train << "|t" << n_test << "|p" << features
     << "|s" << seed;
  return os.str();
}

TrainTest generate_dataset(const DatasetKey& key) {
  const DatasetSource source = parse_dataset_source(key.source);
  if (source.generator) {
    return source.generator(key.n_train, key.n_test, key.features, key.seed);
  }
  // A file's feature dimension comes from the file itself; the `features`
  // knob is a generator parameter (e18/blobs) and is ignored here —
  // dataset_key() zeroes it so equivalent keys share one cache entry. The
  // one-part plan streams both whole splits into rank 0.
  ShardedDataset whole = load_libsvm_sharded(source.libsvm_path, key.n_train,
                                             key.n_test, ShardPlan{});
  return {std::move(whole.ranks[0].train), std::move(whole.ranks[0].test)};
}

ShardedDataset generate_sharded_dataset(const DatasetKey& key,
                                        const ShardPlan& plan) {
  if (key.is_streamable()) {
    return load_libsvm_sharded(parse_dataset_source(key.source).libsvm_path,
                               key.n_train, key.n_test, plan);
  }
  const TrainTest tt = generate_dataset(key);
  return make_sharded(tt.train, &tt.test, plan);
}

struct DatasetProvider::Slot {
  std::shared_future<std::shared_ptr<const Entry>> future;
  std::size_t bytes = 0;
  std::list<std::string>::iterator lru_it;
  bool ready = false;  ///< bytes accounted toward the budget
};

DatasetProvider::DatasetProvider(std::size_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<const DatasetProvider::Entry> DatasetProvider::get_entry(
    const std::string& tag, const std::function<Entry()>& make) {
  std::promise<std::shared_ptr<const Entry>> promise;
  std::shared_ptr<Slot> slot;
  bool creator = false;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = entries_.find(tag);
    if (it != entries_.end()) {
      slot = it->second;
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, slot->lru_it);
    } else {
      ++stats_.misses;
      slot = std::make_shared<Slot>();
      slot->future = promise.get_future().share();
      lru_.push_front(tag);
      slot->lru_it = lru_.begin();
      entries_.emplace(tag, slot);
      creator = true;
    }
  }

  // Cache hit (or a miss already in flight): wait on the shared future —
  // a failed generation propagates its exception to every waiter.
  if (!creator) return slot->future.get();

  try {
    auto entry = std::make_shared<const Entry>(make());
    const std::size_t bytes = entry->bytes();
    promise.set_value(entry);
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.generations;
      // The entry may have been cleared/evicted while we generated; only
      // account for it if our slot is still the cached one.
      const auto it = entries_.find(tag);
      if (it != entries_.end() && it->second == slot) {
        slot->bytes = bytes;
        slot->ready = true;
        bytes_in_use_ += bytes;
        evict_over_budget_locked(tag);
      }
    }
    return entry;
  } catch (...) {
    promise.set_exception(std::current_exception());
    const std::scoped_lock lock(mutex_);
    const auto it = entries_.find(tag);
    if (it != entries_.end() && it->second == slot) {
      lru_.erase(slot->lru_it);
      entries_.erase(it);
    }
    throw;
  }
}

std::shared_ptr<const TrainTest> DatasetProvider::get(const DatasetKey& key) {
  const auto entry = get_entry(key.cache_tag(), [&key] {
    return Entry{std::make_shared<const TrainTest>(generate_dataset(key)),
                 nullptr};
  });
  NADMM_ASSERT(entry->full != nullptr);
  return entry->full;
}

std::shared_ptr<const ShardedDataset> DatasetProvider::get_sharded(
    const DatasetKey& key, const ShardPlan& plan) {
  if (!key.is_streamable() && plan.mode != PartitionMode::kStrided) {
    // In-memory view plans (contiguous/weighted): shard the cached full
    // dataset as zero-copy views. The views share (and keep alive) the
    // full entry's storage, so no second cache entry — and no extra
    // bytes — are created.
    const auto full = get(key);
    return std::make_shared<const ShardedDataset>(
        make_sharded(full->train, &full->test, plan));
  }
  // Streamed sources and strided gather copies own real per-shard
  // buffers: cache them per (key, plan) with their bytes in the budget.
  // A strided in-memory entry re-slices the cached full dataset, so
  // repeated scenarios on the same plan share one set of copies instead
  // of re-gathering per scenario.
  const std::string tag = key.cache_tag() + "|shard:" + plan.cache_tag();
  const auto entry = get_entry(tag, [this, &key, &plan] {
    if (key.is_streamable()) {
      return Entry{nullptr, std::make_shared<const ShardedDataset>(
                                generate_sharded_dataset(key, plan))};
    }
    const auto full = get(key);
    return Entry{nullptr, std::make_shared<const ShardedDataset>(
                              make_sharded(full->train, &full->test, plan))};
  });
  NADMM_ASSERT(entry->sharded != nullptr);
  return entry->sharded;
}

void DatasetProvider::evict_over_budget_locked(const std::string& keep_tag) {
  // LRU-first pass over everything except the entry just used; the
  // in-flight (non-ready) slots have unknown size and are skipped.
  for (auto it = lru_.end();
       it != lru_.begin() && bytes_in_use_ > byte_budget_;) {
    --it;
    if (*it == keep_tag) continue;
    const auto e = entries_.find(*it);
    if (e == entries_.end() || !e->second->ready) continue;
    bytes_in_use_ -= e->second->bytes;
    ++stats_.evictions;
    entries_.erase(e);
    it = lru_.erase(it);
  }
  // A single dataset larger than the whole budget is handed to the caller
  // but not retained.
  if (bytes_in_use_ > byte_budget_) {
    const auto e = entries_.find(keep_tag);
    if (e != entries_.end() && e->second->ready) {
      bytes_in_use_ -= e->second->bytes;
      ++stats_.evictions;
      lru_.erase(e->second->lru_it);
      entries_.erase(e);
    }
  }
}

std::size_t DatasetProvider::bytes_in_use() const {
  const std::scoped_lock lock(mutex_);
  return bytes_in_use_;
}

DatasetProvider::Stats DatasetProvider::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

void DatasetProvider::clear() {
  const std::scoped_lock lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_in_use_ = 0;
}

}  // namespace nadmm::data
