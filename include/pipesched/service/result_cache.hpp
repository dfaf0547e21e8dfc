// Sharded LRU stores for solved portfolio results and memoized sub-results.
//
// ShardedLruStore<Value> is the shared mechanism: keyed by an exact canonical
// byte key (collision-free; the 128-bit fingerprint only selects the shard),
// so a hit always returns a value stored for a byte-identical key. Each shard
// holds its own mutex, map and LRU list — concurrent lookups on different
// shards never contend. Values are returned by copy: the store stays
// internally consistent however callers mutate their copies.
//
// Capacity semantics (pinned by tests/service/test_result_cache.cpp): the
// configured capacity is spread over the shards at ceil(capacity/shards)
// entries *per shard*, so total residency may exceed `capacity` by up to
// shards-1 entries when the key distribution is perfectly even. The bound is
// per-shard by design — a global LRU would serialize every lookup on one
// lock, defeating the sharding.
//
// Two instantiations serve the service layer:
//   * ResultCache = ShardedLruStore<PortfolioResult> — whole solved requests,
//     keyed by the full canonical request key (instance + sweep spec);
//   * SubResultCache (see portfolio.hpp) — per-threshold work units and
//     warm-start seeds, keyed by the sweep-independent instance key plus a
//     per-unit share key.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipesched/service/fingerprint.hpp"
#include "pipesched/service/request.hpp"

namespace pipesched::service {

/// Aggregate cache counters (summed over shards).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hitRatio() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <typename Value>
class ShardedLruStore {
 public:
  /// `capacity` entries total, spread over `shards` independent shards
  /// (each shard holds ceil(capacity/shards) — see the capacity semantics in
  /// the file comment). capacity == 0 disables the store: get() always
  /// misses, put() is a no-op.
  explicit ShardedLruStore(std::size_t capacity, std::size_t shards = 8) : capacity_(capacity) {
    if (shards == 0) shards = 1;
    shards = std::min(shards, std::max<std::size_t>(capacity, 1));
    perShardCapacity_ = capacity == 0 ? 0 : (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  }

  ShardedLruStore(const ShardedLruStore&) = delete;
  ShardedLruStore& operator=(const ShardedLruStore&) = delete;

  /// Copy of the stored value for `key`, refreshing its LRU position.
  [[nodiscard]] std::optional<Value> get(const Fingerprint& fp, const std::string& key) {
    Shard& shard = shardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
    return it->second->value;
  }

  /// Inserts (or refreshes) `value` under `key`, evicting the shard's least
  /// recently used entry when full.
  void put(const Fingerprint& fp, const std::string& key, Value value) {
    if (capacity_ == 0) return;
    Shard& shard = shardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= perShardCapacity_) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.push_front(Entry{key, std::move(value)});
    shard.index.emplace(shard.lru.front().key, shard.lru.begin());
    ++shard.insertions;
  }

  [[nodiscard]] CacheStats stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.insertions += shard->insertions;
      total.evictions += shard->evictions;
      total.entries += shard->lru.size();
    }
    return total;
  }

  /// Drops every entry (counters are kept).
  void clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->lru.clear();
      shard->index.clear();
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t perShardCapacity() const noexcept { return perShardCapacity_; }
  [[nodiscard]] std::size_t shardCount() const noexcept { return shards_.size(); }

 private:
  struct Entry {
    std::string key;
    Value value;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shardFor(const Fingerprint& fp) {
    return *shards_[fp.hi % shards_.size()];
  }

  std::size_t capacity_ = 0;
  std::size_t perShardCapacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Whole-result cache of solved portfolio requests, keyed by the full
/// canonical request key.
using ResultCache = ShardedLruStore<PortfolioResult>;

// Compiled once in result_cache.cpp; every other TU links against it.
extern template class ShardedLruStore<PortfolioResult>;

}  // namespace pipesched::service
