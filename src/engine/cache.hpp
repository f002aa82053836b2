// Thread-safe, content-addressed memoization cache for simulator
// results. Keys are fingerprint triples (see engine/fingerprint.hpp);
// values are complete TimeBreakdowns, so a hit reproduces the original
// miss exactly — including the `serving` level and `note` text.
//
// The cache is sharded: each shard holds an independent map behind its
// own mutex, so concurrent lookups of different keys rarely contend.
// The engine prices misses *outside* the shard locks, between
// lookup_batch and insert_batch; if two batches race on the same
// missing key, both price it (the model is pure, so the values are
// identical) and the first insert wins.
//
// Persistence hooks (used by the engine's durable store, see
// engine/persist.hpp): entries remember whether they were loaded from
// disk, freshly-computed entries queue in a per-shard "fresh" list the
// flush path drains, and disk-origin hits feed the persist.* counters.
// Every hook takes the same shard locks as the lookup path, so the
// flush thread, concurrent lookups, clear() and stats() are race-free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace sgp::engine {

/// One evaluation point: (machine, kernel signature, SimConfig).
struct CacheKey {
  std::uint64_t machine = 0;
  std::uint64_t signature = 0;
  std::uint64_t config = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    // The components are already FNV digests; mix with distinct odd
    // multipliers so (a,b,c) and (b,a,c) land apart.
    std::uint64_t h = k.machine * 0x9e3779b97f4a7c15ull;
    h ^= k.signature * 0xc2b2ae3d27d4eb4full;
    h ^= k.config * 0x165667b19e3779f9ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};

/// Per-instance persistence accounting (mirrored process-wide into the
/// obs registry as persist.hits / persist.misses / persist.resumed_points).
struct CachePersistStats {
  std::uint64_t hits = 0;    ///< lookups served by a disk-loaded entry
  std::uint64_t misses = 0;  ///< lookups that had to compute
  std::uint64_t resumed_points = 0;  ///< distinct disk entries reused
};

class SimCache {
 public:
  /// Batched lookup for the engine: groups the keys by shard and takes
  /// each touched shard's lock exactly once. For every present key it
  /// writes the value to results[i] and sets hit[i] = 1; absent keys
  /// leave results[i] untouched and hit[i] = 0. Hit/miss (and persist)
  /// statistics count one hit or miss per key. All three spans must
  /// have the same length.
  void lookup_batch(std::span<const CacheKey> keys,
                    std::span<sim::TimeBreakdown> results,
                    std::span<std::uint8_t> hit);

  /// Batched insert of freshly-computed entries, one lock acquisition
  /// per touched shard. First insert wins (racing callers compute
  /// identical values) and only winning inserts queue for persistence,
  /// so a flush writes each computed point exactly once. No effect on
  /// the hit/miss statistics.
  void insert_batch(std::span<const CacheKey> keys,
                    std::span<const sim::TimeBreakdown> values);

  void clear();
  CacheStats stats() const;
  void reset_stats();

  // ------------------------------------------- persistence hooks --

  /// Turns on disk-origin accounting and fresh-entry tracking. Off by
  /// default so non-persistent engines pay nothing and emit no
  /// persist.* counters.
  void set_persist_tracking(bool on) {
    persist_tracking_.store(on, std::memory_order_relaxed);
  }

  /// Inserts an entry recovered from the durable store. No effect on
  /// hit/miss statistics; never queues into the fresh list. An entry
  /// already present (e.g. duplicated across segments) is kept as-is.
  void insert_loaded(const CacheKey& key, const sim::TimeBreakdown& value);

  /// Removes and returns every freshly-computed entry queued since the
  /// last drain, for the flush path. Safe against concurrent inserts;
  /// an entry is returned exactly once across all drains.
  std::vector<std::pair<CacheKey, sim::TimeBreakdown>> drain_fresh();

  /// Entries currently queued for the next drain.
  std::uint64_t fresh_entries() const noexcept {
    return fresh_count_.load(std::memory_order_relaxed);
  }

  CachePersistStats persist_stats() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Entry {
    sim::TimeBreakdown value;
    bool from_disk = false;
    bool resume_counted = false;  ///< first disk-hit already tallied
  };

  struct Shard {
    /// mutable: stats() locks shards on a const cache.
    mutable std::mutex mu;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map;
    /// Keys inserted by compute since the last drain (persist only).
    std::vector<CacheKey> fresh;
  };

  static std::size_t shard_index(const CacheKey& key) noexcept {
    return CacheKeyHash{}(key) % kShards;
  }

  Shard& shard_of(const CacheKey& key) { return shards_[shard_index(key)]; }

  bool tracking() const noexcept {
    return persist_tracking_.load(std::memory_order_relaxed);
  }

  /// Tallies a hit on `e` under the owning shard's lock.
  void count_hit(Entry& e);

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<bool> persist_tracking_{false};
  std::atomic<std::uint64_t> fresh_count_{0};
  std::atomic<std::uint64_t> persist_hits_{0};
  std::atomic<std::uint64_t> persist_misses_{0};
  std::atomic<std::uint64_t> persist_resumed_{0};
  /// Process-wide mirrors of the per-instance statistics, aggregated
  /// over every SimCache in the obs registry ("engine.cache.*"), so a
  /// metrics snapshot carries the cache story without asking each
  /// engine. Per-instance stats() remains the A/B accounting tool.
  obs::Counter& obs_hits_ =
      obs::registry().counter("engine.cache.hits");
  obs::Counter& obs_misses_ =
      obs::registry().counter("engine.cache.misses");
  obs::Counter& obs_persist_hits_ =
      obs::registry().counter("persist.hits");
  obs::Counter& obs_persist_misses_ =
      obs::registry().counter("persist.misses");
  obs::Counter& obs_persist_resumed_ =
      obs::registry().counter("persist.resumed_points");
};

}  // namespace sgp::engine
