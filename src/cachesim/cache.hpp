// Trace-driven set-associative cache simulator. This is the detailed
// counterpart of the analytical sim::CacheModel: it executes address
// traces against a real set/way/LRU structure, and the validation tests
// check that the analytical model's serving-level decisions agree with
// simulated miss rates on synthetic kernels.
//
// The hot entry points are batch-based: a decoder (arena.hpp) turns a
// TraceCursor run stream into a flat buffer of LineSegments (same-line
// groups of consecutive accesses, reads before writes) and
// Hierarchy::access_batch replays the buffer with one tag check per
// segment. Per-set state is structure-of-arrays (separate tag / stamp /
// dirty arrays with an invalid-tag sentinel), so the way scan is a
// branch-light linear probe over a contiguous tag array and set/tag
// math is shift-and-mask, not division. The coalescing is exact — the
// per-access `access` path, the run path and the batch path produce
// bit-identical CacheStats — because a segment's same-line accesses
// are consecutive in the global access order, so nothing can intervene
// and evict the line between them (see docs/CACHESIM.md).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace sgp::cachesim {

using Addr = std::uint64_t;

enum class ReplacementPolicy { LRU, FIFO };

struct CacheConfig {
  std::string name = "L1";
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t ways = 8;
  ReplacementPolicy policy = ReplacementPolicy::LRU;
  bool write_allocate = true;

  std::size_t num_sets() const { return size_bytes / (line_bytes * ways); }

  /// Throws std::invalid_argument on non-power-of-two geometry or
  /// inconsistent sizes.
  void validate() const;
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  /// Writebacks arriving from the level above (see write_back_line).
  /// Kept separate from the demand counters so miss rates measure
  /// demand traffic only; a wb_miss at the last level is DRAM write
  /// traffic (dram_bytes()).
  std::uint64_t wb_hits = 0;
  std::uint64_t wb_misses = 0;

  /// Demand accesses (writeback absorption excluded).
  std::uint64_t accesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t misses() const { return read_misses + write_misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses()) / a;
  }

  bool operator==(const CacheStats&) const = default;

  CacheStats& operator+=(const CacheStats& o) {
    read_hits += o.read_hits;
    read_misses += o.read_misses;
    write_hits += o.write_hits;
    write_misses += o.write_misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    wb_hits += o.wb_hits;
    wb_misses += o.wb_misses;
    return *this;
  }
  CacheStats& operator-=(const CacheStats& o) {
    read_hits -= o.read_hits;
    read_misses -= o.read_misses;
    write_hits -= o.write_hits;
    write_misses -= o.write_misses;
    evictions -= o.evictions;
    writebacks -= o.writebacks;
    wb_hits -= o.wb_hits;
    wb_misses -= o.wb_misses;
    return *this;
  }
  /// Every field multiplied by `k` (steady-state rep extrapolation).
  CacheStats scaled(std::uint64_t k) const {
    return CacheStats{read_hits * k,  read_misses * k,  write_hits * k,
                      write_misses * k, evictions * k,  writebacks * k,
                      wb_hits * k,    wb_misses * k};
  }
};

/// `count` accesses starting at `base`, advancing `step_bytes` per
/// access (0 = the same address repeatedly). A run never mixes reads
/// and writes, and its accesses are consecutive in the trace order.
struct AccessRun {
  Addr base = 0;
  std::uint64_t step_bytes = 0;
  std::uint64_t count = 1;
  bool is_write = false;

  bool operator==(const AccessRun&) const = default;
};

/// A decoded batch element: `reads` read accesses followed by `writes`
/// write accesses, all consecutive in the trace order and all falling
/// into the L1 line holding `addr`. Pure-read (writes == 0), pure-write
/// (reads == 0) and read-modify-write segments share one layout so the
/// replay loop is a single tight pass over a flat 16-byte-element
/// array.
struct LineSegment {
  Addr addr = 0;
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;

  bool operator==(const LineSegment&) const = default;
};

/// Allocator for the per-set state arrays: calloc storage and no-op
/// value-initialisation, so a freshly sized vector is all-zero without
/// touching its pages. Large arrays come back as fresh mmap pages, so
/// a cache's untouched sets cost neither page faults nor a memset: a
/// replay on the SG2042 hierarchy (17 MB of state for its 64 MB L3)
/// pays only for the sets its sweep touches, not for the whole L3.
template <typename T>
struct ZeroedAlloc {
  using value_type = T;
  ZeroedAlloc() = default;
  template <typename U>
  ZeroedAlloc(const ZeroedAlloc<U>&) noexcept {}
  T* allocate(std::size_t n) {
    if (void* p = std::calloc(n, sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }
  /// Value-initialisation: calloc already zeroed the element.
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const ZeroedAlloc&, const ZeroedAlloc&) {
    return true;
  }
};

/// One level of cache. Accesses report hit/miss; misses are meant to be
/// forwarded to the next level by the caller (see Hierarchy).
class Cache {
 public:
  /// Outcome of access_line/access_rw: whether the (first) access hit,
  /// and whether installing on a miss evicted a dirty victim the caller
  /// must write back to the next level.
  struct LineOutcome {
    bool hit = false;
    bool writeback = false;
    Addr victim_addr = 0;  ///< line-aligned address of the dirty victim
  };

  explicit Cache(CacheConfig config);

  const CacheConfig& config() const noexcept { return config_; }
  const CacheStats& stats() const noexcept { return stats_; }

  /// True on hit. On miss the line is installed (allocate-on-miss; for
  /// writes only when write_allocate).
  bool access(Addr addr, bool is_write);

  /// `n` consecutive accesses that all fall into the line holding
  /// `addr`, performed as one tag check. Exactly equivalent to calling
  /// `access` n times on same-line addresses back to back: on a hit all
  /// n count as hits; on an allocating miss the first counts as the
  /// miss and the remaining n-1 hit the just-installed line; a
  /// write-around miss counts all n as write misses. LRU stamps end at
  /// the clock after the last access, FIFO stamps keep the fill time.
  LineOutcome access_line(Addr addr, bool is_write, std::uint64_t n = 1);

  /// One LineSegment: `reads` reads then `writes` writes on the line
  /// holding `addr` (reads + writes >= 1), as one tag check. Exactly
  /// equivalent to access_line(addr, false, reads) followed by
  /// access_line(addr, true, writes): the write part always hits the
  /// line the read part installed (or found), even on write-around
  /// caches, because reads allocate unconditionally.
  LineOutcome access_rw(Addr addr, std::uint32_t reads,
                        std::uint32_t writes);

  /// Demand-replays a whole segment buffer against this single cache
  /// (no miss forwarding — the single-level fast path of
  /// Hierarchy::access_batch). Returns the number of logical accesses
  /// replayed.
  std::uint64_t access_batch(std::span<const LineSegment> segs);

  /// Absorbs a writeback arriving from the level above: on hit the
  /// resident line turns dirty (counted as a wb_hit) and true is
  /// returned; on miss a wb_miss is counted, nothing is allocated
  /// (writeback data needs no fill), and false tells the hierarchy to
  /// forward the writeback further down. Writeback absorption is
  /// accounted separately from demand traffic.
  bool write_back_line(Addr addr);

  /// Folds externally accounted events into the statistics — used by
  /// the replay engine's steady-state extrapolation, which skips
  /// simulating reps whose per-level deltas are already periodic.
  void add_stats(const CacheStats& delta) { stats_ += delta; }

  /// Is the line currently resident (no state change)?
  bool probe(Addr addr) const;

  /// Invalidate everything (keeps statistics).
  void flush();

  /// Lines currently resident.
  std::size_t resident_lines() const;

 private:
  std::size_t set_of(Addr addr) const noexcept {
    return static_cast<std::size_t>(addr >> line_shift_) & set_mask_;
  }
  /// The word stored in tags_: the tag plus one, so that zero marks
  /// an invalid way (real tags are < 2^61 for >= 8-byte lines).
  Addr tag_of(Addr addr) const noexcept {
    return ((addr >> line_shift_) >> set_shift_) + 1;
  }

  CacheConfig config_;
  CacheStats stats_;

  // Structure-of-arrays per-set state, each sized sets * ways and
  // indexed row-major by (set, way). Invalid ways are all-zero: tag
  // word 0 (see tag_of) and stamp 0 (valid lines always stamp >= 1, so
  // the victim scan is a single min-stamp probe that naturally prefers
  // the first invalid way, exactly like the legacy
  // first-invalid-else-oldest walk).
  std::vector<Addr, ZeroedAlloc<Addr>> tags_;
  std::vector<std::uint64_t, ZeroedAlloc<std::uint64_t>> stamps_;
  std::vector<std::uint8_t, ZeroedAlloc<std::uint8_t>> dirty_;

  std::uint64_t clock_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
  std::uint32_t set_shift_ = 0;   ///< log2(num_sets)
  std::size_t set_mask_ = 0;      ///< num_sets - 1
  std::size_t ways_ = 0;
  bool lru_ = true;
  bool write_allocate_ = true;
};

/// An inclusive-enough multi-level hierarchy: an access walks down the
/// levels until it hits; lower levels are only consulted (and filled) on
/// a miss above. A dirty line evicted from level i is written back to
/// level i+1 after the demand walk completes: it re-dirties the line
/// when resident (write hit) and otherwise passes through as a write
/// miss towards memory without allocating. Reports per-level stats and
/// the DRAM traffic in bytes.
class Hierarchy {
 public:
  /// Accesses processed through the run/batch APIs, for obs
  /// instrumentation.
  struct RunTelemetry {
    std::uint64_t runs = 0;           ///< access runs decoded/replayed
    std::uint64_t line_segments = 0;  ///< L1 tag checks those runs cost
    std::uint64_t coalesced = 0;      ///< accesses folded into segments
    std::uint64_t accesses = 0;       ///< logical accesses replayed
  };

  explicit Hierarchy(std::vector<CacheConfig> levels);

  /// Performs one access; returns the deepest level index that HIT, or
  /// levels() if it went to memory.
  std::size_t access(Addr addr, bool is_write);

  /// Replays a whole run, coalescing the accesses that share an L1
  /// line into one tag check per line touched. Bit-identical
  /// statistics to calling `access` once per run element.
  void access_run(const AccessRun& run);

  /// Replays a decoded segment buffer (arena.hpp): one L1 tag check
  /// per segment, the miss walk out of line. Bit-identical statistics
  /// to replaying each segment's reads-then-writes through `access`.
  /// `runs` is the number of access runs the buffer was decoded from,
  /// folded into telemetry only.
  void access_batch(std::span<const LineSegment> segs,
                    std::uint64_t runs = 0);

  std::size_t levels() const noexcept { return caches_.size(); }
  const Cache& level(std::size_t i) const { return caches_.at(i); }

  /// Adds an externally computed stats delta to one level (replay
  /// steady-state extrapolation).
  void add_stats(std::size_t level, const CacheStats& delta) {
    caches_.at(level).add_stats(delta);
  }

  /// Bytes fetched from memory (miss traffic of the last level).
  std::uint64_t dram_bytes() const;

  const RunTelemetry& telemetry() const noexcept { return telemetry_; }

  void flush();

 private:
  /// One segment: L1 tag check inline, miss walk + writebacks out of
  /// line. Returns the deepest level that hit (levels() = memory).
  std::size_t process_segment(Addr addr, std::uint32_t reads,
                              std::uint32_t writes);
  /// Demand walk below L1 plus deferred writebacks after an L1 miss.
  std::size_t miss_walk(Addr addr, std::uint32_t reads,
                        std::uint32_t writes,
                        const Cache::LineOutcome& l1_out);
  /// Walks a writeback down from `level` until a cache absorbs it.
  void write_back(std::size_t level, Addr addr);

  std::vector<Cache> caches_;
  /// (next level, victim address) collected during one demand walk.
  std::vector<std::pair<std::size_t, Addr>> pending_wb_;
  RunTelemetry telemetry_;
};

}  // namespace sgp::cachesim
