// Reusable decode scratch for the replay engine.
//
// Replaying a sweep no longer walks the TraceCursor once per rep:
// decode_sweep flattens the cursor's run stream ONCE into a flat
// std::vector<LineSegment> (same-line accesses fused, reads before
// writes) and every rep replays that buffer through
// Hierarchy::access_batch. The buffers live in a ReplayArena that the
// replay engine reuses across calls, so steady-state replays allocate
// nothing: the arena caches the most recent decodes keyed by
// (SweepSpec, line_bytes).
//
// Lifetime rules (docs/CACHESIM.md): a DecodedSweep reference returned
// by ReplayArena::decoded stays valid until the arena evicts it (after
// kSlots further distinct decodes) or the arena is destroyed. The
// replay engine always decodes into the thread_local default arena, so
// concurrent replays on different threads never share one; an arena
// must never be shared across threads without external locking.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/trace.hpp"

namespace sgp::cachesim {

/// One sweep decoded to the flat segment buffer access_batch consumes.
/// For Gather this is where the randomly gathered index stream gets
/// precomputed: the mt19937 draw happens once at decode time, not once
/// per rep.
struct DecodedSweep {
  std::vector<LineSegment> segments;
  std::uint64_t runs = 0;      ///< access runs the cursor emitted
  std::uint64_t accesses = 0;  ///< logical accesses (== cursor total)

  /// Cache key.
  SweepSpec spec;
  std::size_t line_bytes = 0;
  bool valid = false;

  /// Stamp of last use, for LRU slot reuse.
  std::uint64_t last_used = 0;
};

/// Flattens one full sweep into `out.segments`: every run is split at
/// `line_bytes` boundaries and consecutive same-line pieces are fused
/// into read-then-write segments (reads merge only while the segment
/// has no writes yet — a write-then-read pair is never fused, keeping
/// the access order exact). Reuses out.segments' capacity.
void decode_sweep(const SweepSpec& spec, std::size_t line_bytes,
                  DecodedSweep& out);

class ReplayArena {
 public:
  static constexpr std::size_t kSlots = 8;

  /// The decoded segment buffer for (spec, line_bytes), decoding on
  /// first use and serving repeat requests from the slot cache. The
  /// reference is invalidated by arena destruction or after kSlots
  /// distinct further decodes.
  const DecodedSweep& decoded(const SweepSpec& spec,
                              std::size_t line_bytes);

  /// The engine-wide default arena for this thread.
  static ReplayArena& thread_default();

 private:
  std::vector<DecodedSweep> slots_;
  std::uint64_t use_clock_ = 0;
};

}  // namespace sgp::cachesim
