// Synthetic address-trace generators mirroring the AccessPattern
// taxonomy of the analytical model, and the per-level cache configs
// of a machine descriptor that kernel-like sweeps replay on.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "core/types.hpp"
#include "machine/descriptor.hpp"

namespace sgp::cachesim {

struct AccessRecord {
  Addr addr = 0;
  bool is_write = false;
};

using Trace = std::vector<AccessRecord>;

/// Trace of one full sweep over `arrays` arrays of `elems` elements of
/// `elem_bytes` each, in the given pattern. Arrays are laid out
/// contiguously starting at `base`, separated by a guard page.
struct SweepSpec {
  core::AccessPattern pattern = core::AccessPattern::Streaming;
  std::size_t arrays = 2;        ///< first arrays-1 are read, last is written
  std::size_t elems = 1 << 16;
  std::size_t elem_bytes = 8;
  std::size_t stride_elems = 8;  ///< Strided pattern only
  unsigned seed = 7;             ///< Gather pattern only
  Addr base = 1 << 20;

  /// Field-wise equality — the decode cache key in ReplayArena.
  bool operator==(const SweepSpec&) const = default;
};

/// Materializes one full sweep by flattening the TraceCursor run
/// stream (replay.hpp); reserves the exact per-pattern access count up
/// front. Kept for the legacy vector-replay path and tools that want a
/// concrete trace.
Trace generate_sweep(const SweepSpec& spec);

/// Per-level configs mirroring a machine descriptor's per-core view
/// (private L1, the core's share of L2, the core's share of L3 when
/// core-side). `l2_sharers`/`l3_sharers` model how many active cores
/// divide the shared levels. Build a Hierarchy from them, or perturb
/// them for config-level oracles.
std::vector<CacheConfig> hierarchy_configs(
    const machine::MachineDescriptor& m, int l2_sharers = 1,
    int l3_sharers = 1);

/// Outcome of replaying a sweep `reps` times (flushing nothing in
/// between, like a RAJAPerf kernel re-running over resident data) —
/// see replay_stream / replay_vector in replay.hpp.
struct ReplayResult {
  Hierarchy hierarchy;
  std::uint64_t accesses = 0;
  /// Miss rate of the *last* rep at each level (steady state).
  std::vector<double> steady_miss_rate;
};

}  // namespace sgp::cachesim
