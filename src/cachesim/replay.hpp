// Zero-materialization streaming replay engine over the trace-driven
// cache simulator.
//
// The legacy path materialized every access of a sweep into a
// std::vector<AccessRecord> and walked it one address at a time —
// O(elems x arrays x reps) memory traffic just to *build* the input.
// Here the sweep is decoded ONCE (arena.hpp) into a flat
// LineSegment buffer — same-line accesses fused into read-then-write
// segments, Gather's random index stream precomputed — and every rep
// replays that buffer through Hierarchy::access_batch: one
// structure-of-arrays tag probe per segment, no per-rep RNG, no
// per-rep allocation. replay_stream stops simulating reps once the
// per-level stats deltas of two consecutive reps are identical,
// extrapolating the remaining reps arithmetically (exact whenever two
// equal deltas imply a closed state orbit — which holds for every
// pattern, Gather included, because each rep replays the identical
// decoded buffer).
//
// generate_sweep (trace.hpp) is reimplemented on top of TraceCursor,
// so the materialized trace, the decoded segment buffer and the
// streamed runs are the same access sequence by construction and both
// replay paths produce bit-identical CacheStats — bench/micro_cachesim
// asserts exactly that, per pattern, while measuring the throughput
// win.
//
// Obs counters (docs/OBSERVABILITY.md): cachesim.replays,
// cachesim.runs, cachesim.line_segments, cachesim.accesses_coalesced,
// cachesim.accesses_simulated, cachesim.reps_skipped; each replay is
// wrapped in a "cachesim.replay" span.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/trace.hpp"

namespace sgp::cachesim {

/// Pull-based generator for the access runs of one full sweep over a
/// SweepSpec. Streaming/Strided sweeps are emitted as per-array runs
/// interleaved at a fixed element-block granularity (kRunBlockElems),
/// so each run covers many consecutive same-array elements; the
/// stencil/gather/recurrence patterns keep their per-element run
/// structure. The cursor defines the canonical trace order —
/// generate_sweep flattens exactly this run stream, and decode_sweep
/// (arena.hpp) fuses it into the batch-replay segment buffer.
class TraceCursor {
 public:
  /// Element-block granularity for Streaming/Strided run emission:
  /// arrays advance in lockstep block by block, preserving the
  /// interleaved locality structure of the legacy element loop.
  static constexpr std::size_t kRunBlockElems = 256;

  /// Throws std::invalid_argument on an empty spec (no arrays or
  /// elements), like generate_sweep.
  explicit TraceCursor(const SweepSpec& spec);

  /// Yields the next run; false once the sweep is exhausted.
  bool next(AccessRun& out);

  /// Restarts the sweep (Gather re-seeds its RNG, so every rep replays
  /// the identical address sequence).
  void rewind();

  /// Exact number of accesses one full sweep emits — what
  /// generate_sweep reserves (and produces).
  std::uint64_t total_accesses() const noexcept { return total_; }

  const SweepSpec& spec() const noexcept { return spec_; }

 private:
  Addr array_addr(std::size_t array, std::size_t elem) const;

  SweepSpec spec_;
  std::size_t reads_ = 1;       ///< arrays read per position
  bool has_write_ = false;      ///< last array is written
  std::size_t streams_ = 1;     ///< runs emitted per position
  std::size_t stride_ = 1;      ///< Strided only
  std::size_t row_ = 0;         ///< Stencil2D/3D/Blocked neighbour row
  std::uint64_t total_ = 0;

  // Position state (reset by rewind).
  std::size_t i_ = 0;       ///< element or block start index
  std::size_t k_ = 0;       ///< index within the current strided phase
  std::size_t phase_ = 0;   ///< strided phase
  std::size_t stream_ = 0;  ///< substream within the current position
  std::mt19937 rng_;
  std::uniform_int_distribution<std::size_t> dist_;
};

struct ReplayOptions {
  int l2_sharers = 1;
  int l3_sharers = 1;
  /// Extrapolate once two consecutive reps have identical per-level
  /// stats deltas. Applies to every pattern (Gather replays the same
  /// decoded buffer each rep, so its state orbit closes like any
  /// other pattern's).
  bool early_exit = true;
};

/// Streaming replay — the production replay path: segment buffer
/// decoded once into this thread's ReplayArena::thread_default(),
/// replayed through access_batch, with steady-state early exit.
/// Bit-identical results to replay_vector on every pattern.
ReplayResult replay_stream(const machine::MachineDescriptor& m,
                           const SweepSpec& spec, int reps,
                           const ReplayOptions& opt = {});

/// Config-level variant: replays on an explicit hierarchy (the
/// l2_sharers/l3_sharers fields of `opt` are ignored — sharing is
/// already baked into the configs). Lets oracles exercise FIFO /
/// write-around / single-level hierarchies the descriptor path never
/// builds.
ReplayResult replay_stream(const std::vector<CacheConfig>& cfgs,
                           const SweepSpec& spec, int reps,
                           const ReplayOptions& opt = {});

/// The legacy vector-materialized path (generate_sweep once, then one
/// Hierarchy::access per record per rep, all reps simulated). Kept as
/// the A/B reference for bench/micro_cachesim and the agreement
/// fuzzers in src/check.
ReplayResult replay_vector(const machine::MachineDescriptor& m,
                           const SweepSpec& spec, int reps,
                           const ReplayOptions& opt = {});

ReplayResult replay_vector(const std::vector<CacheConfig>& cfgs,
                           const SweepSpec& spec, int reps,
                           const ReplayOptions& opt = {});

}  // namespace sgp::cachesim
