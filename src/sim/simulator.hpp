// Facade: estimates the wall time of a full kernel run (all reps) on a
// machine descriptor under a SimConfig.
//
// Two entry points share one pricing kernel, so their outputs are
// bit-identical:
//  * run()        — one (signature, config) point; builds a throwaway
//                   EvalContext internally.
//  * run_batch()  — a whole grid slice against a caller-held
//                   EvalContext (see sim/eval_context.hpp): codegen
//                   plans, core costs and pattern/byte constants are
//                   resolved once per (machine, signature) and the
//                   inner loops run over per-thread SoA scratch columns
//                   with zero per-point allocation.
// Placement-occupancy statistics (what machine::analyze returns for
// every (placement, nthreads) pair) are precomputed at construction, so
// neither path walks the topology per point.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/model.hpp"
#include "core/signature.hpp"
#include "machine/descriptor.hpp"
#include "sim/cache_model.hpp"
#include "sim/config.hpp"
#include "sim/core_model.hpp"
#include "sim/memory_model.hpp"
#include "sim/sync_model.hpp"

namespace sgp::sim {

class EvalContext;

/// Where the time went, over the whole run (reps included). Plain data
/// with no heap state: the code-path note is an enum plus the fields
/// its text interpolates; serialization paths call note_string().
struct TimeBreakdown {
  double compute_s = 0.0;
  double memory_s = 0.0;
  double sync_s = 0.0;
  double atomic_s = 0.0;
  double total_s = 0.0;
  MemLevel serving = MemLevel::DRAM;
  bool vector_path = false;
  compiler::NoteKind note = compiler::NoteKind::VectorisationDisabled;
  core::CompilerId note_compiler = core::CompilerId::Gcc;
  core::VectorMode note_mode = core::VectorMode::Scalar;
  bool note_rollback = false;

  /// Renders the note byte-identically to the historical string field.
  /// `machine_name` is interpolated only for NoteKind::NoVectorUnit.
  std::string note_string(std::string_view machine_name) const {
    return compiler::note_text(note, note_compiler, note_mode,
                               note_rollback, machine_name);
  }
};

class Simulator {
 public:
  /// Takes ownership of the descriptor; validates it, then precomputes
  /// the placement-occupancy tables for every (placement, nthreads).
  /// The tables are built incrementally, one walk of the full-machine
  /// core order per placement, so construction is O(cores) rows of
  /// O(regions + clusters) each.
  explicit Simulator(machine::MachineDescriptor m);

  const machine::MachineDescriptor& machine() const noexcept { return m_; }

  /// Full breakdown for one kernel under one configuration.
  TimeBreakdown run(const core::KernelSignature& sig,
                    const SimConfig& cfg) const;

  /// Prices a grid slice: out[i] = run(ctx.signature(), cfgs[i]), bit
  /// for bit, with the per-point derivations amortized through `ctx`
  /// (which must have been built against this simulator). Prepares the
  /// combos `cfgs` need first (EvalContext::prepare). Throws
  /// std::invalid_argument on a foreign context, mismatched span
  /// lengths, or any invalid config; on a throw `out` is unspecified.
  void run_batch(EvalContext& ctx, std::span<const SimConfig> cfgs,
                 std::span<TimeBreakdown> out) const;

  /// As above against an already-prepared context, which is only read:
  /// many threads may price against one context at once. Throws
  /// std::logic_error when a config's combo was never prepared.
  void run_batch(const EvalContext& ctx, std::span<const SimConfig> cfgs,
                 std::span<TimeBreakdown> out) const;

  /// Shorthand for run(...).total_s.
  double seconds(const core::KernelSignature& sig,
                 const SimConfig& cfg) const {
    return run(sig, cfg).total_s;
  }

  /// Equals machine::analyze(m, assign_cores(m, p, nthreads)), read
  /// from the precomputed table; nthreads must be in [1, num_cores].
  const machine::PlacementStats& placement_stats(machine::Placement p,
                                                 int nthreads) const {
    return placement_stats_[static_cast<std::size_t>(p)]
                           [static_cast<std::size_t>(nthreads - 1)];
  }

 private:
  friend class EvalContext;

  /// The shared pricing kernel behind run() and run_batch().
  void price(const EvalContext& ctx, std::span<const SimConfig> cfgs,
             std::span<TimeBreakdown> out) const;

  machine::MachineDescriptor m_;
  CacheModel cache_;
  MemoryModel memory_;
  CoreModel core_;
  SyncModel sync_;
  /// [placement][nthreads - 1], filled in the constructor.
  std::array<std::vector<machine::PlacementStats>, 3> placement_stats_;
};

}  // namespace sgp::sim
