// Per-(machine, kernel signature) evaluation context for batched grid
// pricing. Everything Simulator::run used to re-derive per point that
// does not depend on the SimConfig is resolved here once — signature
// validation, pattern bandwidth efficiency, per-precision working-set
// and streamed-byte volumes — and the twelve possible
// (precision, compiler, vector mode) codegen plans plus per-iteration
// core costs are resolved by prepare(). Simulator::run_batch prices a
// whole grid slice against one context with zero per-point allocation
// (its SoA scratch columns are per thread, not part of the context).
//
// A context borrows the simulator and the signature; both must outlive
// it. prepare() is the only mutation: once the combos a batch needs are
// prepared, pricing only reads the context, so many threads may price
// against one context as long as nobody prepares it concurrently.
// SweepEngine keeps one context per (machine, signature) for its
// lifetime and prepares them on the calling thread, under its lock,
// before any worker runs.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "compiler/model.hpp"
#include "core/signature.hpp"
#include "core/types.hpp"
#include "sim/config.hpp"
#include "sim/core_model.hpp"

namespace sgp::sim {

class Simulator;

class EvalContext {
 public:
  /// Validates the signature (same exceptions and messages as
  /// Simulator::run) and resolves the config-independent constants.
  EvalContext(const Simulator& sim, const core::KernelSignature& sig);

  const core::KernelSignature& signature() const noexcept { return *sig_; }
  const Simulator& simulator() const noexcept { return *sim_; }

  /// Resolves the codegen plan and core cost of every config's
  /// (precision, compiler, vector mode) combo not yet resolved. Throws
  /// like Simulator::run on an invalid config, checked in point order.
  void prepare(std::span<const SimConfig> cfgs);

 private:
  friend class Simulator;

  /// One resolved (precision, compiler, vector mode) combination: the
  /// codegen plan and the per-iteration core cost. Filled by prepare();
  /// a grid slice that sweeps threads/placement hits the same slot for
  /// every point.
  struct Combo {
    bool ready = false;
    compiler::CodegenPlan plan;
    CoreCost cost;
  };

  static constexpr std::size_t kPrecisions = 2;  ///< core::all_precisions
  static constexpr std::size_t kCompilers = 2;   ///< Gcc, Clang
  static constexpr std::size_t kModes = 3;       ///< Scalar, VLS, VLA

  static std::size_t combo_index(const SimConfig& cfg) noexcept;
  /// The prepared combo for `cfg`; throws std::logic_error if prepare()
  /// has not resolved it.
  const Combo& combo(const SimConfig& cfg) const;

  const Simulator* sim_;
  const core::KernelSignature* sig_;
  /// pattern_bandwidth_efficiency(sig.pattern), hoisted.
  double pattern_bw_eff_ = 1.0;
  /// Signature byte volumes per precision (indexed by Precision).
  std::array<double, kPrecisions> ws_bytes_{};
  std::array<double, kPrecisions> streamed_bytes_per_iter_{};
  std::array<Combo, kPrecisions * kCompilers * kModes> combos_{};
};

}  // namespace sgp::sim
