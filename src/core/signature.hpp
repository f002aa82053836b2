// Performance signature of a kernel: everything the analytical model needs
// to price one rep of the kernel on a machine descriptor.
#pragma once

#include <string>

#include "core/op_mix.hpp"
#include "core/types.hpp"

namespace sgp::core {

/// What a given compiler does with this kernel's inner loop. These facts
/// come from the paper (and its companion study [11], "Test-driving RISC-V
/// Vector hardware for HPC"): GCC 8.4 auto-vectorizes 30 of the 64 kernels
/// and the runtime takes the scalar path for 7 of those; Clang vectorizes
/// 59 with 3 taking the scalar path.
struct VectorizationFacts {
  bool vectorizes = false;        ///< compiler emits a vector code path
  bool runtime_vector_path = false;  ///< runtime actually executes it
  /// Fraction of ideal vector speedup realised when the vector path runs
  /// (covers shuffles, tail handling, imperfect if-conversion, ...).
  double efficiency = 0.85;
  /// Fraction of streaming bandwidth this compiler's vector code
  /// sustains (1.0 = full). Encodes kernel-specific pathologies such as
  /// Clang's JACOBI_2D code running slower than GCC's scalar path on
  /// the C920 (the paper's Figure 3 surprise).
  double memory_efficiency = 1.0;

  /// True when the vector path both exists and is taken at runtime.
  constexpr bool effective() const noexcept {
    return vectorizes && runtime_vector_path;
  }

  bool operator==(const VectorizationFacts&) const = default;
};

/// Static description of one kernel for the performance model. All
/// quantities are per *logical inner-loop iteration* unless stated
/// otherwise, and use the kernel's default problem size.
struct KernelSignature {
  std::string name;
  Group group = Group::Basic;

  /// Total inner-loop iterations executed by one rep of the kernel.
  double iters_per_rep = 0.0;
  /// Reps the suite runs (RAJAPerf runs each kernel many times).
  double reps = 100.0;
  /// Number of distinct parallel regions (fork/join) per rep. Halo
  /// packing-style kernels launch many small regions; most kernels one.
  double parallel_regions_per_rep = 1.0;
  /// Fraction of a rep's work that cannot be threaded (Amdahl).
  double seq_fraction = 0.0;

  OpMix mix;  ///< per-iteration operation counts

  /// Unique data (elements) read from / written to memory per iteration
  /// when the working set does not fit in cache (streaming traffic).
  double streamed_reads_per_iter = 0.0;
  double streamed_writes_per_iter = 0.0;

  /// Resident working set, in elements of the kernel's Real type. The
  /// cache model multiplies by sizeof(Real).
  double working_set_elems = 0.0;

  AccessPattern pattern = AccessPattern::Streaming;

  VectorizationFacts gcc;
  VectorizationFacts clang;

  /// Kernel is dominated by integer (not FP) arithmetic, e.g. REDUCE3_INT.
  /// Integer vector ops *are* supported by the C920 at both "precisions".
  bool integer_dominated = false;
  /// Kernel serializes on atomic updates to shared locations.
  bool atomic = false;
  /// Kernel has a loop-carried dependence that limits ILP (recurrences).
  bool recurrence = false;

  /// Streamed bytes per iteration for a given precision. Integer-dominated
  /// kernels move the same element width at both precisions (RAJAPerf uses
  /// Int_type/Index_type data there).
  double streamed_bytes_per_iter(Precision p) const noexcept {
    const double w =
        integer_dominated ? 8.0 : static_cast<double>(bytes_of(p));
    return (streamed_reads_per_iter + streamed_writes_per_iter) * w;
  }

  /// Working set in bytes for a given precision.
  double working_set_bytes(Precision p) const noexcept {
    const double w =
        integer_dominated ? 8.0 : static_cast<double>(bytes_of(p));
    return working_set_elems * w;
  }

  const VectorizationFacts& facts(CompilerId c) const noexcept {
    return c == CompilerId::Gcc ? gcc : clang;
  }

  /// Field-wise equality (the fingerprint memo's hit check).
  bool operator==(const KernelSignature&) const = default;
};

}  // namespace sgp::core
