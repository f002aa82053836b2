// Per-iteration operation mix of a kernel's inner loop.
#pragma once

namespace sgp::core {

/// Average number of operations executed per logical loop iteration.
/// These are *architectural* counts (what the source expresses), before any
/// code generation decisions; the compiler model turns them into an
/// instruction mix.
struct OpMix {
  double fadd = 0.0;   ///< floating add/sub
  double fmul = 0.0;   ///< floating multiply
  double ffma = 0.0;   ///< fused multiply-add opportunities (counted once)
  double fdiv = 0.0;   ///< floating divide
  double fspecial = 0.0;  ///< sqrt/exp/pow etc.
  double fcmp = 0.0;   ///< floating compares (min/max/select)
  double iops = 0.0;   ///< integer ALU ops beyond address arithmetic
  double loads = 0.0;  ///< memory reads (elements)
  double stores = 0.0; ///< memory writes (elements)
  double branches = 0.0;  ///< data-dependent branches

  /// Total floating point operations per iteration (FMA counts as two).
  constexpr double flops() const noexcept {
    return fadd + fmul + 2.0 * ffma + fdiv + fspecial + fcmp;
  }
  /// Total memory accesses (elements) per iteration.
  constexpr double mem_accesses() const noexcept { return loads + stores; }

  bool operator==(const OpMix&) const = default;
};

}  // namespace sgp::core
