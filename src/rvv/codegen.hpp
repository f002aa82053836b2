// Emits representative RVV assembly for an elementwise loop nest, in
// either codegen mode (VLA as Clang emits it, VLS as XuanTie GCC emits
// it) and either dialect. Used three ways: as the input generator for
// rollback tests/tools, to derive per-strip instruction counts for the
// performance model, and by the rollback_tool example.
#pragma once

#include "rvv/ir.hpp"

namespace sgp::rvv {

/// Shape of one vectorisable inner loop.
struct LoopSpec {
  std::string name = "kernel";
  int sew = 32;           ///< element width in bits (32 or 64)
  int vector_bits = 128;  ///< target vector register width (VLS)
  int loads = 2;          ///< distinct input streams
  int stores = 1;         ///< distinct output streams
  int fmacc = 1;          ///< fused multiply-accumulate ops per element
  int fadd = 0;
  int fmul = 0;
  bool reduction = false; ///< loop reduces into a scalar
};

/// Vector-length-agnostic vs vector-length-specific code generation.
enum class CodegenMode { VLA, VLS };

constexpr std::string_view to_string(CodegenMode m) noexcept {
  return m == CodegenMode::VLA ? "VLA" : "VLS";
}

/// Emits the loop as assembly in the given dialect.
/// VLA: strip-mined with vsetvli inside the loop (Clang style).
/// VLS: vl fixed to the register width, vsetvli hoisted, plus a scalar
/// tail loop (XuanTie GCC style).
Program emit_loop(const LoopSpec& spec, CodegenMode mode, Dialect d);

/// Static cost of the emitted loop, derived by counting instructions.
struct LoopCost {
  double vector_instrs_per_strip = 0;  ///< vector instructions per strip
  double scalar_instrs_per_strip = 0;  ///< bookkeeping per strip
  double elems_per_strip = 1;          ///< elements retired per strip
  /// Total dynamic instructions per element.
  double instrs_per_elem() const noexcept {
    return (vector_instrs_per_strip + scalar_instrs_per_strip) /
           elems_per_strip;
  }
};

LoopCost loop_cost(const LoopSpec& spec, CodegenMode mode, Dialect d);

/// loop_cost(), memoized for the process lifetime on every LoopSpec
/// field plus mode and dialect. The performance model asks for the same
/// few loop shapes thousands of times per sweep; this emits each one
/// once. Thread-safe; throws like loop_cost() (failures are not cached).
LoopCost memoized_loop_cost(const LoopSpec& spec, CodegenMode mode,
                            Dialect d);

}  // namespace sgp::rvv
