#include "compiler/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rvv/codegen.hpp"

namespace sgp::compiler {

using core::AccessPattern;
using core::CompilerId;
using core::Precision;
using core::VectorMode;

double pattern_vector_efficiency(AccessPattern p) noexcept {
  switch (p) {
    case AccessPattern::Streaming:     return 1.00;
    case AccessPattern::Strided:       return 0.60;
    case AccessPattern::Stencil1D:     return 0.90;
    case AccessPattern::Stencil2D:     return 0.85;
    case AccessPattern::Stencil3D:     return 0.78;
    case AccessPattern::Gather:        return 0.35;
    case AccessPattern::Reduction:     return 0.70;
    case AccessPattern::Sequential:    return 0.10;
    case AccessPattern::BlockedMatrix: return 0.90;
    case AccessPattern::Sort:          return 0.25;
  }
  return 0.5;
}

namespace {

/// Representative loop shape for the rvv codegen, derived from the mix.
rvv::LoopSpec loop_spec_for(const core::KernelSignature& sig,
                            Precision prec, int vector_bits) {
  rvv::LoopSpec spec;
  spec.name = "k";
  spec.sew = prec == Precision::FP32 && !sig.integer_dominated ? 32 : 64;
  spec.vector_bits = vector_bits;
  spec.loads = std::clamp(static_cast<int>(std::lround(sig.mix.loads)), 1, 4);
  spec.stores =
      std::clamp(static_cast<int>(std::lround(sig.mix.stores)), 0, 2);
  spec.fmacc = std::clamp(static_cast<int>(std::lround(sig.mix.ffma)), 0, 4);
  spec.fadd = std::clamp(static_cast<int>(std::lround(sig.mix.fadd)), 0, 4);
  spec.fmul = std::clamp(static_cast<int>(std::lround(sig.mix.fmul)), 0, 4);
  if (spec.fmacc + spec.fadd + spec.fmul == 0) spec.fadd = 1;
  spec.reduction = sig.pattern == AccessPattern::Reduction;
  return spec;
}

}  // namespace

CodegenPlan plan(const core::KernelSignature& sig, Precision prec,
                 CompilerId comp, VectorMode mode,
                 const machine::MachineDescriptor& m) {
  if (mode == VectorMode::VLA && comp == CompilerId::Gcc) {
    throw std::invalid_argument(
        "compiler::plan: GCC only generates VLS RVV assembly");
  }

  CodegenPlan out;
  if (mode == VectorMode::Scalar) {
    out.note = NoteKind::VectorisationDisabled;
    return out;
  }
  if (!m.core.vector) {
    out.note = NoteKind::NoVectorUnit;
    return out;
  }

  const auto& facts = sig.facts(comp);
  if (!facts.vectorizes) {
    out.note = NoteKind::CannotVectorise;
    return out;
  }
  if (!facts.runtime_vector_path) {
    out.note = NoteKind::RuntimeScalar;
    out.scalar_penalty = 1.02;  // versioning/dispatch overhead
    return out;
  }

  const auto& vu = *m.core.vector;
  const bool is_rvv071 = vu.isa == "RVV v0.7.1";
  const int elem_bits =
      sig.integer_dominated ? 64 : (prec == Precision::FP32 ? 32 : 64);

  // Data-type support. Integer vector arithmetic is supported by every
  // unit we model (the C920 supports INT8..INT64).
  const bool dtype_ok =
      sig.integer_dominated ||
      (prec == Precision::FP32 ? vu.fp32 : vu.fp64);
  if (!dtype_ok) {
    // The paper's key C920 finding: FP64 vector ops are not (usefully)
    // supported, so enabling vectorisation buys nothing and costs a
    // little (Figure 2's slightly negative FP64 whiskers).
    out.note = NoteKind::NoFp64Vector;
    out.scalar_penalty = 1.04;
    return out;
  }

  out.vector_path = true;
  out.lanes = static_cast<double>(vu.lanes(elem_bits));
  // The absolute lane efficiency is applied by the core model via
  // vector_flops_per_cycle; here we keep only the *relative* derating
  // (compiler quality x pattern suitability) to avoid double counting.
  out.efficiency = facts.efficiency * pattern_vector_efficiency(sig.pattern);

  // Strip overhead from the representative emitted loop (counted once
  // per loop shape, then memoized).
  const auto dialect =
      is_rvv071 && comp == CompilerId::Gcc ? rvv::Dialect::V0_7_1
                                           : rvv::Dialect::V1_0;
  const auto cgmode = mode == VectorMode::VLA ? rvv::CodegenMode::VLA
                                              : rvv::CodegenMode::VLS;
  const auto cost =
      rvv::memoized_loop_cost(loop_spec_for(sig, prec, vu.width_bits), cgmode,
                              dialect);
  out.overhead_instrs_per_strip = cost.scalar_instrs_per_strip;

  out.memory_efficiency = facts.memory_efficiency *
                          (mode == VectorMode::VLA ? 0.88 : 1.0);

  out.needs_rollback = comp == CompilerId::Clang && is_rvv071;
  out.note = NoteKind::VectorPath;
  return out;
}

std::string note_text(NoteKind kind, CompilerId comp, VectorMode mode,
                      bool rollback, std::string_view machine_name) {
  switch (kind) {
    case NoteKind::VectorisationDisabled:
      return "vectorisation disabled";
    case NoteKind::NoVectorUnit:
      return "no vector unit on " + std::string(machine_name);
    case NoteKind::CannotVectorise:
      return std::string(core::to_string(comp)) +
             " cannot auto-vectorise this kernel";
    case NoteKind::RuntimeScalar:
      return std::string(core::to_string(comp)) +
             " vectorises the kernel but the scalar path is chosen at "
             "runtime";
    case NoteKind::NoFp64Vector:
      return "vector unit does not support FP64 arithmetic; executes at "
             "scalar rate";
    case NoteKind::VectorPath: {
      std::string out = std::string(core::to_string(comp)) + " " +
                        std::string(core::to_string(mode)) + " vector path";
      if (rollback) out += " (RVV v1.0 rolled back to v0.7.1)";
      return out;
    }
  }
  return "?";
}

CapabilityCount count_capabilities(
    const std::vector<core::KernelSignature>& sigs, CompilerId comp) {
  CapabilityCount c;
  for (const auto& s : sigs) {
    const auto& f = s.facts(comp);
    if (f.vectorizes) {
      ++c.vectorized;
      if (!f.runtime_vector_path) ++c.scalar_at_runtime;
    }
  }
  return c;
}

}  // namespace sgp::compiler
