// Tests for the compiler model: code path decisions, the paper's
// capability counts, the strip/memory overheads and the memoized loop
// cost behind them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "compiler/model.hpp"
#include "kernels/register_all.hpp"
#include "kernels/vector_facts.hpp"
#include "machine/registry.hpp"
#include "rvv/codegen.hpp"

namespace sgp::compiler {
namespace {

using core::CompilerId;
using core::Precision;
using core::VectorMode;

core::KernelSignature find_sig(const std::string& name) {
  for (auto& s : kernels::all_signatures()) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("no kernel " + name);
}

TEST(Plan, ScalarModeIsScalar) {
  const auto sig = find_sig("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Gcc,
                      VectorMode::Scalar, machine::sg2042());
  EXPECT_FALSE(p.vector_path);
  EXPECT_DOUBLE_EQ(p.scalar_penalty, 1.0);
}

TEST(Plan, NoVectorUnitMeansScalar) {
  const auto sig = find_sig("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Gcc,
                      VectorMode::VLS, machine::visionfive_v2());
  EXPECT_FALSE(p.vector_path);
  EXPECT_EQ(p.note, NoteKind::NoVectorUnit);
  EXPECT_NE(note_text(p.note, CompilerId::Gcc, VectorMode::VLS, false,
                      "VisionFive V2")
                .find("no vector unit"),
            std::string::npos);
}

TEST(Plan, GccCannotEmitVla) {
  const auto sig = find_sig("TRIAD");
  EXPECT_THROW((void)plan(sig, Precision::FP32, CompilerId::Gcc,
                          VectorMode::VLA, machine::sg2042()),
               std::invalid_argument);
}

TEST(Plan, ClangCanEmitVla) {
  const auto sig = find_sig("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Clang,
                      VectorMode::VLA, machine::sg2042());
  EXPECT_TRUE(p.vector_path);
}

TEST(Plan, UnvectorizableKernelStaysScalar) {
  const auto sig = find_sig("SORT");  // neither compiler vectorises sorts
  for (const auto comp : {CompilerId::Gcc, CompilerId::Clang}) {
    const auto p =
        plan(sig, Precision::FP32, comp, VectorMode::VLS, machine::sg2042());
    EXPECT_FALSE(p.vector_path) << core::to_string(comp);
  }
}

TEST(Plan, RuntimeScalarPathCarriesSmallPenalty) {
  const auto sig = find_sig("JACOBI_1D");  // GCC vectorises, scalar runs
  const auto p = plan(sig, Precision::FP32, CompilerId::Gcc,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_FALSE(p.vector_path);
  EXPECT_GT(p.scalar_penalty, 1.0);
  EXPECT_LT(p.scalar_penalty, 1.1);
}

TEST(Plan, C920Fp64FallsBackToScalarWithOverhead) {
  const auto sig = find_sig("TRIAD");  // vectorised by GCC
  const auto p = plan(sig, Precision::FP64, CompilerId::Gcc,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_FALSE(p.vector_path);
  EXPECT_GT(p.scalar_penalty, 1.0);
  EXPECT_EQ(p.note, NoteKind::NoFp64Vector);
  EXPECT_NE(note_text(p.note, CompilerId::Gcc, VectorMode::VLS, false,
                      "SG2042")
                .find("FP64"),
            std::string::npos);
}

TEST(Plan, X86Fp64Vectorizes) {
  const auto sig = find_sig("TRIAD");
  for (const auto& m : machine::x86_machines()) {
    const auto p =
        plan(sig, Precision::FP64, CompilerId::Gcc, VectorMode::VLS, m);
    EXPECT_TRUE(p.vector_path) << m.name;
    EXPECT_FALSE(p.needs_rollback) << m.name;
  }
}

TEST(Plan, IntegerKernelVectorizesAtBothPrecisions) {
  const auto sig = find_sig("REDUCE3_INT");
  for (const auto prec : {Precision::FP32, Precision::FP64}) {
    const auto p = plan(sig, prec, CompilerId::Gcc, VectorMode::VLS,
                        machine::sg2042());
    EXPECT_TRUE(p.vector_path) << core::to_string(prec);
    EXPECT_DOUBLE_EQ(p.lanes, 2.0);  // 128-bit / INT64
  }
}

TEST(Plan, LanesFollowWidthAndPrecision) {
  const auto sig = find_sig("TRIAD");
  const auto sg = plan(sig, Precision::FP32, CompilerId::Gcc,
                       VectorMode::VLS, machine::sg2042());
  EXPECT_DOUBLE_EQ(sg.lanes, 4.0);  // 128 / 32
  const auto ice = plan(sig, Precision::FP64, CompilerId::Gcc,
                        VectorMode::VLS, machine::intel_icelake());
  EXPECT_DOUBLE_EQ(ice.lanes, 8.0);  // 512 / 64
}

TEST(Plan, ClangOnC920NeedsRollback) {
  const auto sig = find_sig("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Clang,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_TRUE(p.needs_rollback);
  EXPECT_EQ(p.note, NoteKind::VectorPath);
  EXPECT_NE(note_text(p.note, CompilerId::Clang, VectorMode::VLS,
                      p.needs_rollback, "SG2042")
                .find("rolled back"),
            std::string::npos);
}

TEST(Plan, VlaCostsStreamEfficiency) {
  const auto sig = find_sig("TRIAD");
  const auto vla = plan(sig, Precision::FP32, CompilerId::Clang,
                        VectorMode::VLA, machine::sg2042());
  const auto vls = plan(sig, Precision::FP32, CompilerId::Clang,
                        VectorMode::VLS, machine::sg2042());
  EXPECT_LT(vla.memory_efficiency, vls.memory_efficiency);
  EXPECT_GT(vla.overhead_instrs_per_strip, vls.overhead_instrs_per_strip);
}

TEST(Plan, Jacobi2dClangPathologyIsEncoded) {
  const auto sig = find_sig("JACOBI_2D");
  const auto p = plan(sig, Precision::FP32, CompilerId::Clang,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_TRUE(p.vector_path);
  EXPECT_LT(p.memory_efficiency, 0.5);
}

// ------------------------------------------------- aggregate counts --
TEST(Capabilities, MatchThePapersCounts) {
  const auto sigs = kernels::all_signatures();
  ASSERT_EQ(sigs.size(), 64u);
  const auto gcc = count_capabilities(sigs, CompilerId::Gcc);
  EXPECT_EQ(gcc.vectorized, 30);
  EXPECT_EQ(gcc.scalar_at_runtime, 7);
  const auto clang = count_capabilities(sigs, CompilerId::Clang);
  EXPECT_EQ(clang.vectorized, 59);
  EXPECT_EQ(clang.scalar_at_runtime, 3);
}

TEST(Capabilities, StreamClassFullyVectorisedByGcc) {
  // The paper: "the stream class is unique as GCC is able to vectorise
  // all of its constituent kernels".
  for (const auto& s : kernels::all_signatures()) {
    if (s.group != core::Group::Stream) continue;
    EXPECT_TRUE(s.gcc.effective()) << s.name;
  }
}

TEST(Capabilities, PaperNamedAnchors) {
  EXPECT_FALSE(find_sig("FLOYD_WARSHALL").gcc.vectorizes);
  EXPECT_FALSE(find_sig("HEAT_3D").gcc.vectorizes);
  EXPECT_TRUE(find_sig("JACOBI_1D").gcc.vectorizes);
  EXPECT_FALSE(find_sig("JACOBI_1D").gcc.runtime_vector_path);
  EXPECT_TRUE(find_sig("JACOBI_2D").gcc.vectorizes);
  EXPECT_FALSE(find_sig("JACOBI_2D").gcc.runtime_vector_path);
  for (const char* k : {"2MM", "3MM", "GEMM"}) {
    EXPECT_FALSE(find_sig(k).clang.vectorizes) << k;
    EXPECT_TRUE(find_sig(k).gcc.effective()) << k;
  }
}

TEST(Capabilities, EveryKernelHasAFactsEntry) {
  for (const auto& s : kernels::all_signatures()) {
    EXPECT_TRUE(kernels::has_vectorization_facts(s.name)) << s.name;
  }
  EXPECT_FALSE(kernels::has_vectorization_facts("NOT_A_KERNEL"));
}

// --------------------------------------------- pattern efficiencies --
TEST(PatternEfficiency, OrderingIsSane) {
  using core::AccessPattern;
  EXPECT_GT(pattern_vector_efficiency(AccessPattern::Streaming),
            pattern_vector_efficiency(AccessPattern::Strided));
  EXPECT_GT(pattern_vector_efficiency(AccessPattern::Strided),
            pattern_vector_efficiency(AccessPattern::Gather));
  EXPECT_GT(pattern_vector_efficiency(AccessPattern::Stencil1D),
            pattern_vector_efficiency(AccessPattern::Stencil3D));
  EXPECT_LT(pattern_vector_efficiency(AccessPattern::Sequential), 0.3);
  for (const auto p :
       {AccessPattern::Streaming, AccessPattern::Strided,
        AccessPattern::Stencil1D, AccessPattern::Stencil2D,
        AccessPattern::Stencil3D, AccessPattern::Gather,
        AccessPattern::Reduction, AccessPattern::Sequential,
        AccessPattern::BlockedMatrix, AccessPattern::Sort}) {
    EXPECT_GT(pattern_vector_efficiency(p), 0.0);
    EXPECT_LE(pattern_vector_efficiency(p), 1.0);
  }
}

// ----------------------------------------------- memoized loop cost --
TEST(LoopCostMemo, MatchesDirectCountAcrossShapes) {
  // Every LoopSpec field varies on its own, so a memo key that dropped
  // one would hand some shape another shape's cost.
  for (const auto mode : {rvv::CodegenMode::VLA, rvv::CodegenMode::VLS}) {
    for (const auto d : {rvv::Dialect::V1_0, rvv::Dialect::V0_7_1}) {
      for (const int sew : {32, 64}) {
        for (const int bits : {128, 256}) {
          for (int loads = 1; loads <= 4; ++loads) {
            for (int stores = 0; stores <= 2; ++stores) {
              for (int ops = 0; ops < 27; ++ops) {
                for (const bool reduction : {false, true}) {
                  rvv::LoopSpec spec;
                  spec.name = "k";
                  spec.sew = sew;
                  spec.vector_bits = bits;
                  spec.loads = loads;
                  spec.stores = stores;
                  spec.fmacc = ops % 3;
                  spec.fadd = ops / 3 % 3;
                  spec.fmul = ops / 9;
                  spec.reduction = reduction;
                  const auto direct = rvv::loop_cost(spec, mode, d);
                  // First call may fill the memo, the second must hit it.
                  for (int pass = 0; pass < 2; ++pass) {
                    const auto memo = rvv::memoized_loop_cost(spec, mode, d);
                    ASSERT_EQ(memo.vector_instrs_per_strip,
                              direct.vector_instrs_per_strip);
                    ASSERT_EQ(memo.scalar_instrs_per_strip,
                              direct.scalar_instrs_per_strip);
                    ASSERT_EQ(memo.elems_per_strip, direct.elems_per_strip);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(LoopCostMemo, InvalidShapesThrowAndAreNotCached) {
  rvv::LoopSpec spec;
  spec.sew = 16;
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_THROW((void)rvv::memoized_loop_cost(spec, rvv::CodegenMode::VLS,
                                               rvv::Dialect::V1_0),
                 std::invalid_argument);
  }
}

/// Every plan() field for every signature x precision x (compiler,
/// mode) pair on `m`, one line per combo, doubles in hex so equality is
/// exact.
std::string plan_listing(const machine::MachineDescriptor& m) {
  std::string out;
  char line[256];
  for (const auto& sig : kernels::all_signatures()) {
    for (const auto prec : core::all_precisions) {
      for (const auto comp : {CompilerId::Gcc, CompilerId::Clang}) {
        for (const auto mode :
             {VectorMode::Scalar, VectorMode::VLS, VectorMode::VLA}) {
          if (comp == CompilerId::Gcc && mode == VectorMode::VLA) continue;
          const auto p = plan(sig, prec, comp, mode, m);
          std::snprintf(line, sizeof line,
                        "%s %d %d %d: %d %a %a %a %a %a %d %d\n",
                        sig.name.c_str(), static_cast<int>(prec),
                        static_cast<int>(comp), static_cast<int>(mode),
                        p.vector_path ? 1 : 0, p.lanes, p.efficiency,
                        p.overhead_instrs_per_strip, p.scalar_penalty,
                        p.memory_efficiency, p.needs_rollback ? 1 : 0,
                        static_cast<int>(p.note));
          out += line;
        }
      }
    }
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(LoopCostMemo, PlansAreUnchanged) {
  // Digests of plan_listing() taken with the loop cost counted by
  // emitting the loop on every call, before it was memoized: every
  // field of every plan must stay bit-identical.
  machine::MachineRegistry reg;
  machine::register_builtin_machines(reg);
  const auto report = reg.register_ini_dir(SGP_MACHINES_DIR);
  ASSERT_TRUE(report.ok());
  const struct {
    const char* machine;
    std::uint64_t digest;
  } pinned[] = {
      {"sg2042", 0xff33e6b4693c72e0ull},
      {"sg2044", 0xa3c164f476cd04c3ull},
      {"visionfive-v2", 0x180539c0a5b9c667ull},
  };
  for (const auto& [name, digest] : pinned) {
    // Twice: the first pass may fill the memo, the second reads it.
    for (int pass = 0; pass < 2; ++pass) {
      const std::string listing = plan_listing(reg.descriptor(name));
      EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'),
                static_cast<std::ptrdiff_t>(
                    kernels::all_signatures().size() * 10))
          << name;
      EXPECT_EQ(fnv1a(listing), digest) << name << " pass " << pass;
    }
  }
}

}  // namespace
}  // namespace sgp::compiler
