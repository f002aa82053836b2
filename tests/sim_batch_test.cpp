// Contract tests for the batched evaluation path: EvalContext +
// Simulator::run_batch must be bit-identical to per-point
// Simulator::run, the structured note fields must render the exact
// historical strings, the engine's batched memo path and
// compiler::plan's loop-cost memo must survive concurrent callers, and
// the sgp-serve note output is pinned against a golden captured before
// notes became structured.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/model.hpp"
#include "engine/engine.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "machine/placement.hpp"
#include "obs/metrics.hpp"
#include "rvv/codegen.hpp"
#include "serve/server.hpp"
#include "sim/eval_context.hpp"
#include "sim/simulator.hpp"

namespace sgp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const sim::TimeBreakdown& a,
                      const sim::TimeBreakdown& b, const std::string& ctx) {
  EXPECT_TRUE(same_bits(a.compute_s, b.compute_s)) << ctx;
  EXPECT_TRUE(same_bits(a.memory_s, b.memory_s)) << ctx;
  EXPECT_TRUE(same_bits(a.sync_s, b.sync_s)) << ctx;
  EXPECT_TRUE(same_bits(a.atomic_s, b.atomic_s)) << ctx;
  EXPECT_TRUE(same_bits(a.total_s, b.total_s)) << ctx;
  EXPECT_EQ(a.serving, b.serving) << ctx;
  EXPECT_EQ(a.vector_path, b.vector_path) << ctx;
  EXPECT_EQ(a.note, b.note) << ctx;
  EXPECT_EQ(a.note_compiler, b.note_compiler) << ctx;
  EXPECT_EQ(a.note_mode, b.note_mode) << ctx;
  EXPECT_EQ(a.note_rollback, b.note_rollback) << ctx;
}

core::KernelSignature find_sig(const std::string& name) {
  for (const auto& s : kernels::all_signatures()) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("no kernel " + name);
}

/// The full valid config grid on `m`: every (compiler, mode) pair
/// compiler::plan accepts, both precisions, all placements, a spread of
/// thread counts.
std::vector<sim::SimConfig> full_grid(const machine::MachineDescriptor& m) {
  std::vector<sim::SimConfig> grid;
  const std::pair<core::CompilerId, core::VectorMode> combos[] = {
      {core::CompilerId::Gcc, core::VectorMode::Scalar},
      {core::CompilerId::Gcc, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::Scalar},
      {core::CompilerId::Clang, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::VLA},
  };
  for (const int t : {1, 2, 7, 32, 64}) {
    if (t > m.num_cores) continue;
    for (const auto prec : core::all_precisions) {
      for (const auto placement : machine::all_placements) {
        for (const auto& [comp, mode] : combos) {
          sim::SimConfig cfg;
          cfg.nthreads = t;
          cfg.precision = prec;
          cfg.placement = placement;
          cfg.compiler = comp;
          cfg.vector_mode = mode;
          grid.push_back(cfg);
        }
      }
    }
  }
  return grid;
}

TEST(SimBatch, BatchMatchesScalarBitForBitAcrossTheGrid) {
  const sim::Simulator sim(machine::sg2042());
  const auto grid = full_grid(sim.machine());
  for (const char* name : {"TRIAD", "GEMM", "DOT", "SORT", "JACOBI_2D"}) {
    const auto sig = find_sig(name);
    sim::EvalContext ctx(sim, sig);
    std::vector<sim::TimeBreakdown> batch(grid.size());
    sim.run_batch(ctx, grid, batch);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      expect_identical(sim.run(sig, grid[i]), batch[i],
                       std::string(name) + " point " + std::to_string(i));
    }
  }
}

TEST(SimBatch, ContextReuseAcrossBatchesStaysIdentical) {
  const sim::Simulator sim(machine::sg2042());
  const auto sig = find_sig("TRIAD");
  sim::EvalContext ctx(sim, sig);
  const auto grid = full_grid(sim.machine());
  // Same context, three batches over different slices (including the
  // same points again) — precomputed state must not drift.
  for (int pass = 0; pass < 3; ++pass) {
    const std::size_t n = grid.size() / (pass + 1);
    std::vector<sim::SimConfig> cfgs(grid.begin(),
                                     grid.begin() + static_cast<long>(n));
    std::vector<sim::TimeBreakdown> out(n);
    sim.run_batch(ctx, cfgs, out);
    for (std::size_t i = 0; i < n; ++i) {
      expect_identical(sim.run(sig, cfgs[i]), out[i],
                       "pass " + std::to_string(pass));
    }
  }
}

TEST(SimBatch, EmptyAndSinglePointBatches) {
  const sim::Simulator sim(machine::sg2042());
  const auto sig = find_sig("TRIAD");
  sim::EvalContext ctx(sim, sig);

  std::vector<sim::SimConfig> none;
  std::vector<sim::TimeBreakdown> none_out;
  sim.run_batch(ctx, none, none_out);  // must not throw

  sim::SimConfig cfg;
  cfg.nthreads = 4;
  std::vector<sim::TimeBreakdown> one(1);
  sim.run_batch(ctx, std::span<const sim::SimConfig>(&cfg, 1), one);
  expect_identical(sim.run(sig, cfg), one[0], "single point");
}

TEST(SimBatch, MismatchedSpansThrow) {
  const sim::Simulator sim(machine::sg2042());
  const auto sig = find_sig("TRIAD");
  sim::EvalContext ctx(sim, sig);
  std::vector<sim::SimConfig> cfgs(2);
  std::vector<sim::TimeBreakdown> out(3);
  EXPECT_THROW(sim.run_batch(ctx, cfgs, out), std::invalid_argument);
}

TEST(SimBatch, ForeignContextIsRejected) {
  const sim::Simulator sg(machine::sg2042());
  const sim::Simulator rome(machine::amd_rome());
  const auto sig = find_sig("TRIAD");
  sim::EvalContext ctx(sg, sig);
  std::vector<sim::SimConfig> cfgs(1);
  std::vector<sim::TimeBreakdown> out(1);
  EXPECT_THROW(rome.run_batch(ctx, cfgs, out), std::invalid_argument);
}

TEST(SimBatch, InvalidPointsThrowLikeTheScalarPath) {
  const sim::Simulator sim(machine::sg2042());
  const auto sig = find_sig("TRIAD");
  sim::EvalContext ctx(sim, sig);
  std::vector<sim::SimConfig> cfgs(1);
  cfgs[0].nthreads = sim.machine().num_cores + 1;
  std::vector<sim::TimeBreakdown> out(1);
  EXPECT_THROW(sim.run_batch(ctx, cfgs, out), std::invalid_argument);
  // GCC cannot emit VLA: a hard error through either path.
  cfgs[0] = sim::SimConfig{};
  cfgs[0].compiler = core::CompilerId::Gcc;
  cfgs[0].vector_mode = core::VectorMode::VLA;
  EXPECT_THROW(sim.run_batch(ctx, cfgs, out), std::invalid_argument);
  EXPECT_THROW((void)sim.run(sig, cfgs[0]), std::invalid_argument);
}

// ------------------------------------------------ note rendering --

TEST(NoteText, PinnedHistoricalStrings) {
  using compiler::NoteKind;
  using compiler::note_text;
  const auto gcc = core::CompilerId::Gcc;
  const auto clang = core::CompilerId::Clang;
  const auto vls = core::VectorMode::VLS;
  const auto vla = core::VectorMode::VLA;

  EXPECT_EQ(note_text(NoteKind::VectorisationDisabled, gcc,
                      core::VectorMode::Scalar, false, "SG2042"),
            "vectorisation disabled");
  EXPECT_EQ(note_text(NoteKind::NoVectorUnit, gcc, vls, false,
                      "VisionFive V2"),
            "no vector unit on VisionFive V2");
  EXPECT_EQ(note_text(NoteKind::CannotVectorise, gcc, vls, false, "SG2042"),
            "GCC cannot auto-vectorise this kernel");
  EXPECT_EQ(note_text(NoteKind::RuntimeScalar, gcc, vls, false, "SG2042"),
            "GCC vectorises the kernel but the scalar path is chosen at "
            "runtime");
  EXPECT_EQ(note_text(NoteKind::NoFp64Vector, gcc, vls, false, "SG2042"),
            "vector unit does not support FP64 arithmetic; executes at "
            "scalar rate");
  EXPECT_EQ(note_text(NoteKind::VectorPath, gcc, vls, false, "SG2042"),
            "GCC VLS vector path");
  EXPECT_EQ(note_text(NoteKind::VectorPath, clang, vls, true, "SG2042"),
            "Clang VLS vector path (RVV v1.0 rolled back to v0.7.1)");
  EXPECT_EQ(note_text(NoteKind::VectorPath, clang, vla, true, "SG2042"),
            "Clang VLA vector path (RVV v1.0 rolled back to v0.7.1)");
}

TEST(NoteText, BreakdownNoteStringMatchesPlan) {
  const sim::Simulator sim(machine::sg2042());
  const auto sig = find_sig("TRIAD");
  sim::SimConfig cfg;
  cfg.nthreads = 4;
  // FP32: the SG2042 vector unit has no FP64 arithmetic, which would
  // pick the NoFp64Vector note instead of the vector path.
  cfg.precision = core::Precision::FP32;
  cfg.compiler = core::CompilerId::Clang;
  cfg.vector_mode = core::VectorMode::VLS;
  const auto bd = sim.run(sig, cfg);
  EXPECT_EQ(bd.note_string(sim.machine().name),
            "Clang VLS vector path (RVV v1.0 rolled back to v0.7.1)");
}

// ------------------------------------- engine under concurrency --

TEST(SimBatch, ConcurrentRunGridCallersAgreeWithSerialReference) {
  const auto m = machine::sg2042();
  std::vector<core::KernelSignature> sigs = {find_sig("TRIAD"),
                                             find_sig("GEMM"),
                                             find_sig("DOT")};
  std::vector<sim::SimConfig> cfgs;
  for (const int t : {1, 4, 16, 64}) {
    sim::SimConfig cfg;
    cfg.nthreads = t;
    cfg.placement = machine::Placement::ClusterCyclic;
    cfgs.push_back(cfg);
  }

  engine::SweepEngine serial(engine::EngineOptions{/*jobs=*/1});
  const auto reference = serial.run_grid(m, sigs, cfgs);

  // Several threads hammer one parallel engine with the same grid: the
  // sharded batched memo lookups and inserts must race cleanly (the
  // TSan lane rebuilds this test instrumented) and every caller must
  // see the serial result bit-for-bit.
  engine::SweepEngine shared(engine::EngineOptions{/*jobs=*/4});
  constexpr int kCallers = 8;
  std::vector<std::vector<sim::TimeBreakdown>> got(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back(
          [&, c] { got[c] = shared.run_grid(m, sigs, cfgs); });
    }
    for (auto& th : callers) th.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), reference.size()) << c;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_identical(reference[i], got[c][i],
                       "caller " + std::to_string(c) + " point " +
                           std::to_string(i));
    }
  }
  const auto counters = shared.counters();
  EXPECT_EQ(counters.requests,
            static_cast<std::uint64_t>(kCallers) * reference.size());
}

// ------------------------------ inline vs pool pricing, shared contexts --

/// `n` distinct points on sg2042 over every (signature, config) pair of
/// the full grid, signature-major so each group spans many configs.
std::vector<engine::SweepPoint> distinct_points(
    const machine::MachineDescriptor& m,
    const std::vector<core::KernelSignature>& sigs,
    const std::vector<sim::SimConfig>& grid, std::size_t n) {
  std::vector<engine::SweepPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& sig = sigs[(i / grid.size()) % sigs.size()];
    points.push_back(engine::SweepPoint{&m, &sig, grid[i % grid.size()]});
  }
  return points;
}

std::uint64_t pool_dispatches() {
  return obs::registry().counter("pool.dispatches").value();
}

TEST(SimBatch, InlineAndPoolPricingAreBitIdentical) {
  const auto m = machine::sg2042();
  const sim::Simulator sim(m);
  const auto sigs = kernels::all_signatures();
  const auto grid = full_grid(m);
  constexpr std::size_t kThreshold = engine::SweepEngine::kPoolMinMisses;
  ASSERT_GE(sigs.size() * grid.size(), kThreshold + 1);
  for (const std::size_t n : {kThreshold - 1, kThreshold + 1}) {
    const auto points = distinct_points(m, sigs, grid, n);
    std::vector<sim::TimeBreakdown> reference(n);
    for (std::size_t i = 0; i < n; ++i) {
      reference[i] = sim.run(*points[i].signature, points[i].config);
    }
    for (const int jobs : {1, 2, 8}) {
      engine::SweepEngine eng(engine::EngineOptions{jobs});
      const std::uint64_t dispatches = pool_dispatches();
      const auto got = eng.run_batch(points);
      // Below the threshold (or serial) the calling thread prices
      // everything; above it a parallel engine goes to the pool.
      const bool pooled = eng.jobs() > 1 && n >= kThreshold;
      EXPECT_EQ(pool_dispatches() > dispatches, pooled)
          << "n=" << n << " jobs=" << jobs;
      EXPECT_EQ(eng.counters().simulations, n);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_identical(reference[i], got[i],
                         "n=" + std::to_string(n) + " jobs=" +
                             std::to_string(jobs) + " point " +
                             std::to_string(i));
      }
    }
  }
}

TEST(SimBatch, ConcurrentRunGridCallersShareCachedContexts) {
  // Each round builds one fresh cached engine shared by all callers, so
  // every round prices concurrently: callers read the same
  // engine-lifetime contexts while others prepare new combos in them,
  // and race lookup_batch/insert_batch on overlapping keys. One
  // caller's grid is above the pool threshold, so when it misses first
  // (the usual case) pooled and inline pricing overlap too. The TSan
  // lane rebuilds this test.
  const auto m = machine::sg2042();
  const sim::Simulator sim(m);
  const std::vector<core::KernelSignature> sigs = {
      find_sig("TRIAD"), find_sig("GEMM"), find_sig("DOT"),
      find_sig("SORT")};
  const auto grid = full_grid(m);
  constexpr int kCallers = 6;
  std::vector<std::vector<sim::SimConfig>> cfgs(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    // Callers start on different combos of the full grid.
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (i % kCallers == static_cast<std::size_t>(c)) {
        cfgs[c].push_back(grid[i]);
      }
    }
  }
  while (cfgs[0].size() * sigs.size() <
         engine::SweepEngine::kPoolMinMisses) {
    cfgs[0].insert(cfgs[0].end(), grid.begin(), grid.end());
  }
  // Serial reference, one scalar run per caller point.
  std::vector<std::vector<sim::TimeBreakdown>> want(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    for (const auto& cfg : cfgs[c]) {
      for (const auto& sig : sigs) want[c].push_back(sim.run(sig, cfg));
    }
  }
  for (int round = 0; round < 3; ++round) {
    engine::SweepEngine shared(engine::EngineOptions{/*jobs=*/2});
    std::vector<std::vector<sim::TimeBreakdown>> got(kCallers);
    {
      std::vector<std::thread> callers;
      for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back(
            [&, c] { got[c] = shared.run_grid(m, sigs, cfgs[c]); });
      }
      for (auto& th : callers) th.join();
    }
    for (int c = 0; c < kCallers; ++c) {
      ASSERT_EQ(got[c].size(), want[c].size()) << c;
      for (std::size_t i = 0; i < got[c].size(); ++i) {
        expect_identical(want[c][i], got[c][i],
                         "round " + std::to_string(round) + " caller " +
                             std::to_string(c) + " point " +
                             std::to_string(i));
      }
    }
    EXPECT_EQ(shared.counters().contexts, sigs.size());
  }
}

TEST(SimBatch, BadSignatureThrowsAndCachesNoContext) {
  const auto m = machine::sg2042();
  const auto good = find_sig("TRIAD");
  auto bad = good;
  bad.name = "TRIAD_BAD";
  bad.iters_per_rep = 0.0;  // EvalContext rejects this
  sim::SimConfig cfg;
  cfg.nthreads = 4;

  engine::SweepEngine eng(engine::EngineOptions{/*jobs=*/2});
  const engine::SweepPoint bad_only[] = {{&m, &bad, cfg}};
  EXPECT_THROW((void)eng.run_batch(bad_only), std::invalid_argument);
  EXPECT_EQ(eng.counters().contexts, 0u);

  const engine::SweepPoint mixed[] = {{&m, &good, cfg}, {&m, &bad, cfg}};
  EXPECT_THROW((void)eng.run_batch(mixed), std::invalid_argument);
  EXPECT_EQ(eng.counters().contexts, 1u);  // only the good signature's
  EXPECT_EQ(eng.counters().cache_entries, 0u);  // nothing was priced

  // The engine stays usable and prices the good point exactly.
  const sim::Simulator sim(m);
  const engine::SweepPoint good_only[] = {{&m, &good, cfg}};
  expect_identical(sim.run(good, cfg), eng.run_batch(good_only).front(),
                   "after throw");
  eng.clear_cache();
  EXPECT_EQ(eng.counters().contexts, 0u);
}

// ------------------------------------ compiler::plan under concurrency --

TEST(SimBatch, ConcurrentPlansAgreeWithSerialReference) {
  // Engine workers call compiler::plan concurrently, and plan reads the
  // process-wide loop-cost memo. Callers race on a cold memo (the loop
  // names are fresh) and on every plan combo; each must agree with the
  // direct loop_cost and with a serial pass run after the join.
  const std::vector<machine::MachineDescriptor> machines = {
      machine::sg2042(), machine::amd_rome(), machine::visionfive_v2()};
  const auto sigs = kernels::all_signatures();
  const std::pair<core::CompilerId, core::VectorMode> combos[] = {
      {core::CompilerId::Gcc, core::VectorMode::Scalar},
      {core::CompilerId::Gcc, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::VLA},
  };
  auto plans_of = [&] {
    std::vector<compiler::CodegenPlan> out;
    for (const auto& m : machines) {
      for (const auto& sig : sigs) {
        for (const auto prec : core::all_precisions) {
          for (const auto& [comp, mode] : combos) {
            out.push_back(compiler::plan(sig, prec, comp, mode, m));
          }
        }
      }
    }
    return out;
  };
  std::vector<rvv::LoopSpec> specs;
  for (const int sew : {32, 64}) {
    for (int loads = 1; loads <= 4; ++loads) {
      rvv::LoopSpec spec;
      spec.name = "concurrent_fill";
      spec.sew = sew;
      spec.loads = loads;
      specs.push_back(spec);
    }
  }
  constexpr rvv::CodegenMode kModes[] = {rvv::CodegenMode::VLA,
                                         rvv::CodegenMode::VLS};

  constexpr int kCallers = 8;
  std::vector<std::vector<compiler::CodegenPlan>> got(kCallers);
  std::vector<std::vector<rvv::LoopCost>> costs(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (const auto& spec : specs) {
          for (const auto mode : kModes) {
            costs[c].push_back(
                rvv::memoized_loop_cost(spec, mode, rvv::Dialect::V1_0));
          }
        }
        got[c] = plans_of();
      });
    }
    for (auto& th : callers) th.join();
  }

  const auto reference = plans_of();
  for (int c = 0; c < kCallers; ++c) {
    std::size_t k = 0;
    for (const auto& spec : specs) {
      for (const auto mode : kModes) {
        const auto direct = rvv::loop_cost(spec, mode, rvv::Dialect::V1_0);
        EXPECT_EQ(costs[c][k].scalar_instrs_per_strip,
                  direct.scalar_instrs_per_strip);
        EXPECT_EQ(costs[c][k].vector_instrs_per_strip,
                  direct.vector_instrs_per_strip);
        ++k;
      }
    }
    ASSERT_EQ(got[c].size(), reference.size()) << c;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& a = reference[i];
      const auto& b = got[c][i];
      const std::string where =
          "caller " + std::to_string(c) + " plan " + std::to_string(i);
      EXPECT_EQ(a.vector_path, b.vector_path) << where;
      EXPECT_TRUE(same_bits(a.lanes, b.lanes)) << where;
      EXPECT_TRUE(same_bits(a.efficiency, b.efficiency)) << where;
      EXPECT_TRUE(same_bits(a.overhead_instrs_per_strip,
                            b.overhead_instrs_per_strip))
          << where;
      EXPECT_TRUE(same_bits(a.scalar_penalty, b.scalar_penalty)) << where;
      EXPECT_TRUE(same_bits(a.memory_efficiency, b.memory_efficiency))
          << where;
      EXPECT_EQ(a.needs_rollback, b.needs_rollback) << where;
      EXPECT_EQ(a.note, b.note) << where;
    }
  }
}

// ---------------------------------------------- serve note golden --

/// Responses captured from sgp-serve before notes became structured
/// enums: every line must still come out byte-identical.
TEST(ServeNotes, GoldenResponsesAreByteIdentical) {
  const std::string golden_path =
      std::string(SGP_GOLDEN_DIR) + "/serve_notes.jsonl";
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing " << golden_path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(golden_in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  ASSERT_EQ(golden.size(), 6u);

  const std::vector<std::string> requests = {
      R"({"id":"g1","op":"sweep","machine":"sg2042","precision":"fp32","threads":[1,4],"compiler":"gcc","vector":"vls","format":"csv"})",
      R"({"id":"g2","op":"sweep","machine":"sg2042","kernels":["TRIAD","GEMM","DOT"],"precision":"fp64","threads":[2],"compiler":"gcc","vector":"vls","format":"csv"})",
      R"({"id":"g3","op":"sweep","machine":"sg2042","kernels":["TRIAD"],"precision":"fp32","threads":[1,8],"compiler":"clang","vector":"vls","format":"csv"})",
      R"({"id":"g4","op":"sweep","machine":"sg2042","kernels":["TRIAD"],"precision":"fp32","threads":[4],"compiler":"gcc","vector":"scalar","format":"csv"})",
      R"({"id":"g5","op":"sweep","machine":"visionfive-v1","kernels":["TRIAD","DOT"],"precision":"fp32","threads":[1,2],"compiler":"gcc","vector":"vls","format":"csv"})",
      R"({"id":"g6","op":"sweep","machine":"sg2042","kernels":["GEMM"],"precision":"fp32","threads":[4],"compiler":"clang","vector":"vla","format":"json"})",
  };

  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.warn = false;
  serve::Server server(opt);
  std::mutex mu;
  std::vector<std::string> responses;
  for (const auto& req : requests) {
    server.submit_line(req, [&](std::string line) {
      std::lock_guard<std::mutex> lk(mu);
      responses.push_back(std::move(line));
    });
  }
  server.drain();
  ASSERT_EQ(responses.size(), golden.size());

  // Match by id: admission order is preserved with one worker, but the
  // pinned contract is per-request bytes, not queue order.
  auto id_of = [](const std::string& line) {
    const auto pos = line.find("\"id\":\"");
    EXPECT_NE(pos, std::string::npos) << line.substr(0, 80);
    const auto end = line.find('"', pos + 6);
    return line.substr(pos + 6, end - pos - 6);
  };
  for (const auto& want : golden) {
    const std::string id = id_of(want);
    bool found = false;
    for (const auto& got : responses) {
      if (id_of(got) != id) continue;
      found = true;
      EXPECT_EQ(got, want) << "response for " << id
                           << " diverged from the pinned golden";
    }
    EXPECT_TRUE(found) << "no response for id " << id;
  }
}

}  // namespace
}  // namespace sgp
