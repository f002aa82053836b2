// Sweep-engine contract tests: the engine is a pure scheduling/caching
// layer, so (1) a cache hit returns exactly the breakdown the miss
// computed, (2) a parallel run is bit-identical to a forced-serial run,
// (3) the counters account for every request, (4) a throwing point
// fails the batch without poisoning the engine, and (5) the best-thread
// search asks the engine once per (class, precision).
#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.hpp"
#include "experiments/experiments.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"

namespace sgp::engine {
namespace {

void expect_same_breakdown(const sim::TimeBreakdown& a,
                           const sim::TimeBreakdown& b) {
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.memory_s, b.memory_s);
  EXPECT_EQ(a.sync_s, b.sync_s);
  EXPECT_EQ(a.atomic_s, b.atomic_s);
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.serving, b.serving);
  EXPECT_EQ(a.vector_path, b.vector_path);
  EXPECT_EQ(a.note, b.note);
  EXPECT_EQ(a.note_compiler, b.note_compiler);
  EXPECT_EQ(a.note_mode, b.note_mode);
  EXPECT_EQ(a.note_rollback, b.note_rollback);
}

/// One point through the engine's only evaluation path.
sim::TimeBreakdown run_one(SweepEngine& eng,
                           const machine::MachineDescriptor& m,
                           const core::KernelSignature& sig,
                           const sim::SimConfig& cfg) {
  const SweepPoint point[] = {{&m, &sig, cfg}};
  return eng.run_batch(point).front();
}

sim::SimConfig fp32_threads(int n) {
  sim::SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  cfg.nthreads = n;
  cfg.placement = machine::Placement::ClusterCyclic;
  return cfg;
}

TEST(SweepEngine, CacheHitReturnsTheIdenticalBreakdown) {
  SweepEngine eng({/*jobs=*/1});
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  const auto cfg = fp32_threads(32);

  const auto first = run_one(eng, m, sig, cfg);
  const auto second = run_one(eng, m, sig, cfg);
  expect_same_breakdown(first, second);

  const auto c = eng.counters();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.simulations, 1u);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.cache_entries, 1u);
}

TEST(SweepEngine, ParallelGridIsBitIdenticalToSerial) {
  SweepEngine parallel({/*jobs=*/8});
  SweepEngine serial({/*jobs=*/1});
  const auto m = machine::sg2042();
  const auto sigs = kernels::all_signatures();
  std::vector<sim::SimConfig> cfgs = {fp32_threads(1), fp32_threads(32),
                                      fp32_threads(64)};

  const auto par = parallel.run_grid(m, sigs, cfgs);
  const auto ser = serial.run_grid(m, sigs, cfgs);
  ASSERT_EQ(par.size(), ser.size());
  ASSERT_EQ(par.size(), sigs.size() * cfgs.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    expect_same_breakdown(par[i], ser[i]);
  }
  EXPECT_EQ(parallel.counters().simulations,
            serial.counters().simulations);
}

TEST(SweepEngine, PipelinesAreIdenticalUnderParallelismAndCacheReuse) {
  SweepEngine parallel({/*jobs=*/8});
  SweepEngine serial({/*jobs=*/1});

  const auto fig1_par = experiments::figure1(parallel);
  const auto fig1_ser = experiments::figure1(serial);
  ASSERT_EQ(fig1_par.size(), fig1_ser.size());
  for (std::size_t s = 0; s < fig1_par.size(); ++s) {
    EXPECT_EQ(fig1_par[s].label, fig1_ser[s].label);
    // Exact double equality: map operator== compares values with ==.
    EXPECT_TRUE(fig1_par[s].per_kernel_ratio ==
                fig1_ser[s].per_kernel_ratio)
        << fig1_par[s].label;
    for (std::size_t g = 0; g < fig1_par[s].groups.size(); ++g) {
      EXPECT_EQ(fig1_par[s].groups[g].mean, fig1_ser[s].groups[g].mean);
      EXPECT_EQ(fig1_par[s].groups[g].min, fig1_ser[s].groups[g].min);
      EXPECT_EQ(fig1_par[s].groups[g].max, fig1_ser[s].groups[g].max);
    }
  }

  const auto tab_par =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 parallel);
  const auto tab_ser =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 serial);
  ASSERT_TRUE(tab_par.thread_counts == tab_ser.thread_counts);
  for (const auto g : core::all_groups) {
    const auto& p = tab_par.cells.at(g);
    const auto& s = tab_ser.cells.at(g);
    ASSERT_EQ(p.size(), s.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[i].speedup, s[i].speedup);
      EXPECT_EQ(p[i].parallel_efficiency, s[i].parallel_efficiency);
    }
  }

  // A second identical pipeline run must be served fully from cache.
  const auto sims_before = parallel.counters().simulations;
  const auto again = experiments::figure1(parallel);
  EXPECT_EQ(parallel.counters().simulations, sims_before);
  ASSERT_EQ(again.size(), fig1_par.size());
  for (std::size_t s = 0; s < again.size(); ++s) {
    EXPECT_TRUE(again[s].per_kernel_ratio ==
                fig1_par[s].per_kernel_ratio);
  }
}

TEST(SweepEngine, ThrowingPointFailsTheBatchButNotTheEngine) {
  SweepEngine eng({/*jobs=*/4});
  const auto m = machine::sg2042();
  auto sigs = kernels::all_signatures();
  auto bad = sigs.front();
  bad.iters_per_rep = 0.0;  // Simulator::run rejects this

  std::vector<SweepPoint> points;
  const auto cfg = fp32_threads(4);
  for (const auto& s : sigs) points.push_back({&m, &s, cfg});
  points.push_back({&m, &bad, cfg});

  EXPECT_THROW((void)eng.run_batch(points), std::invalid_argument);

  // The engine stays usable (nothing from the failed batch was cached).
  const auto ok = run_one(eng, m, sigs.front(), cfg);
  EXPECT_GT(ok.total_s, 0.0);
}

TEST(SweepEngine, BestThreadsMemoAsksTheEngineOnce) {
  SweepEngine eng({/*jobs=*/1});
  experiments::reset_best_threads_memo();
  const int first = experiments::best_sg2042_threads(
      core::Group::Stream, core::Precision::FP32, eng);
  const auto requests_after_first = eng.counters().requests;
  EXPECT_GT(requests_after_first, 0u);
  const int second = experiments::best_sg2042_threads(
      core::Group::Stream, core::Precision::FP32, eng);
  EXPECT_EQ(first, second);
  EXPECT_EQ(eng.counters().requests, requests_after_first);
  experiments::reset_best_threads_memo();
}

TEST(SweepEngine, PhasesAttributeRequests) {
  SweepEngine eng({/*jobs=*/1});
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  {
    auto scope = eng.phase("unit-test-phase");
    (void)run_one(eng, m, sig, fp32_threads(1));
    (void)run_one(eng, m, sig, fp32_threads(2));
  }
  const auto c = eng.counters();
  ASSERT_EQ(c.phases.size(), 1u);
  EXPECT_EQ(c.phases[0].name, "unit-test-phase");
  EXPECT_EQ(c.phases[0].requests, 2u);
  EXPECT_GE(c.phases[0].wall_s, 0.0);
}

}  // namespace
}  // namespace sgp::engine
