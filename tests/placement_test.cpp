// Tests for the three thread-placement policies, including the exact
// example mappings the paper gives for the SG2042, and the Simulator's
// precomputed placement tables against machine::analyze.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "machine/placement.hpp"
#include "machine/registry.hpp"
#include "sim/simulator.hpp"

namespace sgp::machine {
namespace {

// ----------------------------------------- property sweep (TEST_P) --
using Case = std::tuple<int /*machine idx*/, Placement, int /*threads*/>;

class PlacementProperties : public ::testing::TestWithParam<Case> {};

TEST_P(PlacementProperties, AssignmentIsValidPartialPermutation) {
  const auto [mi, p, t] = GetParam();
  const auto m = all_machines()[static_cast<std::size_t>(mi)];
  if (t > m.num_cores) GTEST_SKIP() << "more threads than cores";
  const auto cores = assign_cores(m, p, t);
  ASSERT_EQ(cores.size(), static_cast<std::size_t>(t));
  std::set<int> seen;
  for (int c : cores) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, m.num_cores);
    EXPECT_TRUE(seen.insert(c).second) << "core " << c << " assigned twice";
  }
}

TEST_P(PlacementProperties, AnalyzeCountsAddUp) {
  const auto [mi, p, t] = GetParam();
  const auto m = all_machines()[static_cast<std::size_t>(mi)];
  if (t > m.num_cores) GTEST_SKIP();
  const auto stats = analyze(m, assign_cores(m, p, t));
  int numa_sum = 0, cluster_sum = 0;
  for (int n : stats.threads_per_numa) numa_sum += n;
  for (int n : stats.threads_per_cluster) cluster_sum += n;
  EXPECT_EQ(numa_sum, t);
  EXPECT_EQ(cluster_sum, t);
  EXPECT_GE(stats.regions_spanned, 1);
  EXPECT_GE(stats.max_per_numa, 1);
  EXPECT_GE(stats.max_per_cluster, 1);
}

TEST_P(PlacementProperties, AssignmentIsPrefixOfFullOrder) {
  // The Simulator builds its placement tables from this property.
  const auto [mi, p, t] = GetParam();
  const auto m = all_machines()[static_cast<std::size_t>(mi)];
  if (t > m.num_cores) GTEST_SKIP();
  const auto full = assign_cores(m, p, m.num_cores);
  const auto cores = assign_cores(m, p, t);
  ASSERT_LE(cores.size(), full.size());
  EXPECT_TRUE(std::equal(cores.begin(), cores.end(), full.begin()));
}

TEST_P(PlacementProperties, FullMachineUsesEveryCore) {
  const auto [mi, p, t] = GetParam();
  const auto m = all_machines()[static_cast<std::size_t>(mi)];
  if (t != m.num_cores) GTEST_SKIP();
  const auto cores = assign_cores(m, p, t);
  std::set<int> seen(cores.begin(), cores.end());
  EXPECT_EQ(static_cast<int>(seen.size()), m.num_cores);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementProperties,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(Placement::Block,
                                         Placement::CyclicNuma,
                                         Placement::ClusterCyclic),
                       ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64)));

// -------------------------------------------- paper example mappings --
TEST(PlacementSg2042, BlockIsIdentity) {
  const auto m = sg2042();
  const auto cores = assign_cores(m, Placement::Block, 6);
  EXPECT_EQ(cores, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(PlacementSg2042, CyclicFourThreadsMatchesPaper) {
  // "four threads are mapped to cores 0, 8, 32, and 40"
  const auto m = sg2042();
  EXPECT_EQ(assign_cores(m, Placement::CyclicNuma, 4),
            (std::vector<int>{0, 8, 32, 40}));
}

TEST(PlacementSg2042, CyclicEightThreadsMatchesPaper) {
  // "eight threads are placed onto cores 0, 8, 32, 40, 1, 9, 33, and 41"
  const auto m = sg2042();
  EXPECT_EQ(assign_cores(m, Placement::CyclicNuma, 8),
            (std::vector<int>{0, 8, 32, 40, 1, 9, 33, 41}));
}

TEST(PlacementSg2042, ClusterEightThreadsMatchesPaper) {
  // "8 threads would be mapped to cores 0, 8, 32, 40, 16, 24, 48, and 56"
  const auto m = sg2042();
  EXPECT_EQ(assign_cores(m, Placement::ClusterCyclic, 8),
            (std::vector<int>{0, 8, 32, 40, 16, 24, 48, 56}));
}

TEST(PlacementSg2042, ClusterCyclicRegionOrdersMatchPaper) {
  // The full-machine ClusterCyclic assignment round-robins the four
  // regions, so region r's internal order is every fourth core starting
  // at offset r. The paper documents region 0 as 0, 16, 4, 20, 1, 17,
  // 5, 21, ... — alternating id blocks first, then distinct clusters.
  const auto m = sg2042();
  const auto cores = assign_cores(m, Placement::ClusterCyclic, 64);
  ASSERT_EQ(cores.size(), 64u);
  std::vector<int> region0, region1;
  for (std::size_t i = 0; i < cores.size(); i += 4) {
    region0.push_back(cores[i]);
    region1.push_back(cores[i + 1]);
  }
  EXPECT_EQ(region0, (std::vector<int>{0, 16, 4, 20, 1, 17, 5, 21, 2, 18,
                                       6, 22, 3, 19, 7, 23}));
  EXPECT_EQ(region1, (std::vector<int>{8, 24, 12, 28, 9, 25, 13, 29, 10,
                                       26, 14, 30, 11, 27, 15, 31}));
}

TEST(PlacementSg2042, ClusterSixteenThreadsUseDistinctClusters) {
  const auto m = sg2042();
  const auto cores = assign_cores(m, Placement::ClusterCyclic, 16);
  const auto stats = analyze(m, cores);
  // 16 threads over 16 clusters: one each.
  EXPECT_EQ(stats.max_per_cluster, 1);
  EXPECT_EQ(stats.regions_spanned, 4);
}

TEST(PlacementSg2042, CyclicSpreadsRegionsBeforeFillingThem) {
  const auto m = sg2042();
  for (int t : {2, 3, 4}) {
    const auto stats = analyze(m, assign_cores(m, Placement::CyclicNuma, t));
    EXPECT_EQ(stats.regions_spanned, std::min(t, 4));
    EXPECT_EQ(stats.max_per_numa, 1);
  }
}

TEST(PlacementSg2042, BlockFillsRegionsPairwise) {
  const auto m = sg2042();
  // Block-32 = cores 0-31 = regions 0 and 1 only (16 each): the paper's
  // Table 1 dip at 32 threads.
  const auto stats = analyze(m, assign_cores(m, Placement::Block, 32));
  EXPECT_EQ(stats.regions_spanned, 2);
  EXPECT_EQ(stats.max_per_numa, 16);
  // Block-16 = cores 0-15 also spans regions 0 and 1 (8 each).
  const auto stats16 = analyze(m, assign_cores(m, Placement::Block, 16));
  EXPECT_EQ(stats16.regions_spanned, 2);
  EXPECT_EQ(stats16.max_per_numa, 8);
}

TEST(PlacementSg2042, ClusterBeatsBlockOnL2Sharing) {
  const auto m = sg2042();
  for (int t : {4, 8, 16, 32}) {
    const auto block = analyze(m, assign_cores(m, Placement::Block, t));
    const auto clus =
        analyze(m, assign_cores(m, Placement::ClusterCyclic, t));
    EXPECT_LE(clus.max_per_cluster, block.max_per_cluster) << t;
  }
}

TEST(Placement, RejectsBadThreadCounts) {
  const auto m = sg2042();
  EXPECT_THROW((void)assign_cores(m, Placement::Block, 0),
               std::invalid_argument);
  EXPECT_THROW((void)assign_cores(m, Placement::Block, 65),
               std::invalid_argument);
  EXPECT_THROW((void)assign_cores(m, Placement::CyclicNuma, -1),
               std::invalid_argument);
}

TEST(Placement, AnalyzeRejectsUnknownCores) {
  const auto m = visionfive_v2();
  EXPECT_THROW((void)analyze(m, std::vector<int>{0, 9}),
               std::invalid_argument);
}

TEST(Placement, ToStringNames) {
  EXPECT_EQ(to_string(Placement::Block), "block");
  EXPECT_EQ(to_string(Placement::CyclicNuma), "cyclic");
  EXPECT_EQ(to_string(Placement::ClusterCyclic), "cluster");
}

// -------------------------------------- Simulator placement tables --
TEST(PlacementTables, EveryRowMatchesAnalyze) {
  // Every registered machine, built-in and shipped pack, under every
  // placement and every thread count.
  MachineRegistry reg;
  register_builtin_machines(reg);
  const auto report = reg.register_ini_dir(SGP_MACHINES_DIR);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(reg.contains("sg2042-2s"));
  std::size_t rows = 0;
  for (const auto& name : reg.names()) {
    const MachineDescriptor& m = reg.descriptor(name);
    const sim::Simulator sim(m);
    for (const auto p : all_placements) {
      for (int n = 1; n <= m.num_cores; ++n) {
        const std::string where = name + " " + std::string(to_string(p)) +
                                  " n=" + std::to_string(n);
        const PlacementStats want = analyze(m, assign_cores(m, p, n));
        const PlacementStats& got = sim.placement_stats(p, n);
        EXPECT_EQ(got.threads_per_numa, want.threads_per_numa) << where;
        EXPECT_EQ(got.threads_per_cluster, want.threads_per_cluster)
            << where;
        EXPECT_EQ(got.regions_spanned, want.regions_spanned) << where;
        EXPECT_EQ(got.max_per_numa, want.max_per_numa) << where;
        EXPECT_EQ(got.max_per_cluster, want.max_per_cluster) << where;
        ++rows;
      }
    }
  }
  // 3 placements x the core counts of 8 built-ins and 2 packs.
  EXPECT_GE(rows, 1131u);
}

}  // namespace
}  // namespace sgp::machine
