// Tests for the trace-driven cache simulator, including the validation
// that it agrees qualitatively with the analytical sim::CacheModel.
#include <gtest/gtest.h>

#include <tuple>

#include "cachesim/cache.hpp"
#include "cachesim/replay.hpp"
#include "cachesim/trace.hpp"
#include "machine/placement.hpp"
#include "sim/cache_model.hpp"

namespace sgp::cachesim {
namespace {

CacheConfig tiny_cache(std::size_t size = 1024, std::size_t ways = 2,
                       std::size_t line = 64) {
  CacheConfig c;
  c.name = "T";
  c.size_bytes = size;
  c.ways = ways;
  c.line_bytes = line;
  return c;
}

// -------------------------------------------------------------- Cache --
TEST(CacheConfig, ValidatesGeometry) {
  EXPECT_NO_THROW(tiny_cache().validate());
  auto bad = tiny_cache();
  bad.line_bytes = 48;  // not a power of two
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_cache();
  bad.ways = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_cache(1000);  // not divisible
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Cache, ColdMissThenHit) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1030, false));  // same 64B line
  EXPECT_EQ(c.stats().read_misses, 1u);
  EXPECT_EQ(c.stats().read_hits, 2u);
}

TEST(Cache, CapacityEviction) {
  // 1 KB / 64 B = 16 lines; touching 32 distinct lines twice must evict.
  Cache c(tiny_cache());
  for (Addr a = 0; a < 32 * 64; a += 64) c.access(a, false);
  EXPECT_GT(c.stats().evictions, 0u);
  EXPECT_EQ(c.resident_lines(), 16u);
}

TEST(Cache, LruKeepsTheHotLine) {
  // 2-way, set count 8. Lines 0, 8 and 16 (line-units) map to set 0.
  Cache c(tiny_cache());
  const Addr a0 = 0 * 64, a1 = 8 * 64, a2 = 16 * 64;
  c.access(a0, false);
  c.access(a1, false);
  c.access(a0, false);  // refresh a0
  c.access(a2, false);  // evicts a1 (LRU)
  EXPECT_TRUE(c.probe(a0));
  EXPECT_FALSE(c.probe(a1));
  EXPECT_TRUE(c.probe(a2));
}

TEST(Cache, FifoIgnoresReuse) {
  auto cfg = tiny_cache();
  cfg.policy = ReplacementPolicy::FIFO;
  Cache c(cfg);
  const Addr a0 = 0 * 64, a1 = 8 * 64, a2 = 16 * 64;
  c.access(a0, false);
  c.access(a1, false);
  c.access(a0, false);  // reuse does not refresh FIFO order
  c.access(a2, false);  // evicts a0 (oldest fill)
  EXPECT_FALSE(c.probe(a0));
  EXPECT_TRUE(c.probe(a1));
}

TEST(Cache, FifoWriteHitDoesNotRefreshEither) {
  // The FIFO stamp is the fill time; neither read nor write hits may
  // move a line back in the eviction order.
  auto cfg = tiny_cache();
  cfg.policy = ReplacementPolicy::FIFO;
  Cache c(cfg);
  const Addr a0 = 0 * 64, a1 = 8 * 64, a2 = 16 * 64;
  c.access(a0, false);
  c.access(a1, false);
  c.access(a0, true);   // write hit: dirties, must not refresh
  c.access(a2, false);  // still evicts a0 (oldest fill)
  EXPECT_FALSE(c.probe(a0));
  EXPECT_TRUE(c.probe(a1));
  EXPECT_TRUE(c.probe(a2));
  EXPECT_EQ(c.stats().writebacks, 1u);  // the dirty a0 left as a wb
}

TEST(Cache, ProbeDoesNotPerturbStateOrStats) {
  // probe is a pure query: no LRU refresh, no counters.
  Cache c(tiny_cache());
  const Addr a0 = 0 * 64, a1 = 8 * 64, a2 = 16 * 64;
  c.access(a0, false);
  c.access(a1, false);
  const auto snapshot = c.stats();
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(c.probe(a0));  // no refresh
  EXPECT_EQ(c.stats(), snapshot);
  c.access(a2, false);  // a0 is still LRU despite the probes
  EXPECT_FALSE(c.probe(a0));
  EXPECT_TRUE(c.probe(a1));
}

TEST(Cache, FlushKeepsStatisticsAndResetsResidency) {
  Cache c(tiny_cache());
  c.access(0x0, true);
  c.access(0x40, false);
  const auto before = c.stats();
  c.flush();
  EXPECT_EQ(c.stats(), before);  // flush drops lines, not history
  EXPECT_EQ(c.resident_lines(), 0u);
  // A flushed dirty line is simply gone: re-touching misses cold, and
  // its eviction later cannot write back pre-flush dirt.
  EXPECT_FALSE(c.access(0x0, false));
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, ResidentLinesTracksFillsAndEvictions) {
  Cache c(tiny_cache());  // 16 lines total (8 sets x 2 ways)
  EXPECT_EQ(c.resident_lines(), 0u);
  c.access(0x0, false);
  c.access(0x20, false);  // same line
  EXPECT_EQ(c.resident_lines(), 1u);
  for (Addr a = 0; a < 16 * 64; a += 64) c.access(a, false);
  EXPECT_EQ(c.resident_lines(), 16u);
  c.access(16 * 64, false);  // conflict: evict + install, count steady
  EXPECT_EQ(c.resident_lines(), 16u);
}

TEST(Cache, DirtyEvictionWritesBack) {
  Cache c(tiny_cache());
  const Addr a0 = 0 * 64, a1 = 8 * 64, a2 = 16 * 64;
  c.access(a0, true);   // dirty
  c.access(a1, false);
  c.access(a2, false);  // evicts a0
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteAroundDoesNotAllocate) {
  auto cfg = tiny_cache();
  cfg.write_allocate = false;
  Cache c(cfg);
  EXPECT_FALSE(c.access(0x40, true));
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_EQ(c.stats().write_misses, 1u);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(tiny_cache());
  c.access(0x0, false);
  c.access(0x40, false);
  c.flush();
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.probe(0x0));
}

// ---------------------------------------------------------- Hierarchy --
TEST(Hierarchy, MissesWalkDownLevels) {
  Hierarchy h({tiny_cache(1024), tiny_cache(8192, 4)});
  EXPECT_EQ(h.access(0x100, false), 2u);  // memory
  EXPECT_EQ(h.access(0x100, false), 0u);  // L1 hit
  h.level(0);                              // access does not throw
  // Evict from L1 by sweeping, then the line should still hit in L2.
  for (Addr a = 0x10000; a < 0x10000 + 64 * 64; a += 64) {
    h.access(a, false);
  }
  EXPECT_EQ(h.access(0x100, false), 1u);  // L2 hit
}

TEST(Hierarchy, DramBytesCountLastLevelTraffic) {
  Hierarchy h({tiny_cache(1024)});
  for (Addr a = 0; a < 64 * 64; a += 64) h.access(a, false);
  EXPECT_EQ(h.dram_bytes(), 64u * 64u);
}

TEST(Hierarchy, RejectsEmptyConfig) {
  EXPECT_THROW(Hierarchy({}), std::invalid_argument);
}

// -------------------------------------------------------------- traces --
TEST(Trace, StreamingSweepTouchesEveryElementOnce) {
  SweepSpec spec;
  spec.arrays = 2;
  spec.elems = 1024;
  const auto t = generate_sweep(spec);
  EXPECT_EQ(t.size(), 2048u);  // one read + one write per element
  std::size_t writes = 0;
  for (const auto& a : t) writes += a.is_write ? 1 : 0;
  EXPECT_EQ(writes, 1024u);
}

TEST(Trace, GatherIsDeterministicPerSeed) {
  SweepSpec spec;
  spec.pattern = core::AccessPattern::Gather;
  spec.elems = 512;
  const auto t1 = generate_sweep(spec);
  const auto t2 = generate_sweep(spec);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].addr, t2[i].addr);
  }
  spec.seed += 1;
  const auto t3 = generate_sweep(spec);
  bool any_diff = false;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    any_diff = any_diff || t1[i].addr != t3[i].addr;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Trace, RejectsEmptySpec) {
  SweepSpec spec;
  spec.elems = 0;
  EXPECT_THROW((void)generate_sweep(spec), std::invalid_argument);
}

// ----------------------- validation against the analytical CacheModel --
struct ValidationCase {
  std::size_t elems;
  sim::MemLevel expected;  // analytical serving level, single C920 core
};

class AnalyticalAgreement
    : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(AnalyticalAgreement, ServingLevelMatchesSteadyMissRates) {
  const auto& [elems, expected] = GetParam();
  const auto m = machine::sg2042();

  // Analytical side: 2 arrays of FP64, single thread.
  const double ws_bytes = 2.0 * static_cast<double>(elems) * 8.0;
  const sim::CacheModel analytical(m);
  const auto stats =
      machine::analyze(m, machine::assign_cores(
                              m, machine::Placement::Block, 1));
  EXPECT_EQ(analytical.serving_level(ws_bytes, stats, 1), expected);

  // Trace-driven side: after warm reps the serving level is the first
  // level with a low steady-state miss rate.
  SweepSpec spec;
  spec.arrays = 2;
  spec.elems = elems;
  const auto result = replay_stream(m, spec, 4);
  const auto& mr = result.steady_miss_rate;
  ASSERT_EQ(mr.size(), 3u);

  switch (expected) {
    case sim::MemLevel::L1:
      EXPECT_LT(mr[0], 0.20);
      break;
    case sim::MemLevel::L2:
      EXPECT_GT(mr[0], 0.05);  // misses L1...
      EXPECT_LT(mr[1], 0.20);  // ...hits L2
      break;
    case sim::MemLevel::L3:
      EXPECT_GT(mr[1], 0.50);
      EXPECT_LT(mr[2], 0.20);
      break;
    case sim::MemLevel::DRAM:
      EXPECT_GT(mr[2], 0.80);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkingSetSweep, AnalyticalAgreement,
    ::testing::Values(
        ValidationCase{1 << 10, sim::MemLevel::L1},    // 16 KB
        ValidationCase{1 << 14, sim::MemLevel::L2},    // 256 KB
        ValidationCase{1 << 18, sim::MemLevel::L3},    // 4 MB
        ValidationCase{5 << 20, sim::MemLevel::DRAM}), // 84 MB, 1.3x L3
    [](const auto& info) {
      return "elems_" + std::to_string(info.param.elems);
    });

TEST(AnalyticalAgreementExtra, StreamingNeverReusesAcrossRepsWhenHuge) {
  // 2 x 32 MB of doubles: larger than the SG2042's whole L3 share.
  const auto m = machine::sg2042();
  SweepSpec spec;
  spec.arrays = 2;
  spec.elems = 1 << 22;
  const auto result =
      replay_stream(m, spec, 2, {.l2_sharers = 1, .l3_sharers = 2});
  // With only half the L3 (two sharers) the last level keeps missing.
  EXPECT_GT(result.steady_miss_rate.back(), 0.5);
}

TEST(AnalyticalAgreementExtra, L2SharingDegradesResidency) {
  // A working set that fits a whole 1 MB L2 but not a quarter of it.
  const auto m = machine::sg2042();
  SweepSpec spec;
  spec.arrays = 1;
  spec.elems = (700 * 1024) / 8;  // ~700 KB
  const auto alone = replay_stream(m, spec, 4, {.l2_sharers = 1});
  const auto shared = replay_stream(m, spec, 4, {.l2_sharers = 4});
  EXPECT_LT(alone.steady_miss_rate[1], 0.1);
  EXPECT_GT(shared.steady_miss_rate[1], 0.5);
}

TEST(AnalyticalAgreementExtra, StridedSweepWastesLines) {
  const auto m = machine::sg2042();
  SweepSpec unit;
  unit.arrays = 1;
  unit.elems = 1 << 21;  // 16 MB, beyond L2
  SweepSpec strided = unit;
  strided.pattern = core::AccessPattern::Strided;
  strided.stride_elems = 16;  // two lines apart for 8B elements
  const auto r_unit = replay_stream(m, unit, 2);
  const auto r_str = replay_stream(m, strided, 2);
  // Same element count, but the strided walk revisits lines across
  // phases after they were evicted -> more L1 misses.
  EXPECT_GT(r_str.steady_miss_rate[0], r_unit.steady_miss_rate[0]);
}

}  // namespace
}  // namespace sgp::cachesim
