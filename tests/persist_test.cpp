// Tests for the crash-safe persistence layer (engine/persist.hpp) and
// the engine's checkpoint/resume path: segment format round-trips,
// corruption detection/quarantine, I/O fault injection, cold-vs-warm
// engine identity — including a simulated kill mid-flush — and a
// thread-safety hammer for the flush thread (run under
// -DSGP_SANITIZE=thread via the check_tsan target).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "check/fuzz.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/persist.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "resilience/fault_injector.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sgp;
using engine::CacheKey;
using engine::SegmentStatus;

/// Fresh scratch directory per test, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sgp_persist_" + tag + "_" +
              std::to_string(static_cast<unsigned>(::getpid())))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

// `seed` varies the structured note fields so different entries carry
// different notes (it used to be free text, pre-NoteKind).
sim::TimeBreakdown breakdown(double base, const std::string& seed) {
  sim::TimeBreakdown tb;
  tb.compute_s = base;
  tb.memory_s = base * 2;
  tb.sync_s = base / 4;
  tb.atomic_s = 0.0;
  tb.total_s = tb.compute_s + tb.memory_s + tb.sync_s;
  tb.serving = sim::MemLevel::L2;
  tb.vector_path = true;
  tb.note = static_cast<compiler::NoteKind>(seed.size() % 6);
  tb.note_compiler = static_cast<core::CompilerId>(seed.size() % 2);
  tb.note_mode = static_cast<core::VectorMode>(seed.size() % 3);
  tb.note_rollback = !seed.empty();
  return tb;
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = static_cast<std::byte>(raw[i]);
  }
  return out;
}

void write_bytes(const std::string& path,
                 const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------- segment format --

TEST(Segment, EntriesRoundTripByteIdentically) {
  const std::vector<std::vector<std::byte>> payloads = {
      engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, "a")),
      engine::encode_cache_entry(CacheKey{4, 5, 6}, breakdown(0.25, "")),
      engine::encode_cache_entry(CacheKey{7, 8, 9},
                                 breakdown(1.0, "serving=DRAM path")),
  };
  const auto bytes = engine::build_segment(payloads);
  std::vector<std::vector<std::byte>> got;
  const auto parse = engine::parse_segment(
      bytes,
      [&](std::span<const std::byte> p) { got.emplace_back(p.begin(), p.end()); });
  EXPECT_EQ(parse.status, SegmentStatus::Ok);
  EXPECT_EQ(parse.entries, payloads.size());
  EXPECT_EQ(got, payloads);
}

TEST(Segment, CacheEntryCodecPreservesEveryField) {
  const CacheKey key{0xdeadbeefull, 42, 7};
  const auto tb = breakdown(0.125, "vector path, spilled to L2");
  const auto decoded =
      engine::decode_cache_entry(engine::encode_cache_entry(key, tb));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, key);
  EXPECT_DOUBLE_EQ(decoded->second.compute_s, tb.compute_s);
  EXPECT_DOUBLE_EQ(decoded->second.memory_s, tb.memory_s);
  EXPECT_DOUBLE_EQ(decoded->second.sync_s, tb.sync_s);
  EXPECT_DOUBLE_EQ(decoded->second.atomic_s, tb.atomic_s);
  EXPECT_DOUBLE_EQ(decoded->second.total_s, tb.total_s);
  EXPECT_EQ(decoded->second.serving, tb.serving);
  EXPECT_EQ(decoded->second.vector_path, tb.vector_path);
  EXPECT_EQ(decoded->second.note, tb.note);
  EXPECT_EQ(decoded->second.note_compiler, tb.note_compiler);
  EXPECT_EQ(decoded->second.note_mode, tb.note_mode);
  EXPECT_EQ(decoded->second.note_rollback, tb.note_rollback);
}

TEST(Segment, EmptySegmentIsValid) {
  const auto bytes = engine::build_segment({});
  const auto parse =
      engine::parse_segment(bytes, [](std::span<const std::byte>) {});
  EXPECT_EQ(parse.status, SegmentStatus::Ok);
  EXPECT_EQ(parse.entries, 0u);
}

TEST(Segment, DetectsTruncationEvenAtAnEntryBoundary) {
  const std::vector<std::vector<std::byte>> payloads = {
      engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, "x")),
      engine::encode_cache_entry(CacheKey{2, 2, 2}, breakdown(0.5, "y")),
  };
  auto bytes = engine::build_segment(payloads);
  // Chop off exactly the last entry's frame: without the header entry
  // count this would verify as a one-entry segment.
  const auto one = engine::build_segment({payloads[0]});
  bytes.resize(one.size());
  std::size_t delivered = 0;
  const auto parse = engine::parse_segment(
      bytes, [&](std::span<const std::byte>) { ++delivered; });
  EXPECT_EQ(parse.status, SegmentStatus::Corrupt);
  EXPECT_EQ(delivered, 0u);  // the segment is the atomic recovery unit
}

TEST(Segment, DetectsSingleBitFlipAnywhere) {
  const std::vector<std::vector<std::byte>> payloads = {
      engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, "zz")),
  };
  const auto clean = engine::build_segment(payloads);
  for (std::size_t bit = 0; bit < clean.size() * 8; bit += 7) {
    auto bytes = clean;
    bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    std::size_t delivered = 0;
    const auto parse = engine::parse_segment(
        bytes, [&](std::span<const std::byte>) { ++delivered; });
    EXPECT_NE(parse.status, SegmentStatus::Ok) << "bit " << bit;
    EXPECT_EQ(delivered, 0u) << "bit " << bit;
  }
}

TEST(Segment, RefusesUnknownVersions) {
  auto bytes = engine::build_segment({});
  bytes[8] = static_cast<std::byte>(engine::kSegmentVersion + 1);
  const auto parse =
      engine::parse_segment(bytes, [](std::span<const std::byte>) {});
  EXPECT_EQ(parse.status, SegmentStatus::BadVersion);
}

// ---------------------------------------------------- file loader --

TEST(SegmentFile, QuarantinesCorruptFilesAndRefusesNewVersionsInPlace) {
  const TempDir dir("loader");
  const std::string corrupt = dir.file("corrupt.sgpc");
  auto bytes = engine::build_segment(
      {engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, ""))});
  bytes.back() ^= static_cast<std::byte>(1);
  write_bytes(corrupt, bytes);
  auto parse = engine::load_segment_file(
      corrupt, [](std::span<const std::byte>) {}, nullptr, false);
  EXPECT_EQ(parse.status, SegmentStatus::Corrupt);
  EXPECT_FALSE(fs::exists(corrupt));
  EXPECT_TRUE(fs::exists(corrupt + ".quarantine"));

  // An unknown version must be refused but never moved or destroyed: a
  // newer tool's data survives being scanned by an older binary.
  const std::string newer = dir.file("newer.sgpc");
  auto vbytes = engine::build_segment({});
  vbytes[8] = static_cast<std::byte>(engine::kSegmentVersion + 9);
  write_bytes(newer, vbytes);
  parse = engine::load_segment_file(
      newer, [](std::span<const std::byte>) {}, nullptr, false);
  EXPECT_EQ(parse.status, SegmentStatus::BadVersion);
  EXPECT_TRUE(fs::exists(newer));
  EXPECT_FALSE(fs::exists(newer + ".quarantine"));
}

TEST(SegmentFile, InjectedBitFlipIsCaughtOnRead) {
  const TempDir dir("bitflip");
  const std::string path = dir.file("seg.sgpc");
  ASSERT_TRUE(engine::write_segment_file(
      path,
      {engine::encode_cache_entry(CacheKey{9, 9, 9}, breakdown(0.5, "n"))},
      nullptr, false));

  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.read:bitflip:1");
  resilience::FaultInjector injector(plan, 7u);
  const auto parse = engine::load_segment_file(
      path, [](std::span<const std::byte>) {}, &injector, false);
  EXPECT_NE(parse.status, SegmentStatus::Ok);
  // The on-disk file was fine; only the in-memory read was damaged —
  // but quarantine is still correct behaviour (fail-safe, re-computable).
  EXPECT_TRUE(fs::exists(path + ".quarantine"));
}

TEST(SegmentFile, TornWriteReportsSuccessButFailsVerification) {
  const TempDir dir("torn");
  const std::string path = dir.file("seg.sgpc");
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.write:torn:1");
  resilience::FaultInjector injector(plan, 11u);
  // A torn write models a crash after rename: the writer cannot see it.
  ASSERT_TRUE(engine::write_segment_file(
      path,
      {engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, "t"))},
      &injector, false));
  const auto parse = engine::load_segment_file(
      path, [](std::span<const std::byte>) {}, nullptr, false);
  EXPECT_NE(parse.status, SegmentStatus::Ok);
}

TEST(SegmentFile, DetectedWriteFaultsFailTheWrite) {
  const TempDir dir("enospc");
  for (const char* spec :
       {"persist.write:enospc:1", "persist.rename:renamefail:1"}) {
    const std::string path = dir.file("seg.sgpc");
    resilience::FaultPlan plan = resilience::FaultPlan::parse(spec);
    resilience::FaultInjector injector(plan, 3u);
    EXPECT_FALSE(engine::write_segment_file(
        path,
        {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))},
        &injector, false))
        << spec;
    EXPECT_FALSE(fs::exists(path)) << spec;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << spec;  // no debris
  }
}

// -------------------------------------------------------- the store --

TEST(PersistentStore, AppendLoadRoundTripAcrossSegments) {
  const TempDir dir("store");
  const auto p1 =
      engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, "one"));
  const auto p2 =
      engine::encode_cache_entry(CacheKey{2, 2, 2}, breakdown(0.25, "two"));
  {
    engine::PersistentStore store({dir.str(), nullptr, {}, false});
    EXPECT_TRUE(store.append({p1}));
    EXPECT_TRUE(store.append({p2}));
    EXPECT_EQ(store.stats().flushes, 2u);
    EXPECT_EQ(store.stats().entries_flushed, 2u);
  }
  engine::PersistentStore store({dir.str(), nullptr, {}, false});
  std::vector<std::vector<std::byte>> got;
  store.load([&](std::span<const std::byte> p) {
    got.emplace_back(p.begin(), p.end());
  });
  ASSERT_EQ(got.size(), 2u);  // segment-name order == append order
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(store.stats().segments_loaded, 2u);
  EXPECT_EQ(store.stats().entries_loaded, 2u);
}

TEST(PersistentStore, CleansTmpDebrisAndContinuesTheSequence) {
  const TempDir dir("debris");
  {
    engine::PersistentStore store({dir.str(), nullptr, {}, false});
    ASSERT_TRUE(store.append(
        {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))}));
  }
  // Crash debris: a half-written temp file next to the real segment.
  write_bytes(dir.file("seg-000002.sgpc.tmp"),
              std::vector<std::byte>(10, std::byte{0xab}));
  engine::PersistentStore store({dir.str(), nullptr, {}, false});
  EXPECT_FALSE(fs::exists(dir.file("seg-000002.sgpc.tmp")));
  ASSERT_TRUE(store.append(
      {engine::encode_cache_entry(CacheKey{2, 2, 2}, breakdown(0.5, ""))}));
  // The new segment continued after the highest existing sequence.
  EXPECT_TRUE(fs::exists(dir.file("seg-000002.sgpc")));
}

TEST(PersistentStore, RetriesFailedAppendsUnderTheJitteredPolicy) {
  const TempDir dir("retry");
  // Two write faults, three attempts allowed: the third succeeds.
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.write:enospc:2");
  resilience::FaultInjector injector(plan, 5u);
  engine::PersistOptions opt{dir.str(), &injector, {}, false};
  opt.retry.max_attempts = 3;
  opt.retry.backoff_initial_ms = 0.01;  // keep the test fast
  opt.retry.backoff_max_ms = 0.05;
  engine::PersistentStore store(opt);
  EXPECT_TRUE(store.append(
      {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))}));
  EXPECT_EQ(store.stats().flush_failures, 2u);
  EXPECT_EQ(store.stats().flushes, 1u);
}

TEST(PersistentStore, ManifestRoundTripsAndRejectsGarbage) {
  const TempDir dir("manifest");
  engine::PersistentStore store({dir.str(), nullptr, {}, false});
  ASSERT_TRUE(store.append(
      {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))}));
  store.write_manifest("unit test sweep");
  const auto info = store.read_manifest();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->segments, 1u);
  EXPECT_EQ(info->entries, 1u);
  EXPECT_EQ(info->flushes, 1u);
  EXPECT_EQ(info->note, "unit test sweep");

  std::ofstream(dir.file("sweep.manifest"), std::ios::trunc)
      << "not a manifest\n";
  EXPECT_FALSE(store.read_manifest().has_value());
}

// ------------------------------------------------ engine round trip --

engine::EngineOptions persistent_options(const std::string& dir, int jobs,
                                         std::size_t flush_min = 4) {
  engine::EnginePersistence p;
  p.store.dir = dir;
  p.store.warn = false;
  p.flush_min_entries = flush_min;
  p.note = "persist_test";
  return engine::EngineOptions{.jobs = jobs, .persist = p};
}

/// A small deterministic sweep: every kernel signature on one machine
/// at one thread count (one batch, so one flush trigger).
std::vector<sim::TimeBreakdown> sweep_at(engine::SweepEngine& eng,
                                         int nthreads) {
  const auto m = machine::sg2042();
  const auto sigs = kernels::all_signatures();
  sim::SimConfig c;
  c.nthreads = nthreads;
  return eng.run_grid(m, sigs, {&c, 1});
}

/// Two batches back to back: with a small flush_min_entries this
/// produces (at least) two segments, one per batch end.
std::vector<sim::TimeBreakdown> small_sweep(engine::SweepEngine& eng) {
  auto out = sweep_at(eng, 1);
  auto more = sweep_at(eng, 4);
  out.insert(out.end(), more.begin(), more.end());
  return out;
}

TEST(EnginePersist, WarmEngineReplaysWithoutSimulating) {
  const TempDir dir("engine");
  std::vector<sim::TimeBreakdown> cold_out;
  std::uint64_t cold_sims = 0;
  {
    engine::SweepEngine eng(persistent_options(dir.str(), 1));
    cold_out = small_sweep(eng);
    cold_sims = eng.counters().simulations;
    EXPECT_GT(cold_sims, 0u);
    EXPECT_EQ(eng.counters().simulators_built, 1u);
  }  // destructor flushes
  engine::SweepEngine warm(persistent_options(dir.str(), 1));
  const auto warm_out = small_sweep(warm);
  const auto c = warm.counters();
  EXPECT_EQ(c.simulations, 0u);  // pure replay
  EXPECT_EQ(c.simulators_built, 0u);  // all hits: no Simulator needed
  EXPECT_EQ(c.persist.cache.resumed_points, cold_sims);
  ASSERT_EQ(warm_out.size(), cold_out.size());
  for (std::size_t i = 0; i < cold_out.size(); ++i) {
    EXPECT_DOUBLE_EQ(warm_out[i].total_s, cold_out[i].total_s) << i;
    EXPECT_EQ(warm_out[i].note, cold_out[i].note) << i;
    EXPECT_EQ(warm_out[i].note_compiler, cold_out[i].note_compiler) << i;
    EXPECT_EQ(warm_out[i].note_mode, cold_out[i].note_mode) << i;
    EXPECT_EQ(warm_out[i].note_rollback, cold_out[i].note_rollback) << i;
    EXPECT_EQ(warm_out[i].serving, cold_out[i].serving) << i;
  }
}

TEST(EnginePersist, KilledMidFlushResumesByteIdentically) {
  const TempDir ref_dir("killref");
  const TempDir dir("kill");

  // Reference: one uninterrupted run.
  std::vector<sim::TimeBreakdown> reference;
  {
    engine::SweepEngine eng(persistent_options(ref_dir.str(), 1));
    reference = small_sweep(eng);
  }

  // "Crash": run the same sweep, then model a kill mid-flush by tearing
  // the tail segment to a torn length (header + half an entry).
  {
    engine::SweepEngine eng(persistent_options(dir.str(), 1));
    small_sweep(eng);
  }
  std::string last;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    const auto name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && name > last) last = name;
  }
  ASSERT_FALSE(last.empty());
  auto bytes = read_bytes(dir.file(last));
  ASSERT_GT(bytes.size(), engine::kSegmentHeaderSize + 6);
  bytes.resize(engine::kSegmentHeaderSize + 6);
  write_bytes(dir.file(last), bytes);

  // Resume: the torn segment is quarantined, its points recomputed, and
  // the sweep output is byte-identical to the uninterrupted run.
  engine::SweepEngine resumed(persistent_options(dir.str(), 1));
  const auto out = small_sweep(resumed);
  const auto c = resumed.counters();
  EXPECT_EQ(c.persist.store.quarantined_segments, 1u);
  EXPECT_TRUE(fs::exists(dir.file(last + ".quarantine")));
  EXPECT_GT(c.simulations, 0u);      // the lost points were recomputed
  EXPECT_GT(c.persist.cache.resumed_points, 0u);  // the rest replayed
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].total_s, reference[i].total_s) << i;
    EXPECT_DOUBLE_EQ(out[i].compute_s, reference[i].compute_s) << i;
    EXPECT_EQ(out[i].note, reference[i].note) << i;
    EXPECT_EQ(out[i].note_rollback, reference[i].note_rollback) << i;
  }
}

TEST(EnginePersist, FlushFailuresKeepEntriesQueuedUntilTheFaultClears) {
  const TempDir dir("queue");
  // Budget 3: each of small_sweep's two batch-end flushes burns one
  // fault, the explicit flush below burns the third; after that the
  // "disk" has recovered.
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.write:enospc:3");
  resilience::FaultInjector injector(plan, 13u);
  engine::EnginePersistence p;
  p.store.dir = dir.str();
  p.store.injector = &injector;
  p.store.warn = false;
  p.store.retry.max_attempts = 1;  // no in-call retries: fail fast
  p.flush_min_entries = 1;
  engine::SweepEngine eng(engine::EngineOptions{.jobs = 1, .persist = p});
  small_sweep(eng);
  EXPECT_FALSE(eng.flush_persistent());
  const auto before = eng.counters();
  EXPECT_GT(before.persist.pending_entries, 0u);
  EXPECT_GT(before.persist.store.flush_failures, 0u);
  // The disk "recovers" (fault budget exhausted): everything drains.
  EXPECT_TRUE(eng.flush_persistent());
  EXPECT_EQ(eng.counters().persist.pending_entries, 0u);
}

TEST(EnginePersist, BackgroundFlusherDrainsWithoutExplicitFlush) {
  const TempDir dir("bg");
  {
    engine::EnginePersistence p;
    p.store.dir = dir.str();
    p.store.warn = false;
    p.flush_min_entries = 1u << 20;  // never trip the size trigger
    p.flush_interval_ms = 5.0;
    engine::SweepEngine eng(engine::EngineOptions{.jobs = 2, .persist = p});
    small_sweep(eng);
    // The interval flusher should persist everything without any
    // explicit flush call; poll briefly rather than sleeping blind.
    for (int spin = 0; spin < 400; ++spin) {
      if (eng.counters().persist.store.entries_flushed > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(eng.counters().persist.store.entries_flushed, 0u);
  }
  engine::SweepEngine warm(persistent_options(dir.str(), 1));
  small_sweep(warm);
  EXPECT_EQ(warm.counters().simulations, 0u);
}

// ------------------------------------------------- thread safety --
// Aimed at -DSGP_SANITIZE=thread (the check_tsan target): the
// background flusher, parallel batches, stats readers and clear() all
// race on the cache; TSan must stay quiet.

TEST(EnginePersist, FlushThreadRacesBatchesStatsAndClearCleanly) {
  const TempDir dir("race");
  engine::EnginePersistence p;
  p.store.dir = dir.str();
  p.store.warn = false;
  p.flush_min_entries = 8;
  p.flush_interval_ms = 1.0;  // aggressive background flushing
  engine::SweepEngine eng(engine::EngineOptions{.jobs = 4, .persist = p});

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)eng.counters();
      std::this_thread::yield();
    }
  });
  std::thread flusher([&] {
    while (!stop.load()) {
      eng.flush_persistent();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 6; ++round) {
    small_sweep(eng);
    if (round == 3) eng.clear_cache();
  }
  stop.store(true);
  reader.join();
  flusher.join();
  EXPECT_TRUE(eng.flush_persistent());
}

// ------------------------------------------------- fuzz the parser --

TEST(SegmentFuzz, LoaderSurvivesAndClassifiesDeterministically) {
  const TempDir dir("fuzz");
  const auto report = check::fuzz_segments(100, 64, dir.str(), 2);
  EXPECT_GT(report.points, 0u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

}  // namespace
