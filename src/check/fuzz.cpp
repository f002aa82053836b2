#include "check/fuzz.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "cachesim/replay.hpp"
#include "engine/engine.hpp"
#include "engine/persist.hpp"
#include "kernels/register_all.hpp"
#include "machine/placement.hpp"
#include "machine/registry.hpp"
#include "machine/serialize.hpp"
#include "obs/json.hpp"
#include "sim/eval_context.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace sgp::check {

machine::MachineDescriptor random_machine(unsigned seed) {
  std::mt19937 rng(seed);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](std::initializer_list<int> opts) {
    std::vector<int> v(opts);
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(
        rng)];
  };

  machine::MachineDescriptor m;
  m.name = "random-" + std::to_string(seed);

  const int cluster_width = pick({1, 2, 4});
  const int clusters_per_region = pick({1, 2, 4});
  const int regions = pick({1, 2, 4});
  const int cores_per_region = cluster_width * clusters_per_region;
  m.num_cores = cores_per_region * regions;

  machine::CoreSpec c;
  c.clock_ghz = uniform(0.8, 4.0);
  c.decode_width = pick({2, 3, 4, 5});
  c.issue_width = c.decode_width * 2;
  c.out_of_order = pick({0, 1}) != 0;
  c.fp_pipes = pick({1, 2});
  c.fma = pick({0, 1}) != 0;
  c.mem_ports = pick({1, 2, 3});
  c.scalar_eff = uniform(0.1, 0.9);
  c.stream_bw_gbs = uniform(0.5, 25.0);
  c.scalar_stream_derate = uniform(0.3, 1.0);
  if (pick({0, 1}) != 0) {
    machine::VectorUnit v;
    v.isa = "RVV v0.7.1";
    v.width_bits = pick({128, 256, 512});
    v.fp32 = true;
    v.fp64 = pick({0, 1}) != 0;
    v.efficiency_fp32 = uniform(0.2, 0.9);
    v.efficiency_fp64 = v.fp64 ? uniform(0.2, 0.9) : 0.0;
    c.vector = v;
  }
  m.core = c;

  m.l1d = machine::CacheSpec{
      static_cast<std::size_t>(pick({16, 32, 64})) * 1024, 64, 1, 32.0,
      4.0};
  m.l2 = machine::CacheSpec{
      static_cast<std::size_t>(pick({256, 512, 1024, 2048})) * 1024, 64,
      cluster_width, 24.0, 16.0};
  if (pick({0, 1}) != 0) {
    m.l3 = machine::CacheSpec{
        static_cast<std::size_t>(pick({4, 16, 64})) * 1024 * 1024, 64,
        m.num_cores, uniform(20.0, 200.0), 60.0};
    m.l3_memory_side = pick({0, 1}) != 0;
  } else {
    m.l3 = machine::CacheSpec{};
  }

  for (int r = 0; r < regions; ++r) {
    machine::NumaRegion region;
    for (int i = 0; i < cores_per_region; ++i) {
      region.cores.push_back(r * cores_per_region + i);
    }
    region.controllers = 1;
    region.mem_bw_gbs = uniform(2.0, 60.0);
    m.numa.push_back(region);
  }
  for (int base = 0; base < m.num_cores; base += cluster_width) {
    std::vector<int> cl;
    for (int i = 0; i < cluster_width; ++i) cl.push_back(base + i);
    m.clusters.push_back(cl);
  }

  m.cluster_bw_gbs = pick({0, 1}) != 0 ? uniform(1.0, 20.0) : 0.0;
  m.fork_join_us = uniform(0.5, 10.0);
  m.barrier_us_per_thread = uniform(0.01, 1.0);
  m.numa_span_sync_factor = uniform(1.0, 1.5);
  m.oversubscribe_gamma = uniform(0.0, 1.0);
  m.oversubscribe_knee =
      pick({0, 1}) != 0 ? 0.0 : cores_per_region / 2.0;
  m.atomic_rtt_ns = uniform(20.0, 150.0);
  return m;
}

CheckReport fuzz_invariants(unsigned first_seed, unsigned num_seeds,
                            const FuzzOptions& opt, int jobs) {
  std::vector<core::KernelSignature> sigs;
  for (const auto& name : opt.kernels) {
    bool found = false;
    for (const auto& s : kernels::all_signatures()) {
      if (s.name == name) {
        sigs.push_back(s);
        found = true;
      }
    }
    if (!found) {
      throw std::invalid_argument("fuzz_invariants: unknown kernel " + name);
    }
  }

  // One shard per seed; the InvariantChecker (and its Simulator) is
  // built inside the shard, so workers share nothing mutable.
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    const auto m = random_machine(seed);
    const InvariantChecker checker(m, opt.check);
    CheckReport shard;

    const int n = m.num_cores;
    std::vector<int> thread_grid{1, std::max(1, n / 2), n};
    std::sort(thread_grid.begin(), thread_grid.end());
    thread_grid.erase(
        std::unique(thread_grid.begin(), thread_grid.end()),
        thread_grid.end());

    for (const auto& sig : sigs) {
      for (const auto prec : core::all_precisions) {
        for (const auto placement : machine::all_placements) {
          sim::SimConfig cfg;
          cfg.precision = prec;
          cfg.placement = placement;
          for (const int t : thread_grid) {
            cfg.nthreads = t;
            checker.check_point(sig, cfg, shard);
          }
          checker.check_thread_monotonicity(sig, cfg, thread_grid, shard);
        }
      }
    }
    return shard;
  });
}

namespace {

std::string render_stats(const cachesim::CacheStats& s) {
  std::ostringstream os;
  os << "rh=" << s.read_hits << " rm=" << s.read_misses
     << " wh=" << s.write_hits << " wm=" << s.write_misses
     << " ev=" << s.evictions << " wb=" << s.writebacks
     << " wbh=" << s.wb_hits << " wbm=" << s.wb_misses;
  return os.str();
}

/// "" when the two replays agree bit-for-bit on everything the oracle
/// pins; otherwise a one-line description of the first divergence.
std::string diff_replays(const cachesim::ReplayResult& a,
                         const cachesim::ReplayResult& b,
                         const std::string& an, const std::string& bn) {
  if (a.accesses != b.accesses) {
    return "accesses " + std::to_string(a.accesses) + " (" + an + ") vs " +
           std::to_string(b.accesses) + " (" + bn + ")";
  }
  if (a.hierarchy.dram_bytes() != b.hierarchy.dram_bytes()) {
    return "dram_bytes " + std::to_string(a.hierarchy.dram_bytes()) +
           " (" + an + ") vs " + std::to_string(b.hierarchy.dram_bytes()) +
           " (" + bn + ")";
  }
  if (a.steady_miss_rate != b.steady_miss_rate) {
    return "steady miss rates differ (" + an + " vs " + bn + ")";
  }
  for (std::size_t l = 0; l < a.hierarchy.levels(); ++l) {
    const auto& sa = a.hierarchy.level(l).stats();
    const auto& sb = b.hierarchy.level(l).stats();
    if (!(sa == sb)) {
      return a.hierarchy.level(l).config().name + " " + an + "{" +
             render_stats(sa) + "} " + bn + "{" + render_stats(sb) + "}";
    }
  }
  return {};
}

struct AgreeCase {
  core::AccessPattern pattern;
  std::size_t arrays;
  std::size_t elems;
  std::size_t stride;
  int reps;
};

// Small enough that the vector reference stays cheap on every random
// machine, large enough to spill L1 and exercise evictions.
constexpr AgreeCase kAgreeCases[] = {
    {core::AccessPattern::Streaming, 3, std::size_t{1} << 12, 8, 6},
    {core::AccessPattern::Reduction, 1, std::size_t{1} << 12, 8, 6},
    {core::AccessPattern::Strided, 2, std::size_t{1} << 12, 16, 6},
    {core::AccessPattern::Stencil1D, 2, std::size_t{1} << 12, 8, 5},
    {core::AccessPattern::Stencil2D, 2, std::size_t{1} << 12, 8, 5},
    {core::AccessPattern::Gather, 2, std::size_t{1} << 11, 8, 4},
    {core::AccessPattern::Sequential, 1, std::size_t{1} << 12, 8, 6},
};

/// Replay identity (vector reference vs stream) of one case on an
/// explicit hierarchy. `subject` names the machine (plus any config
/// perturbation) in violation reports.
void agree_vector_stream(const std::vector<cachesim::CacheConfig>& cfgs,
                         const std::string& subject, const AgreeCase& c,
                         CheckReport& report) {
  cachesim::SweepSpec spec;
  spec.pattern = c.pattern;
  spec.arrays = c.arrays;
  spec.elems = c.elems;
  spec.stride_elems = c.stride;

  const std::string detail =
      diff_replays(cachesim::replay_vector(cfgs, spec, c.reps),
                   cachesim::replay_stream(cfgs, spec, c.reps), "vector",
                   "stream");

  ++report.points;
  obs::registry().counter("check.cachesim-replay-agreement.points").add();
  if (!detail.empty()) {
    obs::registry()
        .counter("check.cachesim-replay-agreement.violations")
        .add();
    report.violations.push_back(Violation{
        "cachesim-replay-agreement", subject,
        std::string("sweep-") + std::string(core::to_string(c.pattern)),
        "elems=" + std::to_string(c.elems) +
            " reps=" + std::to_string(c.reps),
        detail});
  }
}

}  // namespace

CheckReport cachesim_agreement(const machine::MachineDescriptor& m) {
  using core::AccessPattern;
  CheckReport report;
  const auto cfgs = cachesim::hierarchy_configs(m);
  for (const auto& c : kAgreeCases) {
    agree_vector_stream(cfgs, m.name, c, report);
  }

  // Config perturbations the descriptor path never builds: FIFO
  // replacement at every level (fill stamps must survive batching and
  // steady-state extrapolation) and a write-around L1 (a missing
  // pure-write segment forwards at full multiplicity down the
  // hierarchy).
  auto fifo = cfgs;
  for (auto& cfg : fifo) cfg.policy = cachesim::ReplacementPolicy::FIFO;
  auto wa = cfgs;
  wa.front().write_allocate = false;
  const AgreeCase perturbed[] = {
      {AccessPattern::Streaming, 3, std::size_t{1} << 12, 8, 5},
      {AccessPattern::Gather, 2, std::size_t{1} << 11, 8, 4},
      {AccessPattern::Sequential, 1, std::size_t{1} << 12, 8, 5},
  };
  for (const auto& c : perturbed) {
    agree_vector_stream(fifo, m.name + "+fifo", c, report);
    agree_vector_stream(wa, m.name + "+write-around", c, report);
  }
  return report;
}

CheckReport fuzz_cachesim(unsigned first_seed, unsigned num_seeds,
                          int jobs) {
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    return cachesim_agreement(
        random_machine(first_seed + static_cast<unsigned>(i)));
  });
}

// ------------------------------------------------- segment fuzzing --

namespace {

namespace fs = std::filesystem;

/// One seeded, random-but-valid segment: encoded cache entries with
/// random fingerprints, breakdowns and structured note fields across
/// their whole valid range.
std::vector<std::vector<std::byte>> random_payloads(std::mt19937_64& rng) {
  const std::size_t n = rng() % 6;  // 0..5 entries; 0 = empty segment
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engine::CacheKey key{rng(), rng(), rng()};
    sim::TimeBreakdown tb;
    auto real = [&rng] {
      return static_cast<double>(rng() % 1'000'000) * 1e-6;
    };
    tb.compute_s = real();
    tb.memory_s = real();
    tb.sync_s = real();
    tb.atomic_s = real();
    tb.total_s = tb.compute_s + tb.memory_s + tb.sync_s + tb.atomic_s;
    tb.serving = static_cast<sim::MemLevel>(rng() % 4);
    tb.vector_path = (rng() % 2) != 0;
    tb.note = static_cast<compiler::NoteKind>(rng() % 6);
    tb.note_compiler = static_cast<core::CompilerId>(rng() % 2);
    tb.note_mode = static_cast<core::VectorMode>(rng() % 3);
    tb.note_rollback = (rng() % 2) != 0;
    payloads.push_back(engine::encode_cache_entry(key, tb));
  }
  return payloads;
}

enum class Mutation {
  Truncate,    ///< drop a random non-zero tail (torn write / crash)
  BitFlip,     ///< flip one random bit anywhere in the file
  VersionBump, ///< set the version field to an unknown value
  BadMagic,    ///< destroy a random magic byte
  Trailing,    ///< append random garbage after the last entry
  kCount
};

/// Applies `m` to `bytes` in place, deterministically from `rng`.
void mutate(std::vector<std::byte>& bytes, Mutation m, std::mt19937_64& rng) {
  switch (m) {
    case Mutation::Truncate:
      bytes.resize(rng() % bytes.size());  // strictly shorter
      break;
    case Mutation::BitFlip: {
      const std::uint64_t bit = rng() % (bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      break;
    }
    case Mutation::VersionBump: {
      // Version field is bytes [8, 12); force a value != kSegmentVersion.
      const std::uint32_t v =
          engine::kSegmentVersion + 1 + static_cast<std::uint32_t>(rng() % 7);
      for (int i = 0; i < 4; ++i) {
        bytes[8 + static_cast<std::size_t>(i)] =
            static_cast<std::byte>((v >> (8 * i)) & 0xff);
      }
      break;
    }
    case Mutation::BadMagic:
      bytes[rng() % 8] ^= static_cast<std::byte>(0x80 | (rng() % 0x7f + 1));
      break;
    case Mutation::Trailing: {
      const std::size_t extra = 1 + rng() % 32;
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::byte>(rng() % 256));
      }
      break;
    }
    case Mutation::kCount:
      break;
  }
}

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::Truncate: return "truncate";
    case Mutation::BitFlip: return "bitflip";
    case Mutation::VersionBump: return "version-bump";
    case Mutation::BadMagic: return "bad-magic";
    case Mutation::Trailing: return "trailing-garbage";
    case Mutation::kCount: break;
  }
  return "?";
}

void add_segment_violation(CheckReport& report, unsigned seed,
                           const std::string& stage,
                           const std::string& detail) {
  obs::registry().counter("check.persist-segment-robustness.violations").add();
  report.violations.push_back(Violation{
      "persist-segment-robustness", "segment-fuzz",
      "seed-" + std::to_string(seed), stage, detail});
}

}  // namespace

CheckReport fuzz_segments(unsigned first_seed, unsigned num_seeds,
                          const std::string& dir, int jobs) {
  fs::create_directories(dir);
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    auto point = [&shard] {
      ++shard.points;
      obs::registry().counter("check.persist-segment-robustness.points").add();
    };

    std::mt19937_64 rng(seed);
    const auto payloads = random_payloads(rng);
    std::vector<std::byte> bytes = engine::build_segment(payloads);

    // 1. The untouched segment round-trips: status Ok, every payload
    //    delivered byte-identically, in order.
    {
      std::vector<std::vector<std::byte>> got;
      const auto parse = engine::parse_segment(
          bytes, [&](std::span<const std::byte> p) {
            got.emplace_back(p.begin(), p.end());
          });
      point();
      if (parse.status != engine::SegmentStatus::Ok || got != payloads) {
        add_segment_violation(
            shard, seed, "round-trip",
            "status=" + std::string(engine::to_string(parse.status)) +
                " delivered=" + std::to_string(got.size()) + "/" +
                std::to_string(payloads.size()));
      }
    }

    // 2. A seeded mutation must be detected: non-Ok status, zero
    //    payloads delivered, and the classification is deterministic
    //    (parsing the same bytes twice agrees).
    const auto m = static_cast<Mutation>(
        rng() % static_cast<std::uint64_t>(Mutation::kCount));
    mutate(bytes, m, rng);
    std::uint64_t delivered = 0;
    const auto first = engine::parse_segment(
        bytes, [&](std::span<const std::byte>) { ++delivered; });
    const auto second = engine::parse_segment(
        bytes, [](std::span<const std::byte>) {});
    point();
    if (first.status == engine::SegmentStatus::Ok || delivered != 0) {
      add_segment_violation(
          shard, seed, mutation_name(m),
          "mutation not detected: status=" +
              std::string(engine::to_string(first.status)) +
              " delivered=" + std::to_string(delivered));
    } else if (first.status != second.status) {
      add_segment_violation(
          shard, seed, mutation_name(m),
          "nondeterministic classification: " +
              std::string(engine::to_string(first.status)) + " vs " +
              std::string(engine::to_string(second.status)));
    }

    // 3. The file loader agrees with the in-memory parse and leaves the
    //    right artifacts: quarantine for BadMagic/Corrupt, the file
    //    refused in place for BadVersion.
    const std::string path =
        (fs::path(dir) / ("fuzz-" + std::to_string(seed) + ".sgpc"))
            .string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    const auto loaded = engine::load_segment_file(
        path, [](std::span<const std::byte>) {}, nullptr, /*warn=*/false);
    const bool expect_quarantine =
        loaded.status == engine::SegmentStatus::BadMagic ||
        loaded.status == engine::SegmentStatus::Corrupt;
    const bool quarantined = fs::exists(path + ".quarantine");
    const bool in_place = fs::exists(path);
    point();
    if (loaded.status != first.status) {
      add_segment_violation(
          shard, seed, mutation_name(m),
          "loader/parser disagree: " +
              std::string(engine::to_string(loaded.status)) + " vs " +
              std::string(engine::to_string(first.status)));
    } else if (quarantined != expect_quarantine ||
               in_place == expect_quarantine) {
      add_segment_violation(
          shard, seed, mutation_name(m),
          "wrong disk artifact for " +
              std::string(engine::to_string(loaded.status)) +
              ": quarantined=" + (quarantined ? "yes" : "no") +
              " in_place=" + (in_place ? "yes" : "no"));
    }
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".quarantine", ec);
    return shard;
  });
}

namespace {

/// One seeded, random-but-valid request line covering every op and the
/// simulation-field surface (machines, kernel lists, thread grids,
/// formats, deadlines).
std::string random_request_line(std::mt19937_64& rng) {
  const std::string id = "req-" + std::to_string(rng() % 100000);
  const std::uint64_t kind = rng() % 8;
  if (kind == 0) return "{\"id\":\"" + id + "\",\"op\":\"ping\"}";
  if (kind == 1) return "{\"id\":\"" + id + "\",\"op\":\"stats\"}";
  if (kind == 2) return "{\"id\":\"" + id + "\",\"op\":\"metrics\"}";

  // Multicore machines only, so any thread pick below stays in range.
  static const char* kMachines[] = {"sg2042", "rome", "icelake",
                                    "broadwell"};
  static const char* kKernels[] = {"TRIAD", "COPY", "GEMM", "DOT",
                                   "JACOBI_2D"};
  const std::string machine = kMachines[rng() % std::size(kMachines)];
  std::string line = "{\"id\":\"" + id + "\"";
  line += ",\"machine\":\"" + machine + "\"";
  // simulate takes exactly one point, so it always pins one precision;
  // sweep may also omit the field (default: both).
  if (kind == 3 || rng() % 2 == 0) {
    line += std::string(",\"precision\":\"") +
            (rng() % 2 == 0 ? "fp32" : "fp64") + "\"";
  }
  if (rng() % 2 == 0) {
    line += std::string(",\"format\":\"") +
            (rng() % 2 == 0 ? "csv" : "json") + "\"";
  }
  if (rng() % 3 == 0) {
    line += ",\"deadline_ms\":" + std::to_string(100 + rng() % 1000);
  }
  if (kind == 3) {
    line += ",\"op\":\"simulate\"";
    line += std::string(",\"kernel\":\"") +
            kKernels[rng() % std::size(kKernels)] + "\"";
    line += ",\"threads\":" + std::to_string(1 + rng() % 16);
  } else {
    line += ",\"op\":\"sweep\"";
    const std::size_t nk = 1 + rng() % 3;
    const std::size_t base = rng() % std::size(kKernels);
    line += ",\"kernels\":[";
    for (std::size_t k = 0; k < nk; ++k) {
      if (k > 0) line += ",";
      // Consecutive names from a random offset: distinct for nk <= 5
      // (duplicates are correctly rejected, so the valid line must
      // avoid them).
      line += std::string("\"") +
              kKernels[(base + k) % std::size(kKernels)] + "\"";
    }
    line += "]";
    line += ",\"threads\":[1," + std::to_string(2 + rng() % 15) + "]";
  }
  line += "}";
  return line;
}

enum class ReqMutation {
  Truncate,      ///< drop a random non-zero tail (torn client write)
  ByteGarbage,   ///< overwrite 1..4 random bytes with random values
  BadUtf8,       ///< splice an invalid UTF-8 sequence into the line
  UnknownField,  ///< insert a field no schema knows
  DuplicateKey,  ///< repeat the id key (RFC 8259 object abuse)
  Oversize,      ///< pad the line past max_line_bytes
  kCount
};

const char* req_mutation_name(ReqMutation m) {
  switch (m) {
    case ReqMutation::Truncate: return "truncate";
    case ReqMutation::ByteGarbage: return "byte-garbage";
    case ReqMutation::BadUtf8: return "bad-utf8";
    case ReqMutation::UnknownField: return "unknown-field";
    case ReqMutation::DuplicateKey: return "duplicate-key";
    case ReqMutation::Oversize: return "oversize";
    case ReqMutation::kCount: break;
  }
  return "?";
}

void req_mutate(std::string& line, ReqMutation m, std::mt19937_64& rng,
                std::size_t max_line_bytes) {
  switch (m) {
    case ReqMutation::Truncate:
      line.resize(rng() % line.size());  // strictly shorter
      break;
    case ReqMutation::ByteGarbage: {
      const std::size_t n = 1 + rng() % 4;
      for (std::size_t i = 0; i < n; ++i) {
        line[rng() % line.size()] = static_cast<char>(rng() % 256);
      }
      break;
    }
    case ReqMutation::BadUtf8: {
      static const char* kBad[] = {
          "\xff", "\x80", "\xc0\x80", "\xed\xa0\x80", "\xf5\x80\x80\x80"};
      line.insert(rng() % line.size(), kBad[rng() % std::size(kBad)]);
      break;
    }
    case ReqMutation::UnknownField:
      // After the opening brace, so the object still parses as JSON and
      // rejection must come from schema validation.
      line.insert(1, "\"xq_unknown_field\":12345,");
      break;
    case ReqMutation::DuplicateKey:
      line.insert(1, "\"id\":\"twin\",");
      break;
    case ReqMutation::Oversize:
      line.append(max_line_bytes + 1 - std::min(line.size(),
                                                max_line_bytes),
                  ' ');
      break;
    case ReqMutation::kCount:
      break;
  }
}

void add_request_violation(CheckReport& report, unsigned seed,
                           const std::string& stage,
                           const std::string& detail) {
  obs::registry().counter("check.serve-request-robustness.violations").add();
  report.violations.push_back(Violation{
      "serve-request-robustness", "request-fuzz",
      "seed-" + std::to_string(seed), stage, detail});
}

/// Canonical rendering of a parse outcome, for determinism comparison
/// and diagnostics.
std::string outcome_repr(const serve::ParseOutcome& o) {
  if (const auto* req = std::get_if<serve::Request>(&o)) {
    return "ok fp=" + std::to_string(req->fingerprint()) +
           " id=" + req->id;
  }
  const auto& [id, err] =
      std::get<std::pair<std::string, serve::ServeError>>(o);
  return "err code=" + std::string(serve::to_string(err.code)) +
         " id=" + id + " msg=" + err.message;
}

}  // namespace

CheckReport fuzz_requests(unsigned first_seed, unsigned num_seeds,
                          int jobs) {
  // Small line cap so the oversize mutation stays cheap per seed.
  serve::ProtocolLimits limits;
  limits.max_line_bytes = 4096;

  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    auto point = [&shard] {
      ++shard.points;
      obs::registry().counter("check.serve-request-robustness.points").add();
    };

    std::mt19937_64 rng(seed);
    std::string line = random_request_line(rng);

    // 1. The untouched line is accepted.
    point();
    try {
      const auto ok = serve::parse_request(line, limits);
      if (!std::holds_alternative<serve::Request>(ok)) {
        add_request_violation(shard, seed, "valid-line",
                              "rejected: " + outcome_repr(ok) +
                                  " line=" + line);
      }
    } catch (const std::exception& e) {
      add_request_violation(shard, seed, "valid-line",
                            std::string("threw: ") + e.what());
      return shard;
    }

    // 2. A seeded mutation: never crash, classify deterministically,
    //    and structured errors must render as valid JSON lines.
    const auto m = static_cast<ReqMutation>(
        rng() % static_cast<std::uint64_t>(ReqMutation::kCount));
    req_mutate(line, m, rng, limits.max_line_bytes);
    const std::string stage = req_mutation_name(m);
    try {
      const auto first = serve::parse_request(line, limits);
      const auto second = serve::parse_request(line, limits);
      point();
      if (outcome_repr(first) != outcome_repr(second)) {
        add_request_violation(shard, seed, stage,
                              "nondeterministic classification: " +
                                  outcome_repr(first) + " vs " +
                                  outcome_repr(second));
      }
      // Structural mutations are guaranteed rejections; byte-level ones
      // may legitimately still parse (a flip inside a string literal).
      const bool must_fail = m == ReqMutation::UnknownField ||
                             m == ReqMutation::DuplicateKey ||
                             m == ReqMutation::Oversize ||
                             m == ReqMutation::Truncate;
      if (const auto* failed =
              std::get_if<std::pair<std::string, serve::ServeError>>(
                  &first)) {
        point();
        const auto& err = failed->second;
        const std::string rendered =
            serve::render_error(failed->first, err);
        if (err.message.empty() ||
            serve::to_string(err.code) == std::string_view("?") ||
            !obs::json_valid(rendered)) {
          add_request_violation(shard, seed, stage,
                                "unstructured error: " + rendered);
        }
        if (m == ReqMutation::Oversize &&
            err.code != serve::ErrorCode::TooLarge) {
          add_request_violation(
              shard, seed, stage,
              "oversize line classified as " +
                  std::string(serve::to_string(err.code)));
        }
      } else if (must_fail) {
        point();
        add_request_violation(shard, seed, stage,
                              "mutation not detected: " +
                                  outcome_repr(first));
      }
    } catch (const std::exception& e) {
      add_request_violation(shard, seed, stage,
                            std::string("threw: ") + e.what());
    }
    return shard;
  });
}

// --------------------------------------------- machine INI round trip --

namespace {

void add_ini_violation(CheckReport& report, unsigned seed,
                       const std::string& stage,
                       const std::string& detail) {
  obs::registry().counter("check.machine-ini-roundtrip.violations").add();
  report.violations.push_back(Violation{
      "machine-ini-roundtrip", "ini-fuzz",
      "seed-" + std::to_string(seed), stage, detail});
}

/// A valid but non-uniform cluster variant of `m`: merges the first
/// two clusters when they share a NUMA region, otherwise splits the
/// first cluster with two or more cores. Returns `m` unchanged only
/// for all-singleton single-cluster machines, where neither applies.
machine::MachineDescriptor heterogeneous_variant(
    const machine::MachineDescriptor& m) {
  machine::MachineDescriptor out = m;
  if (out.clusters.size() >= 2 &&
      m.numa_of_core(out.clusters[0].front()) ==
          m.numa_of_core(out.clusters[1].front())) {
    out.clusters[0].insert(out.clusters[0].end(), out.clusters[1].begin(),
                           out.clusters[1].end());
    out.clusters.erase(out.clusters.begin() + 1);
    return out;
  }
  for (auto it = out.clusters.begin(); it != out.clusters.end(); ++it) {
    if (it->size() >= 2) {
      std::vector<int> tail(it->begin() + 1, it->end());
      it->resize(1);
      out.clusters.insert(it + 1, std::move(tail));
      return out;
    }
  }
  return out;
}

}  // namespace

CheckReport fuzz_ini_roundtrip(unsigned first_seed, unsigned num_seeds,
                               int jobs) {
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    auto point = [&shard] {
      ++shard.points;
      obs::registry().counter("check.machine-ini-roundtrip.points").add();
    };

    const auto m = random_machine(seed);
    const std::string text = machine::to_ini(m);

    // 1. The generated machine round-trips byte-identically.
    point();
    try {
      const auto back = machine::from_ini(text);
      if (machine::to_ini(back) != text || back.clusters != m.clusters ||
          back.numa.size() != m.numa.size()) {
        add_ini_violation(shard, seed, "round-trip",
                          "to_ini(from_ini(text)) differs from text");
      }
    } catch (const std::exception& e) {
      add_ini_violation(shard, seed, "round-trip",
                        std::string("threw: ") + e.what());
    }

    // 2. Non-uniform clusters survive via explicit cluster.N lists
    //    (the topology to_ini used to flatten to cluster_width).
    point();
    try {
      const auto het = heterogeneous_variant(m);
      het.validate();
      const auto het_text = machine::to_ini(het);
      const auto back = machine::from_ini(het_text);
      if (back.clusters != het.clusters ||
          machine::to_ini(back) != het_text) {
        add_ini_violation(shard, seed, "heterogeneous-clusters",
                          "cluster topology lost in round trip");
      }
    } catch (const std::exception& e) {
      add_ini_violation(shard, seed, "heterogeneous-clusters",
                        std::string("threw: ") + e.what());
    }

    // 3. A repeated section header is rejected, with a line number
    //    (it used to merge silently).
    point();
    try {
      (void)machine::from_ini(text + "\n[core]\nclock_ghz = 1\n");
      add_ini_violation(shard, seed, "duplicate-section",
                        "repeated [core] header accepted");
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.find("duplicate section") == std::string::npos ||
          what.find("line ") == std::string::npos) {
        add_ini_violation(shard, seed, "duplicate-section",
                          "wrong error: " + what);
      }
    }

    // 4. A repeated key is rejected, with a line number (last-one-wins
    //    was silent data loss).
    point();
    {
      std::string dup = text;
      const auto pos = dup.find("num_cores = ");
      dup.insert(pos, "num_cores = 1\n");
      try {
        (void)machine::from_ini(dup);
        add_ini_violation(shard, seed, "duplicate-key",
                          "repeated num_cores accepted");
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        if (what.find("duplicate key 'num_cores'") == std::string::npos ||
            what.find("line ") == std::string::npos) {
          add_ini_violation(shard, seed, "duplicate-key",
                            "wrong error: " + what);
        }
      }
    }

    // 5. An empty value is a clear parse error, not a silent default
    //    (the shape a formatting failure used to produce).
    point();
    {
      std::string empty_value = text;
      const auto pos = empty_value.find("clock_ghz = ");
      const auto eol = empty_value.find('\n', pos);
      empty_value.replace(pos, eol - pos, "clock_ghz =");
      try {
        (void)machine::from_ini(empty_value);
        add_ini_violation(shard, seed, "empty-value",
                          "empty clock_ghz accepted");
      } catch (const std::invalid_argument&) {
        // rejected, as required
      }
    }

    // 6. The descriptor registers and resolves through a registry.
    point();
    try {
      machine::MachineRegistry registry;
      registry.add(m.name, m);
      if (!registry.contains(m.name) ||
          registry.descriptor(m.name).num_cores != m.num_cores) {
        add_ini_violation(shard, seed, "registry",
                          "registered machine did not resolve");
      }
    } catch (const std::exception& e) {
      add_ini_violation(shard, seed, "registry",
                        std::string("threw: ") + e.what());
    }

    return shard;
  });
}

// ------------------------------------------- batched-path identity --

namespace {

/// "" when two breakdowns agree bit-for-bit on every field; otherwise
/// the first differing field with both values.
std::string diff_breakdowns(const sim::TimeBreakdown& a,
                            const sim::TimeBreakdown& b,
                            const std::string& an, const std::string& bn) {
  auto bits_differ = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) != 0;
  };
  auto render = [](double x) {
    std::ostringstream os;
    os.precision(17);
    os << x;
    return os.str();
  };
  const struct {
    const char* name;
    double a;
    double b;
  } fields[] = {
      {"compute_s", a.compute_s, b.compute_s},
      {"memory_s", a.memory_s, b.memory_s},
      {"sync_s", a.sync_s, b.sync_s},
      {"atomic_s", a.atomic_s, b.atomic_s},
      {"total_s", a.total_s, b.total_s},
  };
  for (const auto& f : fields) {
    if (bits_differ(f.a, f.b)) {
      return std::string(f.name) + " " + render(f.a) + " (" + an + ") vs " +
             render(f.b) + " (" + bn + ")";
    }
  }
  if (a.serving != b.serving) return "serving differs (" + an + " vs " + bn + ")";
  if (a.vector_path != b.vector_path) {
    return "vector_path differs (" + an + " vs " + bn + ")";
  }
  if (a.note != b.note || a.note_compiler != b.note_compiler ||
      a.note_mode != b.note_mode || a.note_rollback != b.note_rollback) {
    return "note fields differ (" + an + " vs " + bn + ")";
  }
  return {};
}

std::string render_batch_config(const sim::SimConfig& cfg) {
  std::ostringstream os;
  os << core::to_string(cfg.precision) << "/t=" << cfg.nthreads
     << "/place=" << static_cast<int>(cfg.placement) << "/"
     << core::to_string(cfg.compiler) << "/"
     << core::to_string(cfg.vector_mode);
  return os.str();
}

}  // namespace

CheckReport fuzz_batch_identity(unsigned first_seed, unsigned num_seeds,
                                int jobs) {
  std::vector<core::KernelSignature> sigs;
  for (const auto& s : kernels::all_signatures()) {
    if (s.name == "TRIAD" || s.name == "GEMM" || s.name == "DOT") {
      sigs.push_back(s);
    }
  }

  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    const auto m = random_machine(seed);
    const sim::Simulator sim(m);
    std::mt19937_64 rng(seed);

    auto violation = [&](const core::KernelSignature& sig,
                         const sim::SimConfig& cfg,
                         const std::string& detail) {
      obs::registry().counter("check.sim-batch-identity.violations").add();
      shard.violations.push_back(Violation{"sim-batch-identity", m.name,
                                           sig.name,
                                           render_batch_config(cfg), detail});
    };

    auto random_config = [&] {
      sim::SimConfig cfg;
      cfg.precision = (rng() % 2 == 0) ? core::Precision::FP32
                                       : core::Precision::FP64;
      cfg.nthreads = 1 + static_cast<int>(rng() % m.num_cores);
      cfg.placement =
          machine::all_placements[rng() % machine::all_placements.size()];
      cfg.compiler = (rng() % 2 == 0) ? core::CompilerId::Gcc
                                      : core::CompilerId::Clang;
      // GCC + VLA is a documented hard error in compiler::plan; the
      // fuzz stays on valid configs so every path must produce a value.
      cfg.vector_mode =
          cfg.compiler == core::CompilerId::Gcc
              ? (rng() % 2 == 0 ? core::VectorMode::Scalar
                                : core::VectorMode::VLS)
              : static_cast<core::VectorMode>(rng() % 3);
      return cfg;
    };

    // One reused context per kernel: identity must hold when a context
    // outlives many batches, not just when built fresh.
    std::vector<sim::EvalContext> contexts;
    contexts.reserve(sigs.size());
    for (const auto& sig : sigs) contexts.emplace_back(sim, sig);

    // Ragged shapes: the empty batch, the single point, and two larger
    // mixed-kernel grids with seed-dependent sizes.
    const std::size_t shapes[] = {0, 1, 5 + rng() % 28, 48 + rng() % 80};
    for (const std::size_t count : shapes) {
      std::vector<std::size_t> which(count);
      std::vector<sim::SimConfig> cfgs(count);
      for (std::size_t p = 0; p < count; ++p) {
        which[p] = rng() % sigs.size();
        cfgs[p] = random_config();
      }

      // (a) scalar oracle
      std::vector<sim::TimeBreakdown> scalar(count);
      for (std::size_t p = 0; p < count; ++p) {
        scalar[p] = sim.run(sigs[which[p]], cfgs[p]);
      }

      // (b) reused EvalContext + Simulator::run_batch, one sub-batch
      //     per kernel (a context is bound to one signature).
      std::vector<sim::TimeBreakdown> batched(count);
      for (std::size_t s = 0; s < sigs.size(); ++s) {
        std::vector<std::size_t> idx;
        for (std::size_t p = 0; p < count; ++p) {
          if (which[p] == s) idx.push_back(p);
        }
        std::vector<sim::SimConfig> sub(idx.size());
        std::vector<sim::TimeBreakdown> out(idx.size());
        for (std::size_t k = 0; k < idx.size(); ++k) sub[k] = cfgs[idx[k]];
        sim.run_batch(contexts[s], sub, out);
        for (std::size_t k = 0; k < idx.size(); ++k) {
          batched[idx[k]] = out[k];
        }
      }

      // (c) the engine path, memo-miss then memo-hit replay.
      engine::SweepEngine eng(engine::EngineOptions{.jobs = 1});
      std::vector<engine::SweepPoint> points(count);
      for (std::size_t p = 0; p < count; ++p) {
        points[p] = engine::SweepPoint{&m, &sigs[which[p]], cfgs[p]};
      }
      const auto engine_miss = eng.run_batch(points);
      const auto engine_hit = eng.run_batch(points);

      for (std::size_t p = 0; p < count; ++p) {
        ++shard.points;
        obs::registry().counter("check.sim-batch-identity.points").add();
        std::string detail =
            diff_breakdowns(scalar[p], batched[p], "run", "run_batch");
        if (detail.empty()) {
          detail = diff_breakdowns(scalar[p], engine_miss[p], "run",
                                   "engine-miss");
        }
        if (detail.empty()) {
          detail = diff_breakdowns(scalar[p], engine_hit[p], "run",
                                   "engine-hit");
        }
        if (!detail.empty()) violation(sigs[which[p]], cfgs[p], detail);
      }
    }
    return shard;
  });
}

}  // namespace sgp::check
