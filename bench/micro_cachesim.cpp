// Microbenchmark + acceptance proof for the batched cachesim replay
// engine (src/cachesim/replay.hpp).
//
// Replays a set of sweep specs on the SG2042 descriptor through two
// paths:
//
//   vector pass : generate_sweep materializes every access, then one
//                 Hierarchy::access call per record per rep (the
//                 pre-engine behaviour);
//   stream pass : arena-decoded LineSegment buffer + SoA batched tag
//                 lookups + steady-state early exit (replay_stream).
//
// Every case asserts bit-identical per-level CacheStats, DRAM bytes,
// access counts and steady miss rates across both paths, and
// carries its own wall-clock speedup gate (vector/stream): >= 10x for
// the streaming/strided shapes the engine was built for, >= 3x for the
// stencil/gather/recurrence shapes the SoA batch path and the decoded
// Gather fast path speed up (previously ~1-1.5x). Counters land in
// BENCH_cachesim.json; exits 1 on any mismatch or a missed gate, 64 on
// bad usage.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cachesim/replay.hpp"
#include "cachesim/trace.hpp"
#include "machine/descriptor.hpp"
#include "report/table.hpp"

namespace {

using namespace sgp;

struct BenchCase {
  std::string name;
  cachesim::SweepSpec spec;
  int reps = 8;
  /// Wall-clock vector/stream speedup this case must reach; 0 gates on
  /// bit-identity only.
  double min_speedup = 0.0;
};

struct CaseResult {
  double vector_s = 0.0;
  double stream_s = 0.0;
  double speedup = 0.0;
  bool identical = false;  ///< vector == stream
  std::uint64_t accesses = 0;
  double coalesce_factor = 0.0;  ///< accesses per L1 tag check
};

double seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Best-of-N wall time of one replay invocation.
template <typename Fn>
double time_best(int trials, const Fn& fn) {
  double best = -1.0;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = seconds(t0);
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

bool results_identical(const cachesim::ReplayResult& a,
                       const cachesim::ReplayResult& b) {
  if (a.accesses != b.accesses) return false;
  if (a.steady_miss_rate != b.steady_miss_rate) return false;
  if (a.hierarchy.levels() != b.hierarchy.levels()) return false;
  if (a.hierarchy.dram_bytes() != b.hierarchy.dram_bytes()) return false;
  for (std::size_t l = 0; l < a.hierarchy.levels(); ++l) {
    if (!(a.hierarchy.level(l).stats() == b.hierarchy.level(l).stats())) {
      return false;
    }
  }
  return true;
}

CaseResult run_case(const machine::MachineDescriptor& m,
                    const BenchCase& c) {
  CaseResult r;
  const int vec_trials = 3;
  const int stream_trials = 10;

  cachesim::ReplayResult vec =
      cachesim::replay_vector(m, c.spec, c.reps);
  cachesim::ReplayResult str =
      cachesim::replay_stream(m, c.spec, c.reps);
  r.identical = results_identical(vec, str);
  r.accesses = vec.accesses;
  const auto& t = str.hierarchy.telemetry();
  r.coalesce_factor = t.line_segments == 0
                          ? 1.0
                          : static_cast<double>(t.accesses) /
                                static_cast<double>(t.line_segments);

  r.vector_s = time_best(vec_trials, [&] {
    (void)cachesim::replay_vector(m, c.spec, c.reps);
  });
  r.stream_s = time_best(stream_trials, [&] {
    (void)cachesim::replay_stream(m, c.spec, c.reps);
  });
  r.speedup = r.stream_s > 0.0 ? r.vector_s / r.stream_s : 0.0;
  return r;
}

[[noreturn]] void usage_error(const char* prog, const std::string& what) {
  std::cerr << prog << ": " << what << "\n"
            << "usage: " << prog << " [--json <path>] [--identity-only]\n";
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_cachesim.json";
  // The speedup gates are wall-clock assertions and only mean something
  // in an uninstrumented build; sanitizer runs (which flatten the
  // paths' relative cost) pass --identity-only and gate on bit-identity
  // alone.
  bool identity_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for --json");
      json_path = argv[++i];
    } else if (arg == "--identity-only") {
      identity_only = true;
    } else {
      usage_error(argv[0], "unknown flag '" + arg + "'");
    }
  }

  using core::AccessPattern;
  auto spec = [](AccessPattern p, std::size_t arrays, std::size_t elems,
                 std::size_t stride) {
    cachesim::SweepSpec s;
    s.pattern = p;
    s.arrays = arrays;
    s.elems = elems;
    s.stride_elems = stride;
    return s;
  };

  // Per-case speedup floors. The streaming/strided shapes keep the
  // original >= 10x gate; the per-element shapes (stencil, gather,
  // recurrence) gate at the >= 3x floor the SoA batch rework earns
  // them. stream_l1 and reduction stay identity-only: their traces are
  // so small that per-call hierarchy construction floors both paths.
  const std::vector<BenchCase> cases = {
      {"stream_l1", spec(AccessPattern::Streaming, 2, 1 << 10, 8), 64,
       0.0},
      {"stream_l2", spec(AccessPattern::Streaming, 2, 1 << 14, 8), 96,
       10.0},
      {"stream_dram", spec(AccessPattern::Streaming, 2, 1 << 19, 8), 24,
       10.0},
      {"strided_4", spec(AccessPattern::Strided, 2, 1 << 18, 4), 48,
       10.0},
      {"strided_16", spec(AccessPattern::Strided, 2, 1 << 18, 16), 48,
       10.0},
      {"stencil1d", spec(AccessPattern::Stencil1D, 2, 1 << 16, 8), 16,
       3.0},
      {"stencil2d", spec(AccessPattern::Stencil2D, 2, 1 << 16, 8), 16,
       3.0},
      {"gather", spec(AccessPattern::Gather, 2, 1 << 15, 8), 16, 3.0},
      {"sequential", spec(AccessPattern::Sequential, 1, 1 << 16, 8), 16,
       3.0},
      {"reduction", spec(AccessPattern::Reduction, 1, 1 << 16, 8), 8,
       0.0},
  };

  const auto m = machine::sg2042();
  std::cout << "== micro_cachesim: vector replay vs batched engine ("
            << m.name << ") ==\n";

  std::vector<CaseResult> results;
  bool identical_all = true;
  bool speed_ok = true;
  std::string missed_gates;
  for (const auto& c : cases) {
    results.push_back(run_case(m, c));
    const auto& r = results.back();
    identical_all = identical_all && r.identical;
    if (c.min_speedup > 0.0 && r.speedup < c.min_speedup) {
      speed_ok = false;
      missed_gates += " " + c.name;
    }
  }
  const bool pass = identical_all && (identity_only || speed_ok);

  report::Table t({"case", "accesses", "vector ms", "stream ms",
                   "speedup", "gate", "coalesce", "identical"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto& r = results[i];
    t.add_row(
        {c.name, std::to_string(r.accesses),
         report::Table::num(r.vector_s * 1e3, 3),
         report::Table::num(r.stream_s * 1e3, 3),
         report::Table::num(r.speedup, 1),
         c.min_speedup > 0.0 ? report::Table::num(c.min_speedup, 0) : "-",
         report::Table::num(r.coalesce_factor, 2),
         r.identical ? "yes" : "NO"});
  }
  std::cout << t.render();
  if (identity_only) {
    std::cout << "speedup gates skipped: --identity-only\n";
  } else if (!speed_ok) {
    std::cout << "missed speedup gates:" << missed_gates << "\n";
  }
  std::cout << "stats identical on all patterns and paths "
            << "(vector/stream): "
            << (identical_all ? "yes" : "NO") << "\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n  \"bench\": \"micro_cachesim\",\n  \"machine\": \""
         << m.name << "\",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& c = cases[i];
      const auto& r = results[i];
      json << "    {\"name\": \"" << c.name << "\", \"pattern\": \""
           << core::to_string(c.spec.pattern) << "\", \"elems\": "
           << c.spec.elems << ", \"reps\": " << c.reps
           << ", \"accesses\": " << r.accesses
           << ", \"vector_s\": " << r.vector_s
           << ", \"stream_s\": " << r.stream_s
           << ", \"speedup\": " << r.speedup
           << ", \"min_speedup\": " << c.min_speedup
           << ", \"identical\": " << r.identical << "}"
           << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"speed_ok\": " << speed_ok
         << ",\n  \"identity_only\": " << identity_only
         << ",\n  \"identical_all\": " << identical_all
         << ",\n  \"pass\": " << pass << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return pass ? 0 : 1;
}
