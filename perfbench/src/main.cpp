// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <repro_cold|serve_stream|validate_machines>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints a human-readable summary, then as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any correctness check failed, 64 on a usage error, 2 when the
// inputs it needs (machines/, tests/golden/) are missing.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/json.hpp"
#include "serve/json.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <repro_cold|serve_stream|"
               "validate_machines> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n";
  std::exit(64);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    if (out.size() > 1) out += ",";
    out += sgp::obs::json_quote(m.name) +
           ":{\"value\":" + sgp::obs::json_number(m.value) +
           ",\"unit\":" + sgp::obs::json_quote(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--self-test") {
      self = true;
    } else if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      const auto v = sgp::serve::parse_u64(value());
      if (!v) usage("bad value for --seed");
      opt.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = sgp::serve::parse_u64(value());
      if (!v || *v < 1 || *v > 120) usage("--seconds must be 1..120");
      opt.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }

  for (const char* needed : {"machines", "tests/golden"}) {
    if (!std::filesystem::is_directory(needed)) {
      std::cerr << "perfbench: '" << needed
                << "' not found; run from the repository root\n";
      return 2;
    }
  }
  std::filesystem::create_directories(opt.work_dir);

  if (self) return self_test(opt);
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }

  Outcome out;
  try {
    if (opt.workload == "repro_cold") {
      out = run_repro_cold(opt);
    } else if (opt.workload == "serve_stream") {
      out = run_serve_stream(opt);
    } else if (opt.workload == "validate_machines") {
      out = run_validate_machines(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }

  for (const auto& f : out.failures) {
    std::cerr << "perfbench: FAILED " << f << "\n";
  }
  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";
  for (const auto& m : out.info) {
    std::cout << "  " << m.name << " = " << sgp::obs::json_number(m.value)
              << " " << m.unit << "\n";
  }
  for (const auto& m : out.metrics) {
    std::cout << "  " << m.name << " = " << sgp::obs::json_number(m.value)
              << " " << m.unit << "\n";
    if (!std::isfinite(m.value)) {
      out.fail("metric " + m.name + " is not finite");
    }
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed
            << ",\"metrics\":" << metrics_json(out.metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
