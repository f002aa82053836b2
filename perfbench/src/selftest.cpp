// The benchmark's own self-test: generator determinism, the tail
// percentile rule, and a smoke run of each workload.
#include <iostream>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string joined(const std::vector<StreamLine>& lines) {
  std::string out;
  for (const auto& l : lines) out += l.text + "\n";
  return out;
}

}  // namespace

int self_test(const Options& base) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };

  // Generator determinism.
  const std::vector<MachineInfo> machines = {{"sg2042", 64}, {"rome", 64},
                                             {"d1", 1}};
  const std::vector<std::string> kernels = {"TRIAD", "COPY", "DOT", "MUL",
                                            "ADD", "GEMM", "JACOBI_1D",
                                            "PI_REDUCE", "HYDRO_1D"};
  const auto y = make_stream(7, 300, machines, kernels, {}, "y");
  std::vector<std::string> stored;
  for (const auto& l : y) {
    if (l.kind != LineKind::Invalid) stored.push_back(body_of(l));
  }
  const auto a = joined(make_stream(42, 500, machines, kernels, stored, "q"));
  const auto b = joined(make_stream(42, 500, machines, kernels, stored, "q"));
  const auto c = joined(make_stream(43, 500, machines, kernels, stored, "q"));
  expect(a == b, "same seed gives the same stream bytes");
  expect(a != c, "another seed gives different stream bytes");
  expect(joined(y) == joined(make_stream(7, 300, machines, kernels, {}, "y")),
         "the stored stream is reproducible");
  std::map<LineKind, int> kinds;
  for (const auto& l : make_stream(42, 2000, machines, kernels, stored, "q")) {
    ++kinds[l.kind];
  }
  expect(kinds.size() == 5, "every line kind occurs");
  expect(kinds[LineKind::Invalid] > 10 && kinds[LineKind::Invalid] < 80,
         "about 2% invalid lines");
  expect(kinds[LineKind::Duplicate] > 120 && kinds[LineKind::Duplicate] < 280,
         "about 10% duplicate lines");

  // The tail percentile needs at least 10 samples beyond its rank.
  std::vector<double> v(200);
  std::iota(v.begin(), v.end(), 1.0);
  expect(tail_percentile(v, 0.95) == 190.0, "p95 of 1..200 is 190");
  v.pop_back();
  expect(!tail_percentile(v, 0.95), "p95 of 199 samples is refused");
  v.resize(1000);
  std::iota(v.begin(), v.end(), 1.0);
  expect(tail_percentile(v, 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(!tail_percentile(std::vector<double>(999, 1.0), 0.99),
         "p99 of 999 samples is refused");

  // Smoke run of every workload, untraced and traced.
  for (const char* name : {"repro_cold", "serve_stream", "validate_machines"}) {
    for (const bool trace : {false, true}) {
      Options opt = base;
      opt.workload = name;
      opt.seconds = 1;
      opt.trace = trace;
      opt.smoke = true;
      Outcome out;
      if (opt.workload == "repro_cold") out = run_repro_cold(opt);
      if (opt.workload == "serve_stream") out = run_serve_stream(opt);
      if (opt.workload == "validate_machines") out = run_validate_machines(opt);
      for (const auto& f : out.failures) std::cout << "  " << f << "\n";
      expect(out.attempted > 0 && out.failed == 0 && !out.metrics.empty(),
             std::string(name) + (trace ? " traced" : "") + " smoke run: " +
                 std::to_string(out.attempted) + " ops, 0 failed");
    }
  }
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
