// Microbenchmark + acceptance proof for the batched simulator path.
//
// For each representative kernel it prices the same config grid
// (threads x precision x compiler x vector mode x placement, replicated
// to a realistic batch size) two ways:
//
//   scalar pass : per-point Simulator::run, the pre-batch hot path
//                 every consumer used to cost;
//   batch pass  : one EvalContext per kernel + Simulator::run_batch
//                 over the whole grid.
//
// Each pass repeats kRepeats times and keeps the fastest repeat (the
// usual microbenchmark floor). The binary asserts the two paths agree
// bit-for-bit on every TimeBreakdown field (the identity column), that
// the aggregate batch speedup clears kMinBatchSpeedup and that the
// batch pass prices at least kMinPointsPerSecond, then writes the
// per-kernel numbers to BENCH_sim.json. Exits 1 if any kernel diverges
// or a timing gate fails (--identity-only skips both timing gates for
// sanitizer builds, whose instrumentation slows and flattens timings).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/register_all.hpp"
#include "machine/placement.hpp"
#include "obs/metrics.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "sim/eval_context.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sgp;

/// Aggregate scalar-time / batch-time floor for the uninstrumented
/// build. Measured well above this on the 1-core CI box; the floor sits
/// low enough that only a real batch-path regression (not timer noise)
/// can trip it.
constexpr double kMinBatchSpeedup = 3.0;

/// Batch-pass throughput floor: points priced per second of batch-pass
/// wall time (fastest repeat, context set-up included), summed over
/// the kernels. This is the Simulator::run_batch kernel every engine
/// miss goes through. Measured 10-16M points/s (60-100 ns/point) over
/// five runs on a 4-vCPU x86-64 VM in a Release build; the floor sits
/// ~100x below that so only a real pricing-path regression (not timer
/// noise) can trip it.
constexpr double kMinPointsPerSecond = 100000.0;

/// Fastest-of-N repeats per pass.
constexpr int kRepeats = 5;

/// Copies of the config grid per kernel, so one batch is big enough to
/// amortize context setup the way engine-sized batches do.
constexpr int kGridReplicas = 8;

const char* kKernels[] = {"TRIAD", "DAXPY", "DOT",
                          "GEMM",  "FIR",   "JACOBI_2D"};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// The full valid (compiler, mode) x precision x threads x placement
/// grid on SG2042 (GCC+VLA is a hard error in compiler::plan, so it is
/// not a grid point), replicated kGridReplicas times.
std::vector<sim::SimConfig> config_grid(int num_cores) {
  std::vector<sim::SimConfig> grid;
  const std::pair<core::CompilerId, core::VectorMode> combos[] = {
      {core::CompilerId::Gcc, core::VectorMode::Scalar},
      {core::CompilerId::Gcc, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::Scalar},
      {core::CompilerId::Clang, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::VLA},
  };
  for (int rep = 0; rep < kGridReplicas; ++rep) {
    for (const int t : {1, 2, 4, 8, 16, 32, 64}) {
      if (t > num_cores) continue;
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
  }
  return grid;
}

bool identical(const sim::TimeBreakdown& a, const sim::TimeBreakdown& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same_bits(a.compute_s, b.compute_s) &&
         same_bits(a.memory_s, b.memory_s) &&
         same_bits(a.sync_s, b.sync_s) &&
         same_bits(a.atomic_s, b.atomic_s) &&
         same_bits(a.total_s, b.total_s) && a.serving == b.serving &&
         a.vector_path == b.vector_path && a.note == b.note &&
         a.note_compiler == b.note_compiler &&
         a.note_mode == b.note_mode && a.note_rollback == b.note_rollback;
}

struct KernelResult {
  std::string kernel;
  std::size_t points = 0;
  double scalar_ns_per_point = 0.0;
  double batch_ns_per_point = 0.0;
  bool identical = false;

  double speedup() const {
    return batch_ns_per_point > 0.0
               ? scalar_ns_per_point / batch_ns_per_point
               : 0.0;
  }
};

KernelResult bench_kernel(const sim::Simulator& sim,
                          const core::KernelSignature& sig,
                          const std::vector<sim::SimConfig>& grid) {
  KernelResult r;
  r.kernel = sig.name;
  r.points = grid.size();

  std::vector<sim::TimeBreakdown> scalar_out(grid.size());
  std::vector<sim::TimeBreakdown> batch_out(grid.size());
  double scalar_best = 0.0, batch_best = 0.0;

  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      scalar_out[i] = sim.run(sig, grid[i]);
    }
    const double s = seconds_since(t0);
    if (rep == 0 || s < scalar_best) scalar_best = s;
  }

  for (int rep = 0; rep < kRepeats; ++rep) {
    // Context built inside the timed region: a fair batch cost includes
    // the once-per-(machine, kernel) setup the engine pays too.
    const auto t0 = std::chrono::steady_clock::now();
    sim::EvalContext ctx(sim, sig);
    sim.run_batch(ctx, grid, batch_out);
    const double s = seconds_since(t0);
    if (rep == 0 || s < batch_best) batch_best = s;
  }

  r.scalar_ns_per_point =
      scalar_best * 1e9 / static_cast<double>(grid.size());
  r.batch_ns_per_point =
      batch_best * 1e9 / static_cast<double>(grid.size());
  r.identical = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!identical(scalar_out[i], batch_out[i])) {
      r.identical = false;
      break;
    }
  }
  return r;
}

[[noreturn]] void usage_error(const char* prog, const std::string& what) {
  std::cerr << prog << ": " << what << "\n"
            << "usage: " << prog
            << " [--json <path>] [--csv <path>] [--perf]"
               " [--identity-only]\n";
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sim.json";
  std::string csv_path;
  bool perf = false;
  // Skips the speedup and throughput gates (sanitizer instrumentation
  // slows the simulator and flattens the scalar/batch timing ratio);
  // the identity gate always applies.
  bool identity_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--perf") {
      perf = true;
    } else if (arg == "--identity-only") {
      identity_only = true;
    } else {
      usage_error(argv[0], "unknown flag '" + arg + "'");
    }
  }

  std::cout << "== micro_simulator: per-point Simulator::run vs batched "
               "EvalContext path ==\n";

  const sim::Simulator sim(machine::sg2042());
  const auto grid = config_grid(sim.machine().num_cores);

  std::vector<KernelResult> results;
  for (const char* name : kKernels) {
    for (const auto& sig : kernels::all_signatures()) {
      if (sig.name == name) {
        results.push_back(bench_kernel(sim, sig, grid));
      }
    }
  }

  double scalar_total = 0.0, batch_total = 0.0;
  std::size_t batch_points = 0;
  bool all_identical = true;
  for (const auto& r : results) {
    batch_points += r.points;
    scalar_total += r.scalar_ns_per_point * static_cast<double>(r.points);
    batch_total += r.batch_ns_per_point * static_cast<double>(r.points);
    all_identical = all_identical && r.identical;
  }
  const double speedup =
      batch_total > 0.0 ? scalar_total / batch_total : 0.0;
  const double points_per_second =
      batch_total > 0.0
          ? static_cast<double>(batch_points) / (batch_total * 1e-9)
          : 0.0;
  const bool speedup_ok = identity_only || speedup >= kMinBatchSpeedup;
  const bool throughput_ok =
      identity_only || points_per_second >= kMinPointsPerSecond;
  const bool pass = all_identical && speedup_ok && throughput_ok;

  report::CsvWriter csv({"kernel", "points", "scalar_ns_per_point",
                         "batch_ns_per_point", "speedup", "identical"});
  report::Table t({"kernel", "points", "scalar ns/pt", "batch ns/pt",
                   "speedup", "identical"});
  for (const auto& r : results) {
    t.add_row({r.kernel, std::to_string(r.points),
               report::Table::num(r.scalar_ns_per_point, 1),
               report::Table::num(r.batch_ns_per_point, 1),
               report::Table::num(r.speedup(), 2),
               r.identical ? "yes" : "NO"});
    csv.add_row({r.kernel, std::to_string(r.points),
                 report::Table::num(r.scalar_ns_per_point, 1),
                 report::Table::num(r.batch_ns_per_point, 1),
                 report::Table::num(r.speedup(), 2),
                 r.identical ? "1" : "0"});
  }
  std::cout << t.render();
  auto gate = [&](double floor, int digits) {
    if (identity_only) {
      std::cout << " (gate skipped: --identity-only)\n";
    } else {
      std::cout << " (need >= " << report::Table::num(floor, digits)
                << ")\n";
    }
  };
  std::cout << "aggregate batch speedup: " << report::Table::num(speedup, 2)
            << "x";
  gate(kMinBatchSpeedup, 1);
  std::cout << "batch throughput: "
            << report::Table::num(points_per_second, 0) << " points/s";
  gate(kMinPointsPerSecond, 0);
  std::cout << "outputs identical: " << (all_identical ? "yes" : "NO")
            << "\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";

  if (!csv_path.empty()) {
    csv.write(csv_path);
    std::cout << "wrote " << csv_path << "\n";
  }

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n"
         << "  \"bench\": \"micro_simulator\",\n"
         << "  \"machine\": \"" << sim.machine().name << "\",\n"
         << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      json << "    {\"kernel\": \"" << r.kernel
           << "\", \"points\": " << r.points
           << ", \"scalar_ns_per_point\": " << r.scalar_ns_per_point
           << ", \"batch_ns_per_point\": " << r.batch_ns_per_point
           << ", \"speedup\": " << r.speedup()
           << ", \"identical\": " << r.identical << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"batch_speedup\": " << speedup << ",\n"
         << "  \"batch_speedup_min\": " << kMinBatchSpeedup << ",\n"
         << "  \"batch_points_per_second\": " << points_per_second << ",\n"
         << "  \"batch_points_per_second_min\": " << kMinPointsPerSecond
         << ",\n"
         << "  \"timing_gates_skipped\": " << identity_only << ",\n"
         << "  \"outputs_identical\": " << all_identical << ",\n"
         << "  \"pass\": " << pass << "\n"
         << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (perf) {
    const auto snap = obs::registry().snapshot();
    std::cout << "perf counters:\n";
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("sim.", 0) == 0) {
        std::cout << "  " << name << " = " << value << "\n";
      }
    }
  }
  return pass ? 0 : 1;
}
