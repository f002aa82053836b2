// Microbenchmark + acceptance proof for the sweep engine.
//
// Runs the repo's full figure/table pipeline set — every pipeline
// invocation the pre-engine consumers made in separate processes (the
// fig1-7/tab1-3 binaries, background_d1_vs_v2, paper_deltas, and the
// calibration/experiments regression tests) — on a fresh cached engine,
// again on the same engine (all hits), and on a forced-serial engine.
//
// It asserts the rendered outputs (tables + CSV text) are byte
// identical between a parallel and a forced-serial engine and between a
// first and a reuse run, then writes the counters to BENCH_sweep.json.
// Exits 1 if any outputs differ, the reuse run simulates anything, or
// the first run's simulations are not >= 5x below the pre-engine volume
// kPreEngineSimulations. Ratio and identity gates only (no wall-clock
// floor; the simulator's throughput floor lives in micro_simulator), so
// sanitizer builds run it unchanged.
//
// --persist <dir> instead benchmarks the durable memo cache: a cold
// persistent pass populates <dir>, a warm pass in a fresh engine must
// replay from disk (>= 3x fewer Simulator::run calls, byte-identical
// output), and a third pass under an injected bit-flip read fault must
// quarantine the damaged segment and still reproduce the output.
// Writes BENCH_persist.json; exits 1 if any gate fails.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench/bench_common.hpp"
#include "resilience/fault_injector.hpp"

namespace {

using namespace sgp;

/// Simulator::run calls the pipeline set below cost before the sweep
/// engine: every consumer in its own process, no memo cache, and the
/// multithreaded x86 comparison re-running the best-thread search (both
/// candidate counts over the kernel's whole class) once per kernel. The
/// call graph is deterministic and was uncached, so its simulations
/// equal its requests; this is the count it made over exactly this
/// pipeline set, measured before the replica was retired. Change it only
/// together with the pipeline set.
constexpr std::uint64_t kPreEngineSimulations = 16501;

/// The engine's first pass must simulate at least this many times fewer
/// points than kPreEngineSimulations.
constexpr double kMinSimulationReduction = 5.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

std::string render_fig3(const std::vector<experiments::Fig3Row>& rows) {
  std::ostringstream out;
  for (const auto& r : rows) {
    out << r.kernel << ',' << report::Table::num(r.clang_vla, 4) << ','
        << report::Table::num(r.clang_vls, 4) << ',' << r.gcc_vectorizes
        << ',' << r.gcc_runtime_scalar << ',' << r.clang_vectorizes
        << ',' << r.paper_named << '\n';
  }
  return out.str();
}

std::string render_times(const std::map<std::string, double>& times) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto& [name, t] : times) out << name << ',' << t << '\n';
  return out.str();
}

/// One in-process replay of the whole pre-engine consumer surface.
std::string run_pipeline_set(engine::SweepEngine& eng) {
  experiments::reset_best_threads_memo();
  std::ostringstream out;

  auto series = [&](const std::string& title,
                    const std::vector<experiments::RatioSeries>& s) {
    bench::print_series(out, title, s);
    out << bench::series_csv(s).text();
  };
  auto scaling = [&](const std::string& title,
                     const experiments::ScalingTable& t) {
    bench::print_scaling(out, title, t);
    out << bench::scaling_csv(t).text();
  };
  auto x86 = [&](core::Precision prec, bool multi) {
    return experiments::x86_comparison(prec, multi, eng);
  };

  // fig1..fig7, tab1..tab3 binaries.
  series("figure1", experiments::figure1(eng));
  series("figure2", experiments::figure2(eng));
  out << render_fig3(experiments::figure3(eng));
  series("figure4", x86(core::Precision::FP64, false));
  series("figure5", x86(core::Precision::FP32, false));
  series("figure6", x86(core::Precision::FP64, true));
  series("figure7", x86(core::Precision::FP32, true));
  scaling("table1",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("table2",
          experiments::scaling_table(machine::Placement::CyclicNuma, eng));
  scaling("table3", experiments::scaling_table(
                        machine::Placement::ClusterCyclic, eng));

  // background_d1_vs_v2: three whole-suite kernel_times sweeps.
  {
    const auto v2 = machine::visionfive_v2();
    const auto d1 = machine::allwinner_d1();
    auto cfg = [](core::VectorMode mode, core::CompilerId comp) {
      sim::SimConfig c;
      c.precision = core::Precision::FP32;
      c.vector_mode = mode;
      c.compiler = comp;
      c.nthreads = 1;
      return c;
    };
    out << render_times(experiments::kernel_times(
        v2, cfg(core::VectorMode::VLS, core::CompilerId::Gcc), eng));
    out << render_times(experiments::kernel_times(
        d1, cfg(core::VectorMode::Scalar, core::CompilerId::Gcc), eng));
    out << render_times(experiments::kernel_times(
        d1, cfg(core::VectorMode::VLS, core::CompilerId::Clang), eng));
  }

  // paper_deltas: re-derives all three scaling tables.
  scaling("deltas1",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("deltas2",
          experiments::scaling_table(machine::Placement::CyclicNuma, eng));
  scaling("deltas3", experiments::scaling_table(
                         machine::Placement::ClusterCyclic, eng));

  // calibration_regression_test process.
  series("cal_fig1", experiments::figure1(eng));
  scaling("cal_block",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("cal_cluster", experiments::scaling_table(
                             machine::Placement::ClusterCyclic, eng));
  series("cal_fig2", experiments::figure2(eng));
  series("cal_x86", x86(core::Precision::FP64, false));
  out << render_fig3(experiments::figure3(eng));

  // experiments_test process.
  series("exp_fig1", experiments::figure1(eng));
  scaling("exp_t1",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("exp_t2",
          experiments::scaling_table(machine::Placement::CyclicNuma, eng));
  scaling("exp_t3", experiments::scaling_table(
                        machine::Placement::ClusterCyclic, eng));
  series("exp_fig2", experiments::figure2(eng));
  out << render_fig3(experiments::figure3(eng));
  series("exp_fig4", x86(core::Precision::FP64, false));
  series("exp_fig5", x86(core::Precision::FP32, false));
  series("exp_fig6", x86(core::Precision::FP64, true));
  series("exp_fig7", x86(core::Precision::FP32, true));
  for (const auto prec : {core::Precision::FP32, core::Precision::FP64}) {
    for (const auto g : core::all_groups) {
      out << "best_threads," << core::to_string(g) << ','
          << experiments::best_sg2042_threads(g, prec, eng) << '\n';
    }
  }

  return out.str();
}

struct PassResult {
  std::string output;
  engine::EngineCounters counters;
  double wall_s = 0.0;
};

PassResult run_pass(engine::SweepEngine& eng) {
  const auto t0 = std::chrono::steady_clock::now();
  PassResult r;
  r.output = run_pipeline_set(eng);
  r.wall_s = seconds_since(t0);
  r.counters = eng.counters();
  return r;
}

[[noreturn]] void usage_error(const char* prog, const std::string& what) {
  std::cerr << prog << ": " << what << "\n"
            << "usage: " << prog << " [--json <path>] [--jobs <n>]"
            << " [--perf] [--persist <dir>]\n";
  std::exit(64);
}

/// --persist mode: cold-vs-warm throughput for the durable memo cache,
/// plus recovery under a corrupted segment. The warm gate (>= 3x fewer
/// Simulator::run calls) is deliberately far below the observed ~all-
/// hits replay so timing noise cannot flake the bench-smoke lane.
int run_persist_bench(const std::string& dir, const std::string& json_path,
                      int jobs) {
  namespace fs = std::filesystem;
  using engine::EngineOptions;
  std::cout << "== micro_sweep_engine --persist: durable memo cache, "
               "cold vs warm ==\n";
  fs::remove_all(dir);

  engine::EnginePersistence persistence;
  persistence.store.dir = dir;
  persistence.note = "micro_sweep_engine --persist";

  auto persistent_pass =
      [&](resilience::FaultInjector* injector) -> PassResult {
    engine::EnginePersistence p = persistence;
    p.store.injector = injector;
    engine::SweepEngine eng(EngineOptions{.jobs = jobs, .persist = p});
    return run_pass(eng);
  };  // engine destructor flushes the final segment

  const auto cold = persistent_pass(nullptr);
  const auto warm = persistent_pass(nullptr);

  // Recovery pass: one bit of the first segment read is flipped; the
  // loader must quarantine that segment, replay the rest, and recompute
  // only the lost points.
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.read:bitflip:1");
  resilience::FaultInjector injector(plan, 99u);
  const auto faulted = persistent_pass(&injector);

  const std::uint64_t cold_sims = cold.counters.simulations;
  const std::uint64_t warm_sims = warm.counters.simulations;
  const bool warm_identical = warm.output == cold.output;
  const bool faulted_identical = faulted.output == cold.output;
  const std::uint64_t quarantined =
      faulted.counters.persist.store.quarantined_segments;
  const double speedup =
      warm.wall_s > 0.0 ? cold.wall_s / warm.wall_s : 0.0;
  const double sim_ratio =
      double(cold_sims) / double(std::max<std::uint64_t>(warm_sims, 1));
  const bool pass = warm_identical && faulted_identical &&
                    sim_ratio >= 3.0 && quarantined >= 1;

  report::Table t({"pass", "Simulator::run", "resumed points",
                   "quarantined", "wall s"});
  auto row = [&](const char* name, const PassResult& p) {
    t.add_row({name, std::to_string(p.counters.simulations),
               std::to_string(p.counters.persist.cache.resumed_points),
               std::to_string(p.counters.persist.store.quarantined_segments),
               report::Table::num(p.wall_s, 3)});
  };
  row("cold (empty store)", cold);
  row("warm (resume)", warm);
  row("warm (bit-flip fault)", faulted);
  std::cout << t.render();
  std::cout << "Simulator::run cold/warm: "
            << report::Table::num(sim_ratio, 2) << "x (need >= 3)\n"
            << "outputs identical — warm: " << (warm_identical ? "yes" : "NO")
            << ", faulted: " << (faulted_identical ? "yes" : "NO")
            << "; quarantined segments: " << quarantined << " (need >= 1)\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n"
         << "  \"bench\": \"micro_sweep_engine_persist\",\n"
         << "  \"store_dir\": \"" << dir << "\",\n"
         << "  \"cold\": {\"simulations\": " << cold_sims
         << ", \"flushes\": " << cold.counters.persist.store.flushes
         << ", \"entries_flushed\": "
         << cold.counters.persist.store.entries_flushed
         << ", \"wall_s\": " << cold.wall_s << "},\n"
         << "  \"warm\": {\"simulations\": " << warm_sims
         << ", \"entries_loaded\": "
         << warm.counters.persist.store.entries_loaded
         << ", \"resumed_points\": "
         << warm.counters.persist.cache.resumed_points
         << ", \"wall_s\": " << warm.wall_s << "},\n"
         << "  \"faulted\": {\"simulations\": "
         << faulted.counters.simulations << ", \"quarantined_segments\": "
         << quarantined << ", \"corrupt_entries\": "
         << faulted.counters.persist.store.corrupt_entries
         << ", \"wall_s\": " << faulted.wall_s << "},\n"
         << "  \"cold_warm_sim_ratio\": " << sim_ratio << ",\n"
         << "  \"cold_warm_speedup\": " << speedup << ",\n"
         << "  \"outputs_identical\": {\"warm\": " << warm_identical
         << ", \"faulted\": " << faulted_identical << "},\n"
         << "  \"pass\": " << pass << "\n"
         << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string persist_dir;
  int jobs = 0;
  bool perf = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--persist") {
      persist_dir = value();
    } else if (arg == "--jobs") {
      const std::string v = value();
      try {
        std::size_t used = 0;
        jobs = std::stoi(v, &used);
        if (used != v.size() || jobs < 0) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        usage_error(argv[0], "bad value '" + v + "' for --jobs");
      }
    } else if (arg == "--perf") {
      perf = true;
    } else {
      usage_error(argv[0], "unknown flag '" + arg + "'");
    }
  }

  if (!persist_dir.empty()) {
    return run_persist_bench(
        persist_dir, json_path.empty() ? "BENCH_persist.json" : json_path,
        jobs);
  }
  if (json_path.empty()) json_path = "BENCH_sweep.json";

  std::cout << "== micro_sweep_engine: full figure/table pipeline set, "
               "pre-engine volume vs engine ==\n";

  // Engine pass: the pipelines on one fresh cached engine.
  engine::SweepEngine eng({.jobs = jobs});
  const auto first = run_pass(eng);

  // Reuse pass: same engine again — everything should be served from
  // the cache (a second bench binary in the same process).
  const auto reuse = run_pass(eng);
  const auto reuse_sims =
      reuse.counters.simulations - first.counters.simulations;

  // Forced-serial pass: determinism check for the parallel scheduler.
  engine::SweepEngine serial_eng({.jobs = 1});
  const auto serial = run_pass(serial_eng);

  const bool serial_identical = serial.output == first.output;
  const bool reuse_identical = reuse.output == first.output;
  const double ratio =
      first.counters.simulations > 0
          ? double(kPreEngineSimulations) /
                double(first.counters.simulations)
          : 0.0;
  const bool pass = serial_identical && reuse_identical && reuse_sims == 0 &&
                    ratio >= kMinSimulationReduction;

  report::Table t({"pass", "Simulator::run", "requests", "cache hits",
                   "wall s"});
  auto row = [&](const char* name, const PassResult& p,
                 std::uint64_t sims_override, std::uint64_t hits) {
    t.add_row({name, std::to_string(sims_override),
               std::to_string(p.counters.requests),
               std::to_string(hits),
               report::Table::num(p.wall_s, 3)});
  };
  row("engine (first)", first, first.counters.simulations,
      first.counters.cache_hits);
  row("engine (reuse)", reuse, reuse_sims,
      reuse.counters.cache_hits - first.counters.cache_hits);
  row("engine (serial)", serial, serial.counters.simulations,
      serial.counters.cache_hits);
  std::cout << t.render();
  std::cout << "Simulator::run reduction vs the pre-engine "
            << kPreEngineSimulations
            << ": " << report::Table::num(ratio, 2) << "x (need >= "
            << report::Table::num(kMinSimulationReduction, 0) << ")\n";
  std::cout << "outputs identical — serial: "
            << (serial_identical ? "yes" : "NO")
            << ", reuse: " << (reuse_identical ? "yes" : "NO") << "\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n"
         << "  \"bench\": \"micro_sweep_engine\",\n"
         << "  \"jobs\": " << eng.jobs() << ",\n"
         << "  \"pre_engine\": {\"simulations\": " << kPreEngineSimulations
         << "},\n"
         << "  \"engine\": {\"simulations\": "
         << first.counters.simulations
         << ", \"requests\": " << first.counters.requests
         << ", \"cache_hits\": " << first.counters.cache_hits
         << ", \"cache_entries\": " << first.counters.cache_entries
         << ", \"wall_s\": " << first.wall_s << "},\n"
         << "  \"reuse\": {\"new_simulations\": " << reuse_sims
         << ", \"wall_s\": " << reuse.wall_s << "},\n"
         << "  \"serial\": {\"wall_s\": " << serial.wall_s << "},\n"
         << "  \"simulation_reduction\": " << ratio << ",\n"
         << "  \"simulation_reduction_min\": " << kMinSimulationReduction
         << ",\n"
         << "  \"outputs_identical\": {\"parallel_vs_serial\": "
         << serial_identical << ", \"first_vs_reuse\": " << reuse_identical
         << "},\n"
         << "  \"pass\": " << pass << "\n"
         << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (perf) bench::print_perf(std::cout, first.counters);
  return pass ? 0 : 1;
}
