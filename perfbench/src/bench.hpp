// Shared declarations of the end-to-end benchmark (see ../README.md).
//
// The benchmark drives the library from outside, through its public
// headers only: each workload times user-visible operations, verifies
// every output outside the timed interval, and reports the contract
// metrics. A traced run (--trace 1) enables obs::Tracer, wraps the
// benchmark's own calls into each layer in spans, and derives per-layer
// self times and counts from the span trees and obs counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "machine/registry.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Engine and check worker threads for every workload: fixed, never 0
/// (auto), so a run uses the same thread budget on every host.
inline constexpr int kJobs = 2;
/// The contract's tail percentile and the sample count it needs so
/// that at least 10 samples lie beyond it.
inline constexpr double kTailQ = 0.95;
inline constexpr std::size_t kMinTailSamples = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (stores, trace files).
  std::string work_dir = ".bench_build/perfbench/run";
  /// Tiny run for the self-test: no minimum op count.
  bool smoke = false;
  /// Loops stop here even when short of their targets, so a run on a
  /// slow host still ends within its time limit.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(150);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Contract metrics: printed on the last line of stdout.
  std::vector<Metric> metrics;
  /// Diagnostics printed on the summary line only.
  std::vector<Metric> info;
  /// First failure descriptions, for stderr.
  std::vector<std::string> failures;

  /// Records one failed op with its reason.
  void fail(std::string why);
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---------------------------------------------------------- stats --

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v);

/// The q-quantile (nearest rank) of `v`, or nullopt when fewer than 10
/// samples lie strictly beyond its rank — the rule that makes a tail
/// percentile meaningful.
std::optional<double> tail_percentile(std::vector<double> v, double q);

/// Wall milliseconds of a fixed, deterministic integer loop: a host
/// speed probe recorded beside the metrics, never used to scale them.
double spin_ms();

/// Peak resident set of this process in MB (ru_maxrss).
double peak_rss_mb();

/// Obs counter values, by name.
using CounterMap = std::map<std::string, std::uint64_t>;
CounterMap counters_now();
/// after[name] - before[name] (0 when absent).
double counter_delta(const CounterMap& before, const CounterMap& after,
                     const std::string& name);

// ---------------------------------------------------------- layers --

/// Span name -> layer ("experiments", "engine", "persist", "sim",
/// "pool", "cachesim", "check", "serve", "machine", "kernels"). The
/// benchmark's own root spans ("bench.*") map to "bench".
std::string_view layer_of(std::string_view span);

/// Aggregates spans drained from obs::Tracer: self time per layer and
/// per span name (duration minus the part of its interval that child
/// spans cover), total duration per span name, and how much of the
/// benchmark's root spans ("bench.op", "bench.window") named layers
/// cover. Keeps the first spans in memory for a Chrome trace file
/// written at exit.
class LayerTrace {
 public:
  /// Enables the tracer and clears any recorded events.
  void start();
  /// Moves every recorded span into the aggregates.
  void collect();
  /// Disables the tracer after a final collect().
  void stop();

  double self_ms(std::string_view layer) const;
  double name_self_ms(std::string_view name) const;
  double name_total_ms(std::string_view name) const;
  /// Durations (ms) of every span with this name, in completion order.
  const std::vector<double>& durations_ms(std::string_view name) const;
  /// Covered / total root time; 0 when no root span was seen.
  double coverage() const;

  /// Writes the kept spans as Chrome trace_event JSON.
  bool write_chrome(const std::string& path) const;

 private:
  std::map<std::string, double, std::less<>> layer_self_us_;
  std::map<std::string, double, std::less<>> name_self_us_;
  std::map<std::string, double, std::less<>> name_total_us_;
  std::map<std::string, std::vector<double>, std::less<>> name_durs_ms_;
  double root_us_ = 0.0;
  double covered_us_ = 0.0;
  std::vector<sgp::obs::SpanEvent> kept_;
};

// ------------------------------------------------------- workloads --

/// A workload made of discrete ops (repro_cold, validate_machines).
struct OpWorkload {
  /// One set-up: timed after every window, so its samples spread over
  /// the run; the op uses the state the latest set-up built.
  std::function<void()> setup;
  /// Op number i: timed.
  std::function<void(std::size_t i)> op;
  /// Checks op i's output and returns the evaluation points it priced
  /// or checked; untimed. Records failures in the outcome.
  std::function<double(std::size_t i, Outcome& out)> verify;
  /// Ops per window; runs end on a window boundary. validate_machines
  /// uses one rotation over the machines, so every run covers whole
  /// rotations.
  std::size_t window = 10;
};

Outcome run_op_workload(const Options& opt, const OpWorkload& w);

/// Everything the per-layer metrics are derived from, for one traced
/// phase. Fields a workload does not exercise stay 0.
struct LayerInputs {
  const LayerTrace* trace = nullptr;
  CounterMap before, after;
  double ops = 0.0;       ///< ops (serve: requests) in the traced phase
  double window_s = 0.0;  ///< wall time those ops took
  double untraced_ops_per_s = 0.0;
  double submit_us_p95 = 0.0;
  double response_bytes = 0.0;
  double segments_loaded = 0.0;  ///< per set-up
  double entries_loaded = 0.0;   ///< per set-up
  double spin_ms = 0.0;
};

/// Appends every per-layer metric, in the BENCHMARK.json order.
void add_layer_metrics(Outcome& out, const LayerInputs& in);

/// The set-up repro_cold and validate_machines time: what a bench or
/// check binary builds before its first evaluation.
struct Catalog {
  sgp::machine::MachineRegistry machines;  ///< built-ins + machines/*.ini
  sgp::core::Registry kernels;
};
/// Throws when a machine pack fails to load.
std::unique_ptr<Catalog> build_catalog();

Outcome run_repro_cold(const Options& opt);
Outcome run_serve_stream(const Options& opt);
Outcome run_validate_machines(const Options& opt);

/// Generator determinism, the percentile rule and a smoke run of each
/// workload. Returns the process exit code.
int self_test(const Options& opt);

// --------------------------------------------------- request stream --

/// What a stream line is, for the mix report and verification.
enum class LineKind { Stored, Repeat, New, Duplicate, Invalid };

struct StreamLine {
  std::string text;  ///< the request line as submitted
  LineKind kind = LineKind::New;
  /// For invalid lines: the error code the server must answer with.
  std::string expect_error;
};

/// Machine names and core counts the generator draws from.
struct MachineInfo {
  std::string name;
  int cores = 1;
};

/// A seeded request stream. `stored` holds request bodies (the JSON
/// members after "id") from an earlier stream; when non-empty, part of
/// the stream replays them. `id_prefix` keeps ids of different streams
/// apart. Same inputs give the same bytes.
std::vector<StreamLine> make_stream(std::uint64_t seed, std::size_t n,
                                    const std::vector<MachineInfo>& machines,
                                    const std::vector<std::string>& kernels,
                                    const std::vector<std::string>& stored,
                                    const std::string& id_prefix);

/// The body of a valid line (members after the id), for replay.
std::string body_of(const StreamLine& line);

std::string_view to_string(LineKind k);

}  // namespace perfbench
