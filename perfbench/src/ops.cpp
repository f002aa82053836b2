// Timing loop for op-based workloads, and the per-layer metric set all
// three workloads share.
#include <algorithm>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Set-ups timed after each window: spread over the run, so setup_s
/// samples the same host phases as the ops.
constexpr int kSetupsPerWindow = 3;

struct OpTimes {
  std::vector<double> latency_ms;
  double busy_s = 0.0;  ///< summed op time: verification is excluded
  double points = 0.0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs whole windows of ops until their summed time reaches `seconds`
/// and at least `min_ops` ran, or the run's deadline passed. `after`
/// runs untimed after each op's verification.
OpTimes time_ops(const Options& opt, const OpWorkload& w, Outcome& out,
                 std::size_t& index, std::vector<double>& setups,
                 double seconds, std::size_t min_ops,
                 const std::function<void()>& after = {}) {
  OpTimes t;
  while (t.latency_ms.empty() ||
         ((t.busy_s < seconds || t.latency_ms.size() < min_ops) &&
          Clock::now() < opt.deadline)) {
    double window_s = 0.0;
    for (std::size_t k = 0; k < w.window; ++k) {
      const auto t0 = Clock::now();
      {
        const sgp::obs::Span root("bench.op");
        w.op(index);
      }
      const double dt = seconds_between(t0, Clock::now());
      t.latency_ms.push_back(dt * 1000.0);
      window_s += dt;
      ++out.attempted;
      t.points += w.verify(index, out);
      ++index;
      if (after) after();
    }
    t.busy_s += window_s;
    for (int k = 0; k < kSetupsPerWindow; ++k) {
      const auto t0 = Clock::now();
      w.setup();
      setups.push_back(seconds_between(t0, Clock::now()));
    }
  }
  return t;
}

}  // namespace

Outcome run_op_workload(const Options& opt, const OpWorkload& w) {
  Outcome out;
  const double spin_before = spin_ms();
  std::vector<double> setups;
  w.setup();

  // Warm-up window: process-wide lazies (signature tables, the shared
  // machine registry) are paid once per process, not per op.
  std::size_t index = 0;
  time_ops(opt, w, out, index, setups, 0.0, 1);
  setups.clear();

  const std::size_t min_ops = opt.smoke ? 1 : kMinTailSamples;
  if (!opt.trace) {
    const OpTimes t =
        time_ops(opt, w, out, index, setups, opt.seconds, min_ops);
    auto p95 = tail_percentile(t.latency_ms, kTailQ);
    if (!p95) {
      if (!opt.smoke) out.fail("too few ops for a p95");
      p95 = *std::max_element(t.latency_ms.begin(), t.latency_ms.end());
    }
    out.note("ops", static_cast<double>(t.latency_ms.size()), "count");
    out.note("latency_ms_p50", median(t.latency_ms), "ms");
    out.note("points_per_s", t.points / t.busy_s, "1/s");
    out.note("host.spin_ms.before", spin_before, "ms");
    out.note("host.spin_ms.after", spin_ms(), "ms");
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", static_cast<double>(t.latency_ms.size()) / t.busy_s,
               "1/s");
    out.metric("latency_ms_p95", *p95, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run: an untraced half for the overhead baseline, then a
  // traced half whose spans are aggregated after every op.
  const OpTimes base =
      time_ops(opt, w, out, index, setups, opt.seconds / 2, 1);
  LayerTrace trace;
  LayerInputs in;
  in.before = counters_now();
  trace.start();
  const OpTimes traced = time_ops(opt, w, out, index, setups,
                                  opt.seconds / 2, 1, [&] { trace.collect(); });
  trace.stop();
  in.after = counters_now();
  in.trace = &trace;
  in.ops = static_cast<double>(traced.latency_ms.size());
  in.window_s = traced.busy_s;
  in.untraced_ops_per_s =
      ratio(static_cast<double>(base.latency_ms.size()), base.busy_s);
  in.spin_ms = 0.5 * (spin_before + spin_ms());
  add_layer_metrics(out, in);
  trace.write_chrome(opt.work_dir + "/trace-" + opt.workload + ".json");
  return out;
}

void add_layer_metrics(Outcome& out, const LayerInputs& in) {
  const LayerTrace& tr = *in.trace;
  auto delta = [&](const std::string& name) {
    return counter_delta(in.before, in.after, name);
  };
  const double ops = in.ops;
  const double kreq = ops / 1000.0;
  const double requests = delta("engine.requests");

  // repro_cold: how the pipelines feed the engine. A pricing batch is
  // one Simulator::run_batch call over one EvalContext.
  const double sim_batches = delta("sim.batch.batches");
  out.metric("engine.points_per_batch",
             ratio(delta("sim.batch.points"), sim_batches), "count");
  out.metric("engine.run_batch_calls_per_op", ratio(sim_batches, ops),
             "count");
  out.metric("engine.requests_per_op", ratio(requests, ops), "count");
  out.metric("engine.simulations_per_op",
             ratio(delta("engine.simulations"), ops), "count");
  out.metric("engine.simulators_built_per_op",
             ratio(delta("engine.simulators_built"), ops), "count");
  out.metric("experiments.self_ms_per_op",
             ratio(tr.self_ms("experiments"), ops), "ms");
  out.metric("engine.self_ms_per_op", ratio(tr.self_ms("engine"), ops), "ms");
  out.metric("sim.self_ms_per_op", ratio(tr.self_ms("sim"), ops), "ms");
  out.metric("pool.self_ms_per_op", ratio(tr.self_ms("pool"), ops), "ms");
  out.metric("pool.dispatches_per_op", ratio(delta("pool.dispatches"), ops),
             "count");

  // serve_stream: the request path.
  out.metric("serve.submit_us_p95", in.submit_us_p95, "us");
  out.metric("serve.batch.busy_frac",
             ratio(tr.name_total_ms("serve.batch"), in.window_s * 1000.0),
             "ratio");
  out.metric("serve.requests_per_batch",
             ratio(delta("serve.accepted"), delta("serve.batches")), "count");
  out.metric("serve.coalesced_ratio",
             ratio(delta("serve.coalesced"), delta("serve.accepted")),
             "ratio");
  out.metric("serve.evaluate.self_ms_per_kreq",
             ratio(tr.name_self_ms("serve.evaluate"), kreq), "ms");
  out.metric("serve.response_bytes_per_req", ratio(in.response_bytes, ops),
             "B");
  out.metric("engine.hit_ratio", ratio(delta("engine.cache.hits"), requests),
             "ratio");
  out.metric("engine.self_ms_per_kreq", ratio(tr.self_ms("engine"), kreq),
             "ms");
  out.metric("sim.self_ms_per_kreq", ratio(tr.self_ms("sim"), kreq), "ms");
  out.metric("persist.load_ms",
             median(tr.durations_ms("SweepEngine::persist_load")), "ms");
  out.metric("persist.segments_loaded", in.segments_loaded, "count");
  out.metric("persist.entries_per_segment",
             ratio(in.entries_loaded, in.segments_loaded), "count");
  out.metric("persist.flush_ms_per_kreq",
             ratio(tr.name_total_ms("SweepEngine::persist_flush"), kreq), "ms");
  out.metric("persist.segments_written_per_kreq",
             ratio(delta("persist.flushes"), kreq), "count");

  // validate_machines: the oracle's scalar and cachesim paths.
  double check_points = 0.0;
  for (const auto& [name, value] : in.after) {
    if (name.starts_with("check.") && name.ends_with(".points")) {
      check_points += delta(name);
    }
  }
  out.metric("check.points_per_op", ratio(check_points, ops), "count");
  out.metric("check.self_ms_per_op", ratio(tr.self_ms("check"), ops), "ms");
  out.metric("sim.runs_per_op", ratio(delta("sim.runs"), ops), "count");
  out.metric("cachesim.replay_ms_per_op",
             ratio(tr.name_total_ms("cachesim.replay"), ops), "ms");
  out.metric("cachesim.accesses_simulated_per_op",
             ratio(delta("cachesim.accesses_simulated"), ops), "count");
  out.metric("cachesim.reps_skipped_per_op",
             ratio(delta("cachesim.reps_skipped"), ops), "count");

  // Every workload: how much of the wall time the spans explain, what
  // tracing costs, and how fast the host ran.
  out.metric("trace.coverage", tr.coverage(), "ratio");
  out.metric("trace.overhead",
             ratio(in.untraced_ops_per_s, ratio(ops, in.window_s)), "ratio");
  out.metric("host.spin_ms", in.spin_ms, "ms");
}

}  // namespace perfbench
