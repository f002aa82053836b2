#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "cachesim/replay.hpp"
#include "cachesim/trace.hpp"
#include "machine/placement.hpp"
#include "obs/metrics.hpp"
#include "sim/cache_model.hpp"
#include "sim/roofline.hpp"
#include "threading/pool.hpp"

namespace sgp::check {

namespace {

std::string render_config(const sim::SimConfig& cfg) {
  std::ostringstream os;
  os << core::to_string(cfg.precision) << " " << core::to_string(cfg.compiler)
     << " " << core::to_string(cfg.vector_mode) << " t=" << cfg.nthreads
     << " " << machine::to_string(cfg.placement);
  return os.str();
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Records one invariant evaluation: bumps the per-invariant obs
/// counters and appends a Violation when `holds` is false.
class Recorder {
 public:
  Recorder(CheckReport& report, std::string machine, std::string kernel,
           std::string where)
      : report_(report),
        machine_(std::move(machine)),
        kernel_(std::move(kernel)),
        where_(std::move(where)) {}

  void observe(const std::string& invariant, bool holds,
               const std::string& detail) {
    ++report_.points;
    obs::registry().counter("check." + invariant + ".points").add();
    if (!holds) {
      obs::registry().counter("check." + invariant + ".violations").add();
      report_.violations.push_back(
          Violation{invariant, machine_, kernel_, where_, detail});
    }
  }

 private:
  CheckReport& report_;
  std::string machine_;
  std::string kernel_;
  std::string where_;
};

}  // namespace

std::string to_string(const Violation& v) {
  return v.invariant + ": " + v.machine + " / " + v.kernel + " [" + v.where +
         "]: " + v.detail;
}

void CheckReport::merge(CheckReport other) {
  points += other.points;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

InvariantChecker::InvariantChecker(machine::MachineDescriptor m,
                                   CheckOptions opt)
    : sim_(std::move(m)), opt_(opt) {}

void InvariantChecker::check_point(const core::KernelSignature& sig,
                                   const sim::SimConfig& cfg,
                                   CheckReport& report) const {
  const auto& m = sim_.machine();
  const auto bd = sim_.run(sig, cfg);
  Recorder rec(report, m.name, sig.name, render_config(cfg));
  const double tol = opt_.rel_tol;

  rec.observe("finite-positive",
              std::isfinite(bd.total_s) && bd.total_s > 0.0 &&
                  bd.compute_s >= 0.0 && bd.memory_s >= 0.0 &&
                  bd.sync_s >= 0.0 && bd.atomic_s >= 0.0,
              "total=" + num(bd.total_s));

  {
    const double recombined =
        std::max(bd.compute_s, bd.memory_s) + bd.sync_s + bd.atomic_s;
    rec.observe("breakdown-consistency",
                std::abs(bd.total_s - recombined) <=
                    tol * std::max(bd.total_s, recombined),
                "total=" + num(bd.total_s) +
                    " != max(compute,memory)+sync+atomic=" + num(recombined));
  }

  // Lower bound from the roofline compute ceiling. The ceiling already
  // folds in the codegen plan's efficiency, so the simulator's FP term
  // can only be slower (div/special ops cost more cycles, ILP derating
  // and the scalar penalty are >= 1, and seq_fraction only inflates the
  // critical path). Integer-dominated kernels price FP at zero on the
  // vector path, so the FLOP bound does not apply to them.
  const double flops_total = sig.mix.flops() * sig.iters_per_rep * sig.reps;
  if (!sig.integer_dominated && flops_total > 0.0) {
    const auto pt = sim::roofline_points(m, cfg, {sig}).front();
    const double bound_s = flops_total / (pt.compute_ceiling_gflops * 1e9 *
                                          cfg.nthreads);
    rec.observe("roofline-compute-bound",
                bd.total_s * (1.0 + tol) >= bound_s,
                "total=" + num(bd.total_s) + " < flops/(ceiling*t)=" +
                    num(bound_s) + " (ceiling=" +
                    num(pt.compute_ceiling_gflops) + " GFLOP/s)");
  }

  // Lower bound from the bandwidth roof, valid only when the analytic
  // model says DRAM serves the working set: every DRAM bandwidth term
  // (region ramp, knee derate, cluster port cap, pattern efficiency)
  // only derates from the single-core stream peak.
  const double bytes_total =
      sig.streamed_bytes_per_iter(cfg.precision) * sig.iters_per_rep *
      sig.reps;
  if (bd.serving == sim::MemLevel::DRAM && bytes_total > 0.0) {
    const double bw_cap =
        m.core.stream_bw_gbs * std::max(1.0, m.memory_derating);
    const double bound_s = bytes_total / (bw_cap * 1e9 * cfg.nthreads);
    rec.observe("roofline-bandwidth-bound",
                bd.total_s * (1.0 + tol) >= bound_s,
                "total=" + num(bd.total_s) + " < bytes/(stream_bw*t)=" +
                    num(bound_s));
  }

  if (opt_.scalar_floor && cfg.vector_mode != core::VectorMode::Scalar) {
    sim::SimConfig scalar = cfg;
    scalar.vector_mode = core::VectorMode::Scalar;
    const double floor_s = sim_.seconds(sig, scalar);
    rec.observe("scalar-floor",
                bd.total_s <= floor_s * (1.0 + opt_.scalar_floor_slack),
                "total=" + num(bd.total_s) + " > scalar total " +
                    num(floor_s) + " * " +
                    num(1.0 + opt_.scalar_floor_slack));
  }

  {
    core::KernelSignature doubled = sig;
    doubled.reps = sig.reps * 2.0;
    const auto bd2 = sim_.run(doubled, cfg);
    rec.observe("reps-linearity",
                std::abs(bd2.total_s - 2.0 * bd.total_s) <=
                    tol * std::max(bd2.total_s, 2.0 * bd.total_s),
                "2x reps gives " + num(bd2.total_s) + ", expected " +
                    num(2.0 * bd.total_s));
  }

  {
    core::KernelSignature scaled = sig;
    scaled.iters_per_rep = sig.iters_per_rep * opt_.size_scale;
    scaled.working_set_elems = sig.working_set_elems * opt_.size_scale;
    const auto big = sim_.run(scaled, cfg);
    rec.observe("size-monotonicity",
                big.total_s >= bd.total_s * (1.0 - tol),
                num(opt_.size_scale) + "x problem size shrank total from " +
                    num(bd.total_s) + " to " + num(big.total_s));
  }
}

void InvariantChecker::check_thread_monotonicity(
    const core::KernelSignature& sig, const sim::SimConfig& base,
    std::vector<int> thread_counts, CheckReport& report) const {
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());
  const double tol = opt_.rel_tol;

  sim::TimeBreakdown prev{};
  int prev_t = 0;
  for (const int t : thread_counts) {
    sim::SimConfig cfg = base;
    cfg.nthreads = t;
    const auto bd = sim_.run(sig, cfg);
    if (prev_t > 0) {
      Recorder rec(report, sim_.machine().name, sig.name,
                   render_config(cfg) + " vs t=" + std::to_string(prev_t));
      rec.observe("thread-monotonic-compute",
                  bd.compute_s <= prev.compute_s * (1.0 + tol),
                  "compute rose from " + num(prev.compute_s) + " to " +
                      num(bd.compute_s));
      rec.observe("thread-monotonic-sync",
                  bd.sync_s >= prev.sync_s * (1.0 - tol),
                  "sync fell from " + num(prev.sync_s) + " to " +
                      num(bd.sync_s));
    }
    prev = bd;
    prev_t = t;
  }
}

void InvariantChecker::check_cachesim_consistency(
    CheckReport& report) const {
  const auto& m = sim_.machine();
  const sim::CacheModel cm(m);

  // Case 1: a working set sized to half the usable L1 must be decided
  // L1-resident by the analytic model, and the trace simulator must see
  // an (almost) perfect steady-state hit rate for it.
  {
    cachesim::SweepSpec spec;
    spec.arrays = 2;
    spec.elem_bytes = 8;
    const double usable_l1 = 0.75 * static_cast<double>(m.l1d.size_bytes);
    spec.elems = std::max<std::size_t>(
        64, static_cast<std::size_t>(0.5 * usable_l1) /
                (spec.arrays * spec.elem_bytes));
    const double ws_bytes =
        static_cast<double>(spec.arrays * spec.elems * spec.elem_bytes);

    const auto stats =
        machine::analyze(m, machine::assign_cores(m, machine::Placement::Block, 1));
    const auto level = cm.serving_level(ws_bytes, stats, 1);
    Recorder rec(report, m.name, "synthetic-l1-resident",
                 "ws=" + num(ws_bytes) + "B t=1");
    rec.observe("cachesim-serving-level", level == sim::MemLevel::L1,
                "analytic model serves a half-L1 working set from " +
                    std::string(sim::to_string(level)));

    const auto rr = cachesim::replay_stream(m, spec, 3);
    rec.observe("cachesim-steady-hits",
                !rr.steady_miss_rate.empty() &&
                    rr.steady_miss_rate.front() < 0.02,
                "steady L1 miss rate " +
                    num(rr.steady_miss_rate.empty()
                            ? 1.0
                            : rr.steady_miss_rate.front()) +
                    " for an L1-resident sweep");
  }

  // Case 2: a working set at 2.5x the aggregate last-level capacity
  // must be decided DRAM-served, stream through the simulated hierarchy
  // (steady last-level miss rate > 0.5), and move per-rep DRAM traffic
  // agreeing with the analytic streamed-bytes term to within the line
  // granularity and write-allocate factors (0.5x..3x).
  {
    const double aggregate_llc =
        m.l3.present()
            ? static_cast<double>(m.l3.size_bytes) *
                  (static_cast<double>(m.num_cores) /
                   std::max(1, m.l3.shared_by))
            : static_cast<double>(m.l2.size_bytes) *
                  (static_cast<double>(m.num_cores) /
                   std::max(1, m.l2.shared_by));
    const double ws_total = 2.5 * aggregate_llc;

    cachesim::SweepSpec spec;
    spec.arrays = 2;
    spec.elem_bytes = 8;
    spec.elems = std::max<std::size_t>(
        4096, static_cast<std::size_t>(
                  ws_total / m.num_cores /
                  static_cast<double>(spec.arrays * spec.elem_bytes)));

    const auto stats = machine::analyze(
        m, machine::assign_cores(m, machine::Placement::Block, m.num_cores));
    const auto level = cm.serving_level(ws_total, stats, m.num_cores);
    Recorder rec(report, m.name, "synthetic-dram-stream",
                 "ws=" + num(ws_total) + "B t=" +
                     std::to_string(m.num_cores));
    rec.observe("cachesim-serving-level", level == sim::MemLevel::DRAM,
                "analytic model serves a 2.5x-LLC working set from " +
                    std::string(sim::to_string(level)));

    const int l2_sharers = std::max(1, m.l2.shared_by);
    const int l3_sharers = m.l3.present() ? std::max(1, m.l3.shared_by) : 1;
    cachesim::Hierarchy hier(
        cachesim::hierarchy_configs(m, l2_sharers, l3_sharers));
    cachesim::TraceCursor cursor(spec);
    cachesim::AccessRun run;
    while (cursor.next(run)) hier.access_run(run);  // warm
    const std::uint64_t warm_bytes = hier.dram_bytes();
    cursor.rewind();
    while (cursor.next(run)) hier.access_run(run);
    const double rep_bytes =
        static_cast<double>(hier.dram_bytes() - warm_bytes);

    const std::size_t last = hier.levels() - 1;
    const double steady_last_miss = hier.level(last).stats().miss_rate();
    rec.observe("cachesim-steady-misses", steady_last_miss > 0.5,
                "steady last-level miss rate " + num(steady_last_miss) +
                    " for a DRAM-streaming sweep");

    // The analytic model prices one logical element move per iteration:
    // arrays * elem_bytes of streamed traffic per element.
    const double analytic_bytes = static_cast<double>(
        spec.arrays * spec.elems * spec.elem_bytes);
    rec.observe("cachesim-traffic",
                rep_bytes >= 0.5 * analytic_bytes &&
                    rep_bytes <= 3.0 * analytic_bytes,
                "simulated per-rep DRAM traffic " + num(rep_bytes) +
                    "B vs analytic streamed bytes " + num(analytic_bytes) +
                    "B (outside 0.5x..3x)");
  }
}

CheckReport sharded_reports(
    std::size_t n, int jobs,
    const std::function<CheckReport(std::size_t)>& fn) {
  std::vector<CheckReport> parts(n);
  const int workers = threading::recommended_jobs(jobs);
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) parts[i] = fn(i);
  } else {
    threading::ThreadPool pool(workers);
    pool.parallel_for_dynamic(
        n, 1, [&](std::size_t begin, std::size_t end, int) {
          for (std::size_t i = begin; i < end; ++i) parts[i] = fn(i);
        });
  }
  CheckReport report;
  for (auto& part : parts) report.merge(std::move(part));
  return report;
}

CheckReport check_machine(const machine::MachineDescriptor& m,
                          const std::vector<core::KernelSignature>& sigs,
                          const CheckOptions& opt, int jobs) {
  InvariantChecker checker(m, opt);

  const int n = m.num_cores;
  std::vector<int> thread_grid{1, std::max(1, n / 2), n};
  std::sort(thread_grid.begin(), thread_grid.end());
  thread_grid.erase(std::unique(thread_grid.begin(), thread_grid.end()),
                    thread_grid.end());

  // One shard per kernel signature; sim::Simulator::run is const and
  // thread-safe, and shard reports merge in signature order.
  CheckReport report = sharded_reports(
      sigs.size(), jobs, [&](std::size_t si) {
        const auto& sig = sigs[si];
        CheckReport shard;
        for (const auto prec : core::all_precisions) {
          sim::SimConfig cfg;
          cfg.precision = prec;

          for (const int t : thread_grid) {
            cfg.nthreads = t;
            cfg.placement = machine::Placement::Block;
            checker.check_point(sig, cfg, shard);
          }
          cfg.nthreads = n;
          for (const auto placement : machine::all_placements) {
            if (placement == machine::Placement::Block) continue;  // above
            cfg.placement = placement;
            checker.check_point(sig, cfg, shard);
          }

          sim::SimConfig base;
          base.precision = prec;
          base.placement = machine::Placement::ClusterCyclic;
          checker.check_thread_monotonicity(sig, base, thread_grid, shard);
        }
        return shard;
      });

  checker.check_cachesim_consistency(report);
  return report;
}

}  // namespace sgp::check
