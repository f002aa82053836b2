#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/eval_context.hpp"
#include "sim/pattern.hpp"

namespace sgp::sim {

Simulator::Simulator(machine::MachineDescriptor m)
    : m_(std::move(m)), cache_(m_), memory_(m_), core_(m_), sync_(m_) {
  m_.validate();
  // Placement tables. Under every policy assign_cores(m, p, n) is the
  // first n entries of the full-machine order, so one walk of that order
  // per placement yields every row: row n - 1 is a snapshot of the
  // running occupancy counts after n threads. validate() guarantees the
  // NUMA regions and clusters each partition the cores, so the two
  // lookup vectors are total. machine::analyze stays the reference
  // (tests/placement_test.cpp checks every row against it).
  const auto ncores = static_cast<std::size_t>(m_.num_cores);
  std::vector<std::size_t> region_of(ncores);
  std::vector<std::size_t> cluster_of(ncores);
  for (std::size_t r = 0; r < m_.numa.size(); ++r) {
    for (int c : m_.numa[r].cores) region_of[static_cast<std::size_t>(c)] = r;
  }
  for (std::size_t cl = 0; cl < m_.clusters.size(); ++cl) {
    for (int c : m_.clusters[cl]) cluster_of[static_cast<std::size_t>(c)] = cl;
  }
  for (const auto p : machine::all_placements) {
    auto& table = placement_stats_[static_cast<std::size_t>(p)];
    table.reserve(ncores);
    machine::PlacementStats st;
    st.threads_per_numa.assign(m_.numa.size(), 0);
    st.threads_per_cluster.assign(m_.clusters.size(), 0);
    for (int c : machine::assign_cores(m_, p, m_.num_cores)) {
      const auto core = static_cast<std::size_t>(c);
      const int in_region = ++st.threads_per_numa[region_of[core]];
      const int in_cluster = ++st.threads_per_cluster[cluster_of[core]];
      if (in_region == 1) ++st.regions_spanned;
      st.max_per_numa = std::max(st.max_per_numa, in_region);
      st.max_per_cluster = std::max(st.max_per_cluster, in_cluster);
      table.push_back(st);
    }
  }
}

TimeBreakdown Simulator::run(const core::KernelSignature& sig,
                             const SimConfig& cfg) const {
  static obs::Counter& runs = obs::registry().counter("sim.runs");
  static obs::Histogram& run_ns =
      obs::registry().histogram("sim.run_ns");
  const obs::Span span("Simulator::run");
  const auto obs_t0 = std::chrono::steady_clock::now();

  // Thread range first, then signature validation (inside the context
  // constructor), preserving the historical exception precedence.
  if (cfg.nthreads < 1 || cfg.nthreads > m_.num_cores) {
    throw std::invalid_argument("Simulator::run: nthreads out of range");
  }
  EvalContext ctx(*this, sig);
  const std::span<const SimConfig> one(&cfg, 1);
  ctx.prepare(one);
  TimeBreakdown out;
  price(ctx, one, std::span<TimeBreakdown>(&out, 1));

  runs.add();
  run_ns.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - obs_t0)
          .count()));
  return out;
}

void Simulator::run_batch(EvalContext& ctx,
                          std::span<const SimConfig> cfgs,
                          std::span<TimeBreakdown> out) const {
  // Prepare only what the const overload will accept, so a foreign
  // context or a length mismatch still reports as such.
  if (&ctx.simulator() == this && cfgs.size() == out.size()) {
    ctx.prepare(cfgs);
  }
  run_batch(std::as_const(ctx), cfgs, out);
}

void Simulator::run_batch(const EvalContext& ctx,
                          std::span<const SimConfig> cfgs,
                          std::span<TimeBreakdown> out) const {
  static obs::Counter& batches =
      obs::registry().counter("sim.batch.batches");
  static obs::Counter& points =
      obs::registry().counter("sim.batch.points");
  if (&ctx.simulator() != this) {
    throw std::invalid_argument(
        "Simulator::run_batch: context was built for a different simulator");
  }
  if (cfgs.size() != out.size()) {
    throw std::invalid_argument(
        "Simulator::run_batch: cfgs/out length mismatch");
  }
  const obs::Span span("Simulator::run_batch");
  price(ctx, cfgs, out);
  batches.add();
  points.add(cfgs.size());
}

namespace {

/// SoA columns of the per-point model terms plus the codegen plan and
/// placement-table row each point uses. Per thread and reused across
/// batches, so contexts stay read-only while they are priced.
struct PriceScratch {
  std::vector<double> iters_crit;
  std::vector<double> compute_per_rep;
  std::vector<double> memory_per_rep;
  std::vector<double> sync_per_rep;
  std::vector<double> atomic_per_rep;
  std::vector<const compiler::CodegenPlan*> point_plan;
  std::vector<const machine::PlacementStats*> point_stats;
};

}  // namespace

void Simulator::price(const EvalContext& ctx,
                      std::span<const SimConfig> cfgs,
                      std::span<TimeBreakdown> out) const {
  const std::size_t n = cfgs.size();
  if (n == 0) return;
  const core::KernelSignature& sig = *ctx.sig_;

  thread_local PriceScratch scratch;
  auto& iters_crit = scratch.iters_crit;
  auto& compute_per_rep = scratch.compute_per_rep;
  auto& memory_per_rep = scratch.memory_per_rep;
  auto& sync_per_rep = scratch.sync_per_rep;
  auto& atomic_per_rep = scratch.atomic_per_rep;
  auto& point_plan = scratch.point_plan;
  auto& point_stats = scratch.point_stats;
  iters_crit.resize(n);
  compute_per_rep.resize(n);
  memory_per_rep.resize(n);
  sync_per_rep.resize(n);
  atomic_per_rep.resize(n);
  point_plan.resize(n);
  point_stats.resize(n);

  const double clock_hz = m_.core.clock_ghz * 1e9;

  // Resolve pass: validate each config, bind its memoized codegen/core
  // combo and placement-table row, and price the compute term.
  for (std::size_t i = 0; i < n; ++i) {
    const SimConfig& cfg = cfgs[i];
    if (cfg.nthreads < 1 || cfg.nthreads > m_.num_cores) {
      throw std::invalid_argument("Simulator::run: nthreads out of range");
    }
    const EvalContext::Combo& cb = ctx.combo(cfg);
    point_plan[i] = &cb.plan;
    point_stats[i] = &placement_stats(cfg.placement, cfg.nthreads);

    // Critical-path iterations per thread (Amdahl with seq_fraction).
    const double t = cfg.nthreads;
    const double ic =
        sig.iters_per_rep * ((1.0 - sig.seq_fraction) / t + sig.seq_fraction);
    iters_crit[i] = ic;
    compute_per_rep[i] = ic * cb.cost.cycles_per_iter / clock_hz;

    out[i].vector_path = cb.plan.vector_path;
    out[i].note = cb.plan.note;
    out[i].note_compiler = cfg.compiler;
    out[i].note_mode = cfg.vector_mode;
    out[i].note_rollback = cb.plan.needs_rollback;
  }

  // Memory pass: which level serves the streamed traffic, and how fast.
  for (std::size_t i = 0; i < n; ++i) {
    const SimConfig& cfg = cfgs[i];
    const machine::PlacementStats& stats = *point_stats[i];
    const compiler::CodegenPlan& plan = *point_plan[i];
    const double ws =
        ctx.ws_bytes_[static_cast<std::size_t>(cfg.precision)];
    const MemLevel serving = cache_.serving_level(ws, stats, cfg.nthreads);
    out[i].serving = serving;

    double mem = 0.0;
    if (serving != MemLevel::L1) {
      const double eff = ctx.pattern_bw_eff_;
      const double bytes_per_thread =
          ctx.streamed_bytes_per_iter_[static_cast<std::size_t>(
              cfg.precision)] *
          iters_crit[i] / eff;
      double bw = 0.0;
      bool shared_level = false;
      if (serving == MemLevel::DRAM) {
        bw = memory_.per_thread_bw_gbs(stats, cfg.nthreads,
                                       SharedLevel::Dram);
        shared_level = true;
      } else if (serving == MemLevel::L3 && m_.l3_memory_side) {
        bw = memory_.per_thread_bw_gbs(stats, cfg.nthreads,
                                       SharedLevel::MemorySideL3);
        shared_level = true;
      } else {
        bw = cache_.per_thread_bw_gbs(serving, stats, cfg.nthreads);
      }
      // Scalar code exposes less memory-level parallelism than vector
      // code, so it sustains only a fraction of the streaming bandwidth
      // out of the shared levels.
      if (shared_level && !plan.vector_path) {
        bw *= m_.core.scalar_stream_derate;
      }
      bw *= plan.memory_efficiency;
      mem = bytes_per_thread / (bw * 1e9);
    }
    memory_per_rep[i] = mem;
  }

  // Sync/atomic pass. Contended atomics serialise globally: every
  // atomic op costs a coherence round trip once more than one thread
  // updates the location.
  for (std::size_t i = 0; i < n; ++i) {
    const SimConfig& cfg = cfgs[i];
    const machine::PlacementStats& stats = *point_stats[i];
    sync_per_rep[i] = sync_.seconds_per_rep(sig, stats, cfg.nthreads);

    double atomic = 0.0;
    if (sig.atomic) {
      const double ops = sig.iters_per_rep;  // one atomic per iteration
      if (cfg.nthreads == 1) {
        atomic = ops * 6e-9;  // uncontended near-L1 latency
      } else {
        const double span_mult = stats.regions_spanned > 1
                                     ? m_.remote_numa_penalty
                                     : 1.0;
        atomic = ops * m_.atomic_rtt_ns * 1e-9 * span_mult;
      }
    }
    atomic_per_rep[i] = atomic;
  }

  // Combine pass: pure SoA arithmetic over the term columns.
  const double reps = sig.reps;
  for (std::size_t i = 0; i < n; ++i) {
    const double per_rep =
        std::max(compute_per_rep[i], memory_per_rep[i]) + sync_per_rep[i] +
        atomic_per_rep[i];
    out[i].compute_s = compute_per_rep[i] * reps;
    out[i].memory_s = memory_per_rep[i] * reps;
    out[i].sync_s = sync_per_rep[i] * reps;
    out[i].atomic_s = atomic_per_rep[i] * reps;
    out[i].total_s = per_rep * reps;
  }
}

}  // namespace sgp::sim
