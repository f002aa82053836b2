// The sweep/evaluation engine: a scheduling and caching layer over
// sim::Simulator for the figure/table experiment pipelines.
//
// Responsibilities (the models stay untouched — results are bit
// identical to direct Simulator::run calls):
//   * memoize TimeBreakdowns in a thread-safe, content-addressed cache
//     keyed by (machine fingerprint, signature fingerprint, SimConfig
//     fingerprint) — see engine/fingerprint.hpp;
//   * build each machine's Simulator once per engine, not once per
//     pipeline, and one sim::EvalContext per (machine, signature) for
//     the engine's lifetime;
//   * price a batch's misses inline on the calling thread when there
//     are fewer than kPoolMinMisses of them (every paper grid), and fan
//     larger batches out over a sgp::threading::ThreadPool with dynamic
//     scheduling. Batches fill a pre-sized result vector by index, so
//     parallel output is exactly equal to a forced-serial run;
//   * count everything (requests, hits, simulated points, simulators
//     built, batches, wall time per named phase) for the bench
//     binaries' --perf flag and BENCH_sweep.json.
//
// Exception contract (inherits PR 1's resilience rules): if any point
// throws, unstarted points are skipped cooperatively, the batch joins,
// and the first exception is rethrown on the calling thread; the engine
// remains usable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cache.hpp"
#include "engine/fingerprint.hpp"
#include "engine/persist.hpp"
#include "obs/trace.hpp"
#include "sim/eval_context.hpp"

namespace sgp::threading {
class ThreadPool;
}

namespace sgp::engine {

/// Durable memo-cache + checkpoint/resume configuration. When set, the
/// engine loads every verified segment from `store.dir` at
/// construction — so an interrupted sweep replays only its missing
/// points — and flushes freshly-computed results back as new segments:
/// at the end of any batch once `flush_min_entries` have accumulated,
/// from a background flush thread every `flush_interval_ms` (0 disables
/// the thread), and at destruction.
struct EnginePersistence {
  PersistOptions store;  ///< directory, I/O fault injection, flush retry
  std::size_t flush_min_entries = 256;
  double flush_interval_ms = 0.0;
  /// Free-text sweep identity recorded in the store's sweep.manifest.
  std::string note;
};

struct EngineOptions {
  /// Worker threads for batches: 1 = forced serial, 0 = one per
  /// hardware thread (threading::recommended_jobs).
  int jobs = 0;
  /// Crash-safe persistence; disabled by default.
  std::optional<EnginePersistence> persist = std::nullopt;
};

/// Wall time and request volume attributed to one named phase.
struct PhaseStat {
  std::string name;
  double wall_s = 0.0;
  std::uint64_t requests = 0;
};

/// Persistence-side accounting, filled only when a store is attached.
struct EnginePersistCounters {
  bool enabled = false;
  PersistStats store;       ///< segment-level loads/flushes/quarantines
  CachePersistStats cache;  ///< persist.hits / misses / resumed_points
  std::uint64_t undecodable_entries = 0;  ///< verified frames that failed decode
  std::uint64_t pending_entries = 0;      ///< computed but not yet durable
};

struct EngineCounters {
  std::uint64_t requests = 0;      ///< evaluation points asked for
  std::uint64_t cache_hits = 0;    ///< served from the memo cache
  std::uint64_t cache_misses = 0;  ///< memo cache lookups that missed
  std::uint64_t simulations = 0;   ///< points priced (cache misses)
  std::uint64_t simulators_built = 0;
  std::uint64_t contexts = 0;     ///< engine-lifetime EvalContexts held
  std::uint64_t batches = 0;      ///< run_batch/run_grid calls
  std::uint64_t cache_entries = 0;
  std::vector<PhaseStat> phases;  ///< in first-use order
  EnginePersistCounters persist;
};

/// One evaluation point for run_batch. The machine and signature are
/// borrowed; they must outlive the call.
struct SweepPoint {
  const machine::MachineDescriptor* machine = nullptr;
  const core::KernelSignature* signature = nullptr;
  sim::SimConfig config;
};

class SweepEngine {
 public:
  explicit SweepEngine(EngineOptions opt = {});
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Resolved worker count used for batches.
  int jobs() const noexcept { return jobs_; }
  /// Changes the worker count for subsequent batches. Not thread-safe
  /// against in-flight batches; call between pipelines.
  void set_jobs(int jobs);

  /// Fewest misses a batch must have before its pricing goes to the
  /// worker pool; below it the calling thread prices them inline. Set at
  /// the crossover of a single-signature grid priced inline against
  /// the two-worker pool (see docs/ENGINE.md "Threading").
  static constexpr std::size_t kPoolMinMisses = 4096;

  /// Evaluate a batch of points through the cache — the engine's one
  /// evaluation path (a single point is a one-point batch); results are
  /// positionally aligned with `points` regardless of scheduling. Safe
  /// to call from multiple threads on one engine: cache lookups/inserts
  /// are sharded, shared EvalContexts are prepared under sims_mu_ and
  /// only read while pricing, and the worker-pool dispatch (whose job
  /// slot is single-occupancy) is serialized on pool_mu_.
  std::vector<sim::TimeBreakdown> run_batch(
      std::span<const SweepPoint> points);

  /// Cross-product convenience: machine x configs x signatures, results
  /// row-major by config (result[c * sigs.size() + s]).
  std::vector<sim::TimeBreakdown> run_grid(
      const machine::MachineDescriptor& m,
      std::span<const core::KernelSignature> sigs,
      std::span<const sim::SimConfig> cfgs);

  /// RAII wall-clock accumulator: `auto scope = eng.phase("figure1");`
  /// attributes elapsed time and request volume until scope exit.
  class PhaseScope {
   public:
    PhaseScope(PhaseScope&& other) noexcept;
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    PhaseScope& operator=(PhaseScope&&) = delete;

   private:
    friend class SweepEngine;
    PhaseScope(SweepEngine* eng, std::size_t index,
               const std::string& name);
    SweepEngine* eng_;
    std::size_t index_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t requests_at_start_;
    /// Trace span covering the phase (heap so moves keep the
    /// thread-local span stack untouched).
    std::unique_ptr<obs::Span> span_;
  };

  PhaseScope phase(const std::string& name);

  EngineCounters counters() const;
  void reset_counters();
  /// Drops all memoized results, per-machine simulators, their
  /// evaluation contexts and the fingerprint memo. Not thread-safe
  /// against in-flight batches. Durable segments on disk are untouched
  /// (delete the store directory to really start cold).
  void clear_cache();

  // ----------------------------------------------- persistence --

  /// True when a durable store is attached.
  bool persistent() const noexcept { return store_ != nullptr; }

  /// Drains freshly-computed entries and appends them as one segment
  /// (write-temp-then-rename, retried under the store's policy).
  /// Returns true when nothing remains queued; on failure the entries
  /// stay queued in memory for the next flush. Safe to call from any
  /// thread; a no-op without a store.
  bool flush_persistent();

  /// The attached store, for tests/diagnostics (nullptr when none).
  const PersistentStore* persistent_store() const noexcept {
    return store_.get();
  }

 private:
  /// The engine-lifetime context of one (machine, signature) pair. It
  /// owns a copy of the signature, so no caller's object is borrowed.
  struct CachedContext {
    CachedContext(const sim::Simulator& sim, core::KernelSignature sig);
    const core::KernelSignature signature;
    sim::EvalContext ctx;  ///< borrows `signature`
  };
  struct ContextKeyHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& k) const noexcept {
      return static_cast<std::size_t>(k.first ^
                                      (k.second * 0x9e3779b97f4a7c15ull));
    }
  };

  /// Requires sims_mu_.
  const sim::Simulator& simulator_locked(const machine::MachineDescriptor& m,
                                         std::uint64_t machine_fp);
  void finish_phase(std::size_t index, double wall_s,
                    std::uint64_t requests);
  void maybe_flush();
  void stop_flusher();

  int jobs_;
  SimCache cache_;

  // Persistence (all null/zero when EngineOptions.persist is unset).
  std::unique_ptr<PersistentStore> store_;
  std::size_t flush_min_entries_ = 0;
  std::string persist_note_;
  std::atomic<std::uint64_t> undecodable_entries_{0};
  /// Guards pending_ and the store's statistics, and serializes flushes
  /// (including the final one in the destructor) against the
  /// background flush thread.
  mutable std::mutex flush_mu_;
  std::vector<std::pair<CacheKey, sim::TimeBreakdown>> pending_;
  std::atomic<std::uint64_t> pending_count_{0};
  std::thread flush_thread_;
  std::condition_variable flush_cv_;
  std::mutex flush_cv_mu_;
  bool stop_flusher_ = false;  ///< guarded by flush_cv_mu_

  FingerprintMemo fingerprints_;

  /// Guards sims_, contexts_ and every EvalContext::prepare call.
  mutable std::mutex sims_mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<sim::Simulator>> sims_;
  /// Keyed by (machine fingerprint, signature fingerprint).
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                     std::unique_ptr<CachedContext>, ContextKeyHash>
      contexts_;

  /// Guards lazy pool creation and dispatch: ThreadPool has one job
  /// slot, so concurrent run_batch callers must not dispatch at once.
  std::mutex pool_mu_;
  std::unique_ptr<threading::ThreadPool> pool_;  ///< lazily created

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> simulations_{0};
  std::atomic<std::uint64_t> simulators_built_{0};
  std::atomic<std::uint64_t> batches_{0};

  mutable std::mutex phases_mu_;
  std::vector<PhaseStat> phases_;
  std::unordered_map<std::string, std::size_t> phase_index_;
};

/// The process-wide engine the convenience experiment overloads use, so
/// every bench binary and test in one process shares one cache.
SweepEngine& shared_engine();

}  // namespace sgp::engine
