#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "threading/pool.hpp"

namespace sgp::engine {

namespace {

/// Process-wide engine metrics, aggregated over every SweepEngine
/// (the cache's hit/miss mirrors live in SimCache itself).
struct EngineMetrics {
  obs::Counter& requests = obs::registry().counter("engine.requests");
  obs::Counter& simulations =
      obs::registry().counter("engine.simulations");
  obs::Counter& simulators_built =
      obs::registry().counter("engine.simulators_built");
  obs::Counter& batches = obs::registry().counter("engine.batches");

  static EngineMetrics& get() {
    static EngineMetrics* m = new EngineMetrics();
    return *m;
  }
};

}  // namespace

SweepEngine::SweepEngine(EngineOptions opt)
    : jobs_(threading::recommended_jobs(opt.jobs)) {
  if (!opt.persist) return;
  store_ = std::make_unique<PersistentStore>(opt.persist->store);
  flush_min_entries_ = std::max<std::size_t>(1, opt.persist->flush_min_entries);
  persist_note_ = opt.persist->note;
  cache_.set_persist_tracking(true);
  {
    const obs::Span span("SweepEngine::persist_load");
    store_->load([&](std::span<const std::byte> payload) {
      if (const auto entry = decode_cache_entry(payload)) {
        cache_.insert_loaded(entry->first, entry->second);
      } else {
        // The frame verified but the payload is not a cache entry this
        // build understands — count it and move on, never abort.
        undecodable_entries_.fetch_add(1, std::memory_order_relaxed);
        obs::registry().counter("persist.corrupt_entries").add();
      }
    });
  }
  if (opt.persist->flush_interval_ms > 0.0) {
    const double interval_ms = opt.persist->flush_interval_ms;
    flush_thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lk(flush_cv_mu_);
      for (;;) {
        flush_cv_.wait_for(
            lk, std::chrono::duration<double, std::milli>(interval_ms),
            [this] { return stop_flusher_; });
        if (stop_flusher_) return;
        lk.unlock();
        if (cache_.fresh_entries() > 0 ||
            pending_count_.load(std::memory_order_relaxed) > 0) {
          flush_persistent();
        }
        lk.lock();
      }
    });
  }
}

SweepEngine::~SweepEngine() {
  stop_flusher();
  if (store_) {
    // Best-effort final checkpoint; persistence failures must never
    // take down a process that computed its results successfully.
    try {
      flush_persistent();
    } catch (...) {
    }
  }
}

void SweepEngine::stop_flusher() {
  if (!flush_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(flush_cv_mu_);
    stop_flusher_ = true;
  }
  flush_cv_.notify_all();
  flush_thread_.join();
}

bool SweepEngine::flush_persistent() {
  if (!store_) return true;
  std::lock_guard<std::mutex> lock(flush_mu_);
  auto fresh = cache_.drain_fresh();
  pending_.insert(pending_.end(),
                  std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
  pending_count_.store(pending_.size(), std::memory_order_relaxed);
  if (pending_.empty()) return true;
  const obs::Span span("SweepEngine::persist_flush");
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(pending_.size());
  for (const auto& [key, value] : pending_) {
    payloads.push_back(encode_cache_entry(key, value));
  }
  if (!store_->append(payloads)) return false;  // entries stay queued
  pending_.clear();
  pending_count_.store(0, std::memory_order_relaxed);
  store_->write_manifest(persist_note_);
  return true;
}

void SweepEngine::maybe_flush() {
  if (!store_) return;
  if (cache_.fresh_entries() +
          pending_count_.load(std::memory_order_relaxed) >=
      flush_min_entries_) {
    flush_persistent();
  }
}

void SweepEngine::set_jobs(int jobs) {
  const int resolved = threading::recommended_jobs(jobs);
  if (resolved == jobs_) return;
  jobs_ = resolved;
  pool_.reset();  // re-created lazily at the next batch
}

SweepEngine::CachedContext::CachedContext(const sim::Simulator& sim,
                                          core::KernelSignature sig)
    : signature(std::move(sig)), ctx(sim, signature) {}

const sim::Simulator& SweepEngine::simulator_locked(
    const machine::MachineDescriptor& m, std::uint64_t machine_fp) {
  auto it = sims_.find(machine_fp);
  if (it == sims_.end()) {
    it = sims_.emplace(machine_fp, std::make_unique<sim::Simulator>(m))
             .first;
    simulators_built_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::get().simulators_built.add();
  }
  return *it->second;
}

std::vector<sim::TimeBreakdown> SweepEngine::run_batch(
    std::span<const SweepPoint> points) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::get().batches.add();
  const obs::Span span("SweepEngine::run_batch");
  std::vector<sim::TimeBreakdown> results(points.size());
  if (points.empty()) return results;

  requests_.fetch_add(points.size(), std::memory_order_relaxed);
  EngineMetrics::get().requests.add(points.size());

  // Group the batch by (machine, signature) identity, so the interned
  // fingerprints are looked up once per group and each point only
  // hashes its SimConfig.
  struct Group {
    const machine::MachineDescriptor* machine = nullptr;
    const core::KernelSignature* signature = nullptr;
    std::uint64_t machine_fp = 0;
    std::uint64_t signature_fp = 0;
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> point_group(points.size());
  std::vector<CacheKey> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    // Batches come from grids: the same few (machine, signature) pairs
    // repeat point after point, so a linear scan beats hashing.
    std::size_t g = groups.size();
    std::size_t same_machine = groups.size();
    for (std::size_t j = 0; j < groups.size(); ++j) {
      if (groups[j].machine != p.machine) continue;
      same_machine = j;
      if (groups[j].signature == p.signature) {
        g = j;
        break;
      }
    }
    if (g == groups.size()) {
      const std::uint64_t machine_fp =
          same_machine < groups.size() ? groups[same_machine].machine_fp
                                       : fingerprints_.machine(*p.machine);
      groups.push_back(Group{p.machine, p.signature, machine_fp,
                             fingerprints_.signature(*p.signature)});
    }
    point_group[i] = static_cast<std::uint32_t>(g);
    keys[i] = CacheKey{groups[g].machine_fp, groups[g].signature_fp,
                       config_fingerprint(p.config)};
  }

  // One lock acquisition per shard for the whole batch, instead of one
  // per point.
  std::vector<std::uint8_t> hit(points.size(), 0);
  cache_.lookup_batch(keys, results, hit);

  // Lay the misses out group by group (a counting sort on the group
  // index), so each group prices one contiguous slice.
  std::vector<std::size_t> offset(groups.size() + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!hit[i]) ++offset[point_group[i] + 1];
  }
  for (std::size_t g = 0; g < groups.size(); ++g) offset[g + 1] += offset[g];
  const std::size_t misses = offset.back();
  if (misses == 0) {
    maybe_flush();
    return results;  // all hits (a warm restart): no Simulator built
  }
  std::vector<std::size_t> order(misses);  ///< result index per miss
  std::vector<sim::SimConfig> cfgs(misses);
  std::vector<CacheKey> miss_keys(misses);
  {
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (hit[i]) continue;
      const std::size_t k = fill[point_group[i]]++;
      order[k] = i;
      cfgs[k] = points[i].config;
      miss_keys[k] = keys[i];
    }
  }

  // Resolve each group's engine-lifetime context and prepare the combos
  // its slice needs, here on the calling thread: workers then only read
  // shared contexts. A bad signature throws from the EvalContext
  // constructor before anything is cached; a bad config throws from
  // prepare() before anything is priced.
  struct Slice {
    const sim::Simulator* simulator;
    const sim::EvalContext* ctx;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Slice> slices;
  {
    std::lock_guard<std::mutex> lock(sims_mu_);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (offset[g] == offset[g + 1]) continue;
      const Group& grp = groups[g];
      const sim::Simulator& simulator =
          simulator_locked(*grp.machine, grp.machine_fp);
      const std::pair key{grp.machine_fp, grp.signature_fp};
      auto it = contexts_.find(key);
      if (it == contexts_.end()) {
        it = contexts_
                 .emplace(key, std::make_unique<CachedContext>(
                                   simulator, *grp.signature))
                 .first;
      }
      sim::EvalContext& ctx = it->second->ctx;
      ctx.prepare(std::span<const sim::SimConfig>(
          cfgs.data() + offset[g], offset[g + 1] - offset[g]));
      slices.push_back(Slice{&simulator, &ctx, offset[g], offset[g + 1]});
    }
  }

  std::vector<sim::TimeBreakdown> outs(misses);
  auto price = [&](const Slice& s) {
    const std::size_t len = s.end - s.begin;
    s.simulator->run_batch(
        *s.ctx, std::span<const sim::SimConfig>(cfgs.data() + s.begin, len),
        std::span<sim::TimeBreakdown>(outs.data() + s.begin, len));
  };

  if (jobs_ == 1 || misses < kPoolMinMisses) {
    for (const Slice& s : slices) price(s);
  } else {
    // Split large slices so a single-group grid still spreads over the
    // pool.
    constexpr std::size_t kPriceChunk = 256;
    std::vector<Slice> tasks;
    for (const Slice& s : slices) {
      for (std::size_t b = s.begin; b < s.end; b += kPriceChunk) {
        tasks.push_back(
            Slice{s.simulator, s.ctx, b, std::min(b + kPriceChunk, s.end)});
      }
    }
    // The pool's job slot is single-occupancy, so concurrent run_batch
    // callers serialize here (cache lookups above stay concurrent).
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    if (!pool_) pool_ = std::make_unique<threading::ThreadPool>(jobs_);
    // Grain 1: tasks have irregular cost (thread counts vary wildly
    // across a grid). Rethrows the first exception after the join;
    // nothing is cached in that case.
    pool_->parallel_for_dynamic(
        tasks.size(), 1,
        [&](std::size_t begin, std::size_t end, int /*worker*/) {
          for (std::size_t t = begin; t < end; ++t) price(tasks[t]);
        });
  }
  simulations_.fetch_add(misses, std::memory_order_relaxed);
  EngineMetrics::get().simulations.add(misses);
  for (std::size_t k = 0; k < misses; ++k) results[order[k]] = outs[k];
  cache_.insert_batch(miss_keys, outs);
  maybe_flush();
  return results;
}

std::vector<sim::TimeBreakdown> SweepEngine::run_grid(
    const machine::MachineDescriptor& m,
    std::span<const core::KernelSignature> sigs,
    std::span<const sim::SimConfig> cfgs) {
  const obs::Span span("SweepEngine::run_grid");
  std::vector<SweepPoint> points;
  points.reserve(sigs.size() * cfgs.size());
  for (const auto& cfg : cfgs) {
    for (const auto& sig : sigs) {
      points.push_back(SweepPoint{&m, &sig, cfg});
    }
  }
  return run_batch(points);
}

// ------------------------------------------------------------ phases --

SweepEngine::PhaseScope::PhaseScope(SweepEngine* eng, std::size_t index,
                                    const std::string& name)
    : eng_(eng),
      index_(index),
      start_(std::chrono::steady_clock::now()),
      requests_at_start_(eng->requests_.load(std::memory_order_relaxed)),
      span_(std::make_unique<obs::Span>("phase:" + name)) {}

SweepEngine::PhaseScope::PhaseScope(PhaseScope&& other) noexcept
    : eng_(std::exchange(other.eng_, nullptr)),
      index_(other.index_),
      start_(other.start_),
      requests_at_start_(other.requests_at_start_),
      span_(std::move(other.span_)) {}

SweepEngine::PhaseScope::~PhaseScope() {
  if (!eng_) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  eng_->finish_phase(
      index_, wall,
      eng_->requests_.load(std::memory_order_relaxed) -
          requests_at_start_);
}

SweepEngine::PhaseScope SweepEngine::phase(const std::string& name) {
  std::lock_guard<std::mutex> lock(phases_mu_);
  auto it = phase_index_.find(name);
  if (it == phase_index_.end()) {
    it = phase_index_.emplace(name, phases_.size()).first;
    phases_.push_back(PhaseStat{name, 0.0, 0});
  }
  return PhaseScope(this, it->second, name);
}

void SweepEngine::finish_phase(std::size_t index, double wall_s,
                               std::uint64_t requests) {
  std::lock_guard<std::mutex> lock(phases_mu_);
  phases_[index].wall_s += wall_s;
  phases_[index].requests += requests;
}

// ---------------------------------------------------------- counters --

EngineCounters SweepEngine::counters() const {
  EngineCounters out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.simulations = simulations_.load(std::memory_order_relaxed);
  out.simulators_built =
      simulators_built_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sims_mu_);
    out.contexts = contexts_.size();
  }
  const CacheStats cs = cache_.stats();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  out.cache_entries = cs.entries;
  {
    std::lock_guard<std::mutex> lock(phases_mu_);
    out.phases = phases_;
  }
  if (store_) {
    out.persist.enabled = true;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      out.persist.store = store_->stats();
    }
    out.persist.cache = cache_.persist_stats();
    out.persist.undecodable_entries =
        undecodable_entries_.load(std::memory_order_relaxed);
    out.persist.pending_entries =
        pending_count_.load(std::memory_order_relaxed) +
        cache_.fresh_entries();
  }
  return out;
}

void SweepEngine::reset_counters() {
  requests_.store(0, std::memory_order_relaxed);
  simulations_.store(0, std::memory_order_relaxed);
  simulators_built_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  cache_.reset_stats();
  std::lock_guard<std::mutex> lock(phases_mu_);
  phases_.clear();
  phase_index_.clear();
}

void SweepEngine::clear_cache() {
  cache_.clear();
  fingerprints_.clear();
  std::lock_guard<std::mutex> lock(sims_mu_);
  contexts_.clear();  // contexts borrow the simulators: drop them first
  sims_.clear();
}

SweepEngine& shared_engine() {
  static SweepEngine* eng = new SweepEngine();  // never destroyed
  return *eng;
}

}  // namespace sgp::engine
