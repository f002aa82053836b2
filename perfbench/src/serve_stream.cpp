// serve_stream: an in-process serve::Server answers a seeded request
// stream from one closed-loop client thread that keeps kOutstanding
// requests in flight through submit_line.
//
// Set-up restarts the server on a frozen persist store left behind by
// "yesterday's" stream (another seed), so setup_s is the warm-restart
// cost. The store is built once per process with deterministic batches,
// kept in memory, and restored byte-identically before every set-up;
// each round then runs the same stream on a fresh restart, so every
// round sees the same mix of stored, repeated, new, duplicate and
// invalid lines. Each response must byte-match a serial, in-memory
// reference server's answer to the same line.
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "kernels/register_all.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sgp::serve::Server;
using sgp::serve::ServerOptions;

constexpr std::size_t kOutstanding = 8;
constexpr std::size_t kRoundLines = 2000;
constexpr std::size_t kYesterdayLines = 1000;
constexpr std::uint64_t kYesterdaySalt = 0xD1B54A32D192ED03ull;

/// A directory's regular files, name-sorted, with their bytes.
using Files = std::vector<std::pair<std::string, std::string>>;

Files read_dir(const fs::path& dir) {
  Files out;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out.emplace_back(e.path().filename().string(), bytes.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Returns `dir` to the frozen state with the fewest file operations:
/// removes what a round added (its segments) and rewrites the files it
/// replaced (the manifest). Segments are immutable, so the frozen ones
/// are never touched again, and a round's churn stays proportional to
/// the new work it flushed.
void restore(const Files& frozen, const fs::path& dir) {
  fs::create_directories(dir);
  std::map<std::string, const std::string*> want;
  for (const auto& [name, bytes] : frozen) want.emplace(name, &bytes);
  const Files now = read_dir(dir);
  for (const auto& [name, bytes] : now) {
    const auto it = want.find(name);
    if (it == want.end()) {
      fs::remove(dir / name);
    } else if (*it->second != bytes) {
      write_file(dir / name, *it->second);
    }
    if (it != want.end()) want.erase(it);
  }
  for (const auto& [name, bytes] : want) write_file(dir / name, *bytes);
}

struct Round {
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<std::string> responses;
};

/// Plays `lines` against `server`, keeping up to `outstanding` requests
/// in flight. With `lockstep`, each group of `outstanding` lines is
/// admitted while the worker is paused, so it forms exactly one batch.
Round play(Server& server, const std::vector<StreamLine>& lines,
           std::size_t outstanding, bool lockstep = false) {
  const std::size_t n = lines.size();
  Round r;
  r.latency_ms.resize(n);
  r.submit_us.resize(n);
  r.responses.resize(n);
  std::vector<Clock::time_point> sent(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;  // guarded by mu

  const sgp::obs::Span window("bench.window");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return inflight < outstanding; });
      ++inflight;
    }
    if (lockstep && i % outstanding == 0) server.pause();
    sent[i] = Clock::now();
    {
      const sgp::obs::Span span("serve.submit");
      server.submit_line(lines[i].text, [&, i](std::string resp) {
        const auto t = Clock::now();
        std::lock_guard<std::mutex> lk(mu);
        r.latency_ms[i] = seconds_between(sent[i], t) * 1000.0;
        r.responses[i] = std::move(resp);
        --inflight;
        cv.notify_all();
      });
    }
    r.submit_us[i] = seconds_between(sent[i], Clock::now()) * 1e6;
    if (lockstep && (i % outstanding == outstanding - 1 || i + 1 == n)) {
      server.resume();
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return inflight == 0; });
    }
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return inflight == 0; });
  r.wall_s = seconds_between(t0, Clock::now());
  return r;
}

bool has(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

/// Does a reference response answer the line the way its kind says?
bool expected_shape(const StreamLine& line, const std::string& resp) {
  if (line.kind == LineKind::Invalid) {
    return has(resp, "\"ok\":false") &&
           has(resp, "\"code\":\"" + line.expect_error + "\"");
  }
  return has(resp, "\"ok\":true");
}

}  // namespace

Outcome run_serve_stream(const Options& opt) {
  Outcome out;
  const double spin_before = spin_ms();

  // The server validates machine names against the shared registry, so
  // the packs are registered there, once per process.
  auto& registry = sgp::machine::shared_registry();
  static const sgp::machine::IniLoadReport packs =
      registry.register_ini_dir("machines");
  if (!packs.ok()) {
    throw std::runtime_error("machine pack " + packs.errors[0].file + ": " +
                             packs.errors[0].message);
  }
  std::vector<MachineInfo> machines;
  for (const auto& name : registry.names()) {
    machines.push_back({name, registry.descriptor(name).num_cores});
  }
  std::vector<std::string> kernels;
  for (const auto& sig : sgp::kernels::all_signatures()) {
    kernels.push_back(sig.name);
  }

  const auto yesterday = make_stream(opt.seed ^ kYesterdaySalt, kYesterdayLines,
                                     machines, kernels, {}, "y");
  std::vector<std::string> stored;
  for (const auto& line : yesterday) {
    if (line.kind != LineKind::Invalid) stored.push_back(body_of(line));
  }
  const auto today =
      make_stream(opt.seed, kRoundLines, machines, kernels, stored, "q");

  const fs::path work =
      fs::path(opt.work_dir) / ("serve-" + std::to_string(::getpid()));
  fs::remove_all(work);
  ServerOptions sopt;
  sopt.jobs = kJobs;

  // Yesterday's store: one batch per lockstep group, so the segment
  // layout does not depend on thread timing.
  Files frozen;
  {
    ServerOptions bopt = sopt;
    bopt.persist_dir = (work / "build").string();
    {
      Server yesterday_server(bopt);
      play(yesterday_server, yesterday, kOutstanding, /*lockstep=*/true);
    }
    frozen = read_dir(work / "build");
    fs::remove_all(work / "build");
  }

  // The reference answers, serial and in memory.
  std::vector<std::string> reference;
  double unique_points = 0.0;
  {
    ServerOptions ropt;
    ropt.jobs = 1;
    Server ref(ropt);
    reference = play(ref, today, 1).responses;
    unique_points = static_cast<double>(ref.engine_counters().cache_misses);
  }
  for (std::size_t i = 0; i < today.size(); ++i) {
    if (!expected_shape(today[i], reference[i])) {
      out.fail("serve_stream reference line " + std::to_string(i) + " (" +
               std::string(to_string(today[i].kind)) + "): " + today[i].text +
               " -> " + reference[i]);
    }
  }

  // Per-round summaries only, so memory does not grow with the number
  // of rounds a run fits in.
  std::vector<double> setups, round_p50_ms, round_p95_ms, round_p99_ms,
      round_submit_p95_us;
  double wall_s = 0.0, response_bytes = 0.0, requests = 0.0;
  double cache_hits = 0.0, engine_requests = 0.0, coalesced = 0.0,
         accepted = 0.0, points = 0.0;
  double segments_loaded = 0.0, entries_loaded = 0.0;
  std::size_t rounds = 0;

  const fs::path store_dir = work / "store";
  sopt.persist_dir = store_dir.string();
  auto round = [&] {
    restore(frozen, store_dir);
    const auto t0 = Clock::now();
    auto server = std::make_unique<Server>(sopt);
    setups.push_back(seconds_between(t0, Clock::now()));
    const auto persist = server->engine_counters().persist;
    segments_loaded = static_cast<double>(persist.store.segments_loaded);
    entries_loaded = static_cast<double>(persist.store.entries_loaded);
    if (persist.store.quarantined_segments != 0 ||
        read_dir(store_dir) != frozen) {
      out.fail("serve_stream set-up changed or rejected the frozen store");
    }

    Round r = play(*server, today, kOutstanding);
    server->drain();
    const auto counters = server->engine_counters();
    const auto stats = server->stats();
    server.reset();
    if (counters.persist.store.flushes == 0 ||
        counters.persist.pending_entries != 0) {
      out.fail("serve_stream round " + std::to_string(rounds) +
               ": new points did not all reach the store");
    }

    ++rounds;
    wall_s += r.wall_s;
    requests += static_cast<double>(today.size());
    cache_hits += static_cast<double>(counters.cache_hits);
    engine_requests += static_cast<double>(counters.requests);
    coalesced += static_cast<double>(stats.coalesced);
    accepted += static_cast<double>(stats.accepted);
    points += static_cast<double>(stats.points);
    round_p50_ms.push_back(median(r.latency_ms));
    round_p95_ms.push_back(tail_percentile(r.latency_ms, kTailQ).value_or(0.0));
    round_p99_ms.push_back(tail_percentile(r.latency_ms, 0.99).value_or(0.0));
    round_submit_p95_us.push_back(
        tail_percentile(r.submit_us, kTailQ).value_or(0.0));
    for (std::size_t i = 0; i < today.size(); ++i) {
      ++out.attempted;
      response_bytes += static_cast<double>(r.responses[i].size());
      if (r.responses[i] != reference[i]) {
        out.fail("serve_stream line " + std::to_string(i) + ": got " +
                 r.responses[i] + ", want " + reference[i]);
      }
    }
  };
  auto rounds_for = [&](double seconds, std::size_t min_rounds,
                        const std::function<void()>& after = {}) {
    const double start = wall_s;
    for (std::size_t n = 0;
         n < min_rounds ||
         (wall_s - start < seconds && Clock::now() < opt.deadline);
         ++n) {
      round();
      if (after) after();
    }
  };

  if (!opt.trace) {
    rounds_for(opt.seconds, opt.smoke ? 1 : 8);
    std::map<LineKind, double> kinds;
    for (const auto& line : today) kinds[line.kind] += 1.0;
    const double n = static_cast<double>(today.size());
    out.note("rounds", static_cast<double>(rounds), "count");
    out.note("requests", requests, "count");
    for (const auto& [kind, count] : kinds) {
      out.note("mix." + std::string(to_string(kind)) + "_share", count / n,
               "ratio");
    }
    out.note("mix.unique_points", unique_points, "count");
    out.note("mix.memo_hit_ratio", cache_hits / engine_requests, "ratio");
    out.note("mix.coalesced_share", coalesced / accepted, "ratio");
    out.note("persist.segments_loaded", segments_loaded, "count");
    // Medians over rounds; each round holds kRoundLines requests, so its
    // p95 and p99 have 100 and 20 samples beyond them.
    out.note("latency_ms_p50", median(round_p50_ms), "ms");
    out.note("latency_ms_p99", median(round_p99_ms), "ms");
    out.note("points_per_s", points / wall_s, "1/s");
    out.note("host.spin_ms.before", spin_before, "ms");
    out.note("host.spin_ms.after", spin_ms(), "ms");
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", requests / wall_s, "1/s");
    out.metric("latency_ms_p95", median(round_p95_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    rounds_for(opt.seconds / 2, 1);
    const double base_ops_per_s = requests / wall_s;
    LayerTrace trace;
    LayerInputs in;
    in.before = counters_now();
    const double wall0 = wall_s, requests0 = requests, bytes0 = response_bytes;
    const std::size_t rounds0 = rounds;
    trace.start();
    rounds_for(opt.seconds / 2, 1, [&] { trace.collect(); });
    trace.stop();
    in.after = counters_now();
    in.trace = &trace;
    in.ops = requests - requests0;
    in.window_s = wall_s - wall0;
    in.untraced_ops_per_s = base_ops_per_s;
    in.submit_us_p95 = median(std::vector<double>(
        round_submit_p95_us.begin() + static_cast<std::ptrdiff_t>(rounds0),
        round_submit_p95_us.end()));
    in.response_bytes = response_bytes - bytes0;
    in.segments_loaded = segments_loaded;
    in.entries_loaded = entries_loaded;
    in.spin_ms = 0.5 * (spin_before + spin_ms());
    add_layer_metrics(out, in);
    trace.write_chrome(opt.work_dir + "/trace-" + opt.workload + ".json");
  }
  fs::remove_all(work);
  return out;
}

}  // namespace perfbench
