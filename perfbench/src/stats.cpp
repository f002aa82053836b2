#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void Outcome::fail(std::string why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(std::move(why));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> v, double q) {
  if (v.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of all samples at
  // or below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - index < 10) return std::nullopt;
  return v[index];
}

double spin_ms() {
  // xorshift64 over a fixed count: integer-only, no memory traffic, so
  // it measures the core clock and nothing else.
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto t1 = Clock::now();
  volatile std::uint64_t sink = x;
  (void)sink;
  return seconds_between(t0, t1) * 1000.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

CounterMap counters_now() {
  CounterMap out;
  for (auto& [name, value] : sgp::obs::registry().snapshot().counters) {
    out.emplace(name, value);
  }
  return out;
}

double counter_delta(const CounterMap& before, const CounterMap& after,
                     const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  const std::uint64_t av = a == after.end() ? 0 : a->second;
  const std::uint64_t bv = b == before.end() ? 0 : b->second;
  return static_cast<double>(av - bv);
}

}  // namespace perfbench
