#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

using Interval = std::pair<double, double>;

/// Spans kept for the trace file; the rest are only aggregated, so a
/// long traced run stays within a bounded footprint.
constexpr std::size_t kKeepSpans = 200'000;

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

/// Sorts and merges intervals in place into a disjoint ascending list.
void merge(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (const auto& iv : v) {
    if (out > 0 && iv.first <= v[out - 1].second) {
      v[out - 1].second = std::max(v[out - 1].second, iv.second);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

/// Length of the part of [lo, hi) covered by a merged interval list.
double covered(const std::vector<Interval>& merged, double lo, double hi) {
  double sum = 0.0;
  auto it = std::lower_bound(
      merged.begin(), merged.end(), lo,
      [](const Interval& iv, double x) { return iv.second < x; });
  for (; it != merged.end() && it->first < hi; ++it) {
    sum += std::max(0.0, std::min(hi, it->second) - std::max(lo, it->first));
  }
  return sum;
}

bool is_root(std::string_view name) { return starts_with(name, "bench."); }

}  // namespace

std::string_view layer_of(std::string_view span) {
  struct Rule {
    std::string_view prefix;
    std::string_view layer;
  };
  // First match wins: persistence spans live on SweepEngine but are
  // their own layer.
  static constexpr Rule rules[] = {
      {"bench.", "bench"},
      {"SweepEngine::persist_", "persist"},
      {"SweepEngine::", "engine"},
      {"engine.", "engine"},
      {"phase:", "experiments"},
      {"experiments.", "experiments"},
      {"Simulator::", "sim"},
      {"ThreadPool::", "pool"},
      {"pool.", "pool"},
      {"cachesim.", "cachesim"},
      {"check.", "check"},
      {"serve.", "serve"},
      {"machine.", "machine"},
      {"kernels.", "kernels"},
  };
  for (const auto& r : rules) {
    if (starts_with(span, r.prefix)) return r.layer;
  }
  return "other";
}

void LayerTrace::start() {
  sgp::obs::tracer().enable();
  sgp::obs::tracer().clear();
}

void LayerTrace::stop() {
  collect();
  sgp::obs::tracer().disable();
}

void LayerTrace::collect() {
  auto events = sgp::obs::tracer().events();
  sgp::obs::tracer().clear();
  if (events.empty()) return;

  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  std::vector<Interval> roots;
  std::vector<Interval> layer_spans;
  for (const auto& ev : events) {
    const Interval iv{ev.start_us, ev.start_us + ev.dur_us};
    if (ev.parent != 0) children[ev.parent].push_back(iv);
    if (is_root(ev.name)) {
      roots.push_back(iv);
    } else {
      layer_spans.push_back(iv);
    }
  }
  for (auto& [id, list] : children) merge(list);
  merge(layer_spans);

  for (const auto& ev : events) {
    double self = ev.dur_us;
    if (const auto it = children.find(ev.id); it != children.end()) {
      self -= covered(it->second, ev.start_us, ev.start_us + ev.dur_us);
    }
    self = std::max(0.0, self);
    layer_self_us_[std::string(layer_of(ev.name))] += self;
    name_self_us_[ev.name] += self;
    name_total_us_[ev.name] += ev.dur_us;
    name_durs_ms_[ev.name].push_back(ev.dur_us / 1000.0);
  }
  for (const auto& r : roots) {
    root_us_ += r.second - r.first;
    covered_us_ += covered(layer_spans, r.first, r.second);
  }

  const std::size_t room = kKeepSpans - std::min(kKeepSpans, kept_.size());
  const std::size_t take = std::min(room, events.size());
  kept_.insert(kept_.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.begin() + take));
}

double LayerTrace::self_ms(std::string_view layer) const {
  const auto it = layer_self_us_.find(layer);
  return it == layer_self_us_.end() ? 0.0 : it->second / 1000.0;
}

double LayerTrace::name_self_ms(std::string_view name) const {
  const auto it = name_self_us_.find(name);
  return it == name_self_us_.end() ? 0.0 : it->second / 1000.0;
}

double LayerTrace::name_total_ms(std::string_view name) const {
  const auto it = name_total_us_.find(name);
  return it == name_total_us_.end() ? 0.0 : it->second / 1000.0;
}

const std::vector<double>& LayerTrace::durations_ms(
    std::string_view name) const {
  static const std::vector<double> none;
  const auto it = name_durs_ms_.find(name);
  return it == name_durs_ms_.end() ? none : it->second;
}

double LayerTrace::coverage() const {
  return root_us_ > 0.0 ? covered_us_ / root_us_ : 0.0;
}

bool LayerTrace::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : kept_) {
    out << (first ? "" : ",\n") << "{\"name\":" << sgp::obs::json_quote(ev.name)
        << ",\"cat\":" << sgp::obs::json_quote(layer_of(ev.name))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
        << ",\"ts\":" << sgp::obs::json_number(ev.start_us)
        << ",\"dur\":" << sgp::obs::json_number(ev.dur_us)
        << ",\"args\":{\"id\":" << ev.id << ",\"parent\":" << ev.parent
        << "}}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
