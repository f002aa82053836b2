// Seeded sgp-serve request stream.
//
// Each valid line is a sweep (or a one-point simulate) on a registered
// machine — built-ins and INI packs alike — over 1-8 distinct kernels,
// one or both precisions, a compiler, a vector mode, a placement, 1-4
// distinct thread counts within the machine's core count, and a CSV or
// JSON payload. The mix:
//   * Stored    — a body from an earlier stream (answered from the
//                 persist store the earlier stream left behind);
//   * Repeat    — a body seen earlier in this stream (memo hit);
//   * New       — a fresh body (simulated, then flushed to the store);
//   * Duplicate — the body of one of the last three lines again, so it
//                 usually lands in the same server batch (coalescing);
//   * Invalid   — a malformed or invalid line with a known error code.
//
// New work is one line in a thousand, the first line included. The
// server writes a persist segment for every request that computed
// something, and on a disk each segment costs 0.3-1 ms that varies with
// the device: with 5% new lines a third of all requests wait behind a
// flush and the p95 follows the disk; with 1% the p95 flips between the
// two populations. At 0.1% fewer than 2% of requests wait behind a
// flush, so the p95 measures the request path, while every round still
// writes segments for the persist metrics.
#include <algorithm>
#include <array>

#include "bench.hpp"

namespace perfbench {

namespace {

/// One line in this many is new work (see the header comment).
constexpr std::size_t kNewEvery = 1000;

/// splitmix64: a fixed, portable generator (std:: distributions are
/// implementation-defined, which would make streams differ by library).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

std::string quoted(std::string_view s) {
  return "\"" + std::string(s) + "\"";
}

/// Distinct values drawn from [0, n), in draw order.
std::vector<std::size_t> distinct(Rng& rng, std::size_t count,
                                  std::size_t n) {
  std::vector<std::size_t> out;
  while (out.size() < count && out.size() < n) {
    const std::size_t v = rng.below(n);
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::string thread_list(Rng& rng, int cores, std::size_t count) {
  // Powers of two up to the core count, plus the full width and odd
  // sizes, so placements see both aligned and ragged thread counts.
  std::vector<int> menu;
  for (int t = 1; t <= cores; t *= 2) menu.push_back(t);
  if (menu.back() != cores) menu.push_back(cores);
  if (cores >= 3) menu.push_back(3);
  if (cores >= 12) menu.push_back(12);
  std::string out;
  for (const std::size_t i : distinct(rng, count, menu.size())) {
    out += out.empty() ? "" : ",";
    out += std::to_string(menu[i]);
  }
  return count == 1 && rng.below(2) == 0 ? out : "[" + out + "]";
}

/// A valid request body: the members after "id", without braces.
std::string fresh_body(Rng& rng, const std::vector<MachineInfo>& machines,
                       const std::vector<std::string>& kernels) {
  static constexpr std::array<std::string_view, 3> precisions = {
      "fp32", "fp64", "both"};
  static constexpr std::array<std::string_view, 2> compilers = {"gcc",
                                                                "clang"};
  static constexpr std::array<std::string_view, 3> vectors = {
      "scalar", "vls", "vla"};
  static constexpr std::array<std::string_view, 3> placements = {
      "block", "cyclic", "cluster"};

  const MachineInfo& m = machines[rng.below(machines.size())];
  const std::size_t nk = 1 + rng.below(8);
  const std::size_t nt = 1 + rng.below(4);
  const std::string_view prec = precisions[rng.below(precisions.size())];
  const bool single = nk == 1 && nt == 1 && prec != "both";

  std::string kernel_field;
  const auto picks = distinct(rng, nk, kernels.size());
  if (nk == 1 && rng.below(2) == 0) {
    kernel_field = "\"kernel\":" + quoted(kernels[picks[0]]);
  } else {
    kernel_field = "\"kernels\":[";
    for (std::size_t i = 0; i < picks.size(); ++i) {
      kernel_field += (i ? "," : "") + quoted(kernels[picks[i]]);
    }
    kernel_field += "]";
  }
  std::string body = "\"op\":";
  body += single ? "\"simulate\"" : "\"sweep\"";
  body += ",\"machine\":" + quoted(m.name) + "," + kernel_field;
  body += ",\"precision\":" + quoted(prec);
  body += ",\"threads\":" + thread_list(rng, m.cores, nt);
  // GCC emits no vector-length-agnostic code: the server refuses that
  // pair, so the generator never asks for it.
  const std::string_view compiler = compilers[rng.below(compilers.size())];
  const std::size_t vector_choices = compiler == "gcc" ? 2 : vectors.size();
  body += ",\"compiler\":" + quoted(compiler);
  body += ",\"vector\":" + quoted(vectors[rng.below(vector_choices)]);
  body += ",\"placement\":" +
          quoted(placements[rng.below(placements.size())]);
  switch (rng.below(3)) {
    case 0: body += ",\"format\":\"json\""; break;
    case 1: body += ",\"format\":\"csv\""; break;
    default: break;  // the csv default
  }
  return body;
}

/// An invalid line and the error code it must get.
std::pair<std::string, std::string> invalid_line(
    Rng& rng, const std::string& id, const std::string& valid_body,
    const MachineInfo& m) {
  const std::string head = "{\"id\":" + quoted(id) + ",";
  switch (rng.below(5)) {
    case 0: {  // truncated mid-document
      const std::string full = head + valid_body + "}";
      return {full.substr(0, full.size() / 2), "parse-error"};
    }
    case 1:
      return {head + "\"op\":\"sweep\",\"machine\":\"sg2043\","
                     "\"kernel\":\"TRIAD\"}",
              "bad-request"};
    case 2:
      return {head + "\"op\":\"sweep\",\"machine\":" + quoted(m.name) +
                  ",\"kernel\":\"TRIAD\",\"threads\":[" +
                  std::to_string(m.cores + 1) + "]}",
              "bad-request"};
    case 3:
      return {head + valid_body + ",\"vectorisation\":\"vla\"}",
              "bad-request"};
    default:
      return {head + "\"op\":\"sweep\",\"machine\":" + quoted(m.name) +
                  ",\"kernels\":[\"TRIAD\",\"TRIAD\"]}",
              "bad-request"};
  }
}

}  // namespace

std::string_view to_string(LineKind k) {
  switch (k) {
    case LineKind::Stored: return "stored";
    case LineKind::Repeat: return "repeat";
    case LineKind::New: return "new";
    case LineKind::Duplicate: return "duplicate";
    case LineKind::Invalid: return "invalid";
  }
  return "?";
}

std::string body_of(const StreamLine& line) {
  // Valid lines are {"id":"...",<body>}; ids never contain quotes.
  const std::size_t comma = line.text.find("\",");
  return line.text.substr(comma + 2, line.text.size() - comma - 3);
}

std::vector<StreamLine> make_stream(std::uint64_t seed, std::size_t n,
                                    const std::vector<MachineInfo>& machines,
                                    const std::vector<std::string>& kernels,
                                    const std::vector<std::string>& stored,
                                    const std::string& id_prefix) {
  Rng rng(seed);
  std::vector<StreamLine> out;
  std::vector<std::string> bodies;  // valid bodies so far, in order
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = id_prefix + std::to_string(i);
    const std::size_t roll = rng.below(1000);
    StreamLine line;
    std::string body;
    // Bands: 2% invalid, 10% duplicate, 44% stored, 44% repeat, and every
    // kNewEvery-th line (the first one included) is new. Without an
    // earlier stream the stored band is new work too.
    if (i % kNewEvery != 0 && roll < 20) {
      line.kind = LineKind::Invalid;
      const MachineInfo& m = machines[rng.below(machines.size())];
      auto [text, code] =
          invalid_line(rng, id, fresh_body(rng, machines, kernels), m);
      line.text = std::move(text);
      line.expect_error = std::move(code);
      out.push_back(std::move(line));
      continue;
    }
    if (i % kNewEvery == 0 || (roll >= 120 && roll < 560 && stored.empty())) {
      line.kind = LineKind::New;
      body = fresh_body(rng, machines, kernels);
    } else if (roll < 120) {
      line.kind = LineKind::Duplicate;
      const std::size_t back =
          1 + rng.below(std::min<std::size_t>(3, bodies.size()));
      body = bodies[bodies.size() - back];
    } else if (roll < 560) {
      line.kind = LineKind::Stored;
      body = stored[rng.below(stored.size())];
    } else {
      line.kind = LineKind::Repeat;
      body = bodies[rng.below(bodies.size())];
    }
    bodies.push_back(body);
    line.text = "{\"id\":" + quoted(id) + "," + body + "}";
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace perfbench
