#include "cachesim/trace.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "cachesim/replay.hpp"

namespace sgp::cachesim {

Trace generate_sweep(const SweepSpec& spec) {
  // The cursor defines the canonical access order; flattening its run
  // stream keeps the materialized trace and the streaming replay
  // bit-for-bit the same sequence.
  TraceCursor cursor(spec);
  Trace trace;
  trace.reserve(cursor.total_accesses());
  AccessRun run;
  while (cursor.next(run)) {
    // The reserve above must be exact for every pattern — Gather's
    // index+data interleave included — so the flattening never
    // reallocates mid-build.
    assert(trace.size() + run.count <= cursor.total_accesses());
    Addr addr = run.base;
    for (std::uint64_t k = 0; k < run.count; ++k) {
      trace.push_back({addr, run.is_write});
      addr += run.step_bytes;
    }
  }
  assert(trace.size() == cursor.total_accesses());
  return trace;
}

std::vector<CacheConfig> hierarchy_configs(
    const machine::MachineDescriptor& m, int l2_sharers, int l3_sharers) {
  auto round_pow2 = [](std::size_t v) {
    std::size_t p = 1;
    while (p * 2 <= v) p *= 2;
    return p;
  };
  std::vector<CacheConfig> cfgs;
  CacheConfig l1;
  l1.name = "L1";
  l1.size_bytes = round_pow2(m.l1d.size_bytes);
  l1.line_bytes = static_cast<std::size_t>(m.l1d.line_bytes);
  l1.ways = 8;
  cfgs.push_back(l1);

  CacheConfig l2;
  l2.name = "L2";
  l2.size_bytes = round_pow2(
      m.l2.size_bytes / static_cast<std::size_t>(std::max(1, l2_sharers)));
  l2.line_bytes = static_cast<std::size_t>(m.l2.line_bytes);
  l2.ways = 8;
  cfgs.push_back(l2);

  if (m.l3.present()) {
    CacheConfig l3;
    l3.name = "L3";
    l3.size_bytes = round_pow2(
        m.l3.size_bytes / static_cast<std::size_t>(std::max(1, l3_sharers)));
    l3.line_bytes = static_cast<std::size_t>(m.l3.line_bytes);
    l3.ways = 16;
    cfgs.push_back(l3);
  }
  return cfgs;
}

}  // namespace sgp::cachesim
