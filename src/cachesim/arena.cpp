#include "cachesim/arena.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "cachesim/replay.hpp"

namespace sgp::cachesim {

namespace {
constexpr std::uint32_t kCountMax =
    std::numeric_limits<std::uint32_t>::max();

/// Appends n same-line accesses at `addr`, fusing into the previous
/// segment when it covers the same line and the order stays exact:
/// writes always merge; reads merge only while the segment has no
/// writes yet (a read after a write must stay a separate segment so
/// the reads-before-writes layout never reorders accesses).
inline void append_accesses(std::vector<LineSegment>& segs, Addr line_mask,
                            Addr addr, std::uint64_t n, bool is_write) {
  while (n > 0) {
    const auto chunk =
        static_cast<std::uint32_t>(n < kCountMax ? n : kCountMax);
    if (!segs.empty()) {
      LineSegment& p = segs.back();
      if (((p.addr ^ addr) & line_mask) == 0) {
        if (is_write) {
          if (p.writes <= kCountMax - chunk) {
            p.writes += chunk;
            n -= chunk;
            continue;
          }
        } else if (p.writes == 0 && p.reads <= kCountMax - chunk) {
          p.reads += chunk;
          n -= chunk;
          continue;
        }
      }
    }
    segs.push_back(is_write ? LineSegment{addr, 0, chunk}
                            : LineSegment{addr, chunk, 0});
    n -= chunk;
  }
}
}  // namespace

void decode_sweep(const SweepSpec& spec, std::size_t line_bytes,
                  DecodedSweep& out) {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument("decode_sweep: line_bytes not a power of two");
  }
  const Addr line_mask = ~(static_cast<Addr>(line_bytes) - 1);
  TraceCursor cursor(spec);
  out.segments.clear();
  out.runs = 0;
  out.accesses = 0;
  AccessRun run;
  while (cursor.next(run)) {
    ++out.runs;
    out.accesses += run.count;
    Addr addr = run.base;
    std::uint64_t left = run.count;
    while (left > 0) {
      std::uint64_t n = left;
      if (run.step_bytes != 0) {
        const Addr line_end = addr - addr % line_bytes + line_bytes;
        const std::uint64_t fit =
            (line_end - 1 - addr) / run.step_bytes + 1;
        n = std::min(left, fit);
      }
      append_accesses(out.segments, line_mask, addr, n, run.is_write);
      addr += n * run.step_bytes;
      left -= n;
    }
  }
  // The decode must account for every access the cursor promises —
  // this is the batch-path analogue of generate_sweep's exact reserve.
  assert(out.accesses == cursor.total_accesses());
  out.spec = spec;
  out.line_bytes = line_bytes;
  out.valid = true;
}

const DecodedSweep& ReplayArena::decoded(const SweepSpec& spec,
                                         std::size_t line_bytes) {
  // Fixed capacity: growing must never reallocate, or the references
  // handed out for still-cached slots would dangle.
  if (slots_.capacity() < kSlots) slots_.reserve(kSlots);
  ++use_clock_;
  DecodedSweep* lru = nullptr;
  for (auto& slot : slots_) {
    if (slot.valid && slot.line_bytes == line_bytes && slot.spec == spec) {
      slot.last_used = use_clock_;
      return slot;
    }
    if (lru == nullptr || slot.last_used < lru->last_used) lru = &slot;
  }
  if (slots_.size() < kSlots) {
    slots_.emplace_back();
    lru = &slots_.back();
  }
  decode_sweep(spec, line_bytes, *lru);
  lru->last_used = use_clock_;
  return *lru;
}

ReplayArena& ReplayArena::thread_default() {
  thread_local ReplayArena arena;
  return arena;
}

}  // namespace sgp::cachesim
