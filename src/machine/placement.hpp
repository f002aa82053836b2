// Thread-to-core placement policies studied in Section 3.2 of the paper.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "machine/descriptor.hpp"

namespace sgp::machine {

/// The three OMP_PROC_BIND-style policies the paper evaluates.
enum class Placement {
  /// Threads map contiguously to core ids (thread i -> core i). Table 1.
  Block,
  /// Threads cycle round NUMA regions, contiguous inside a region
  /// (4 threads -> cores 0, 8, 32, 40 on the SG2042). Table 2.
  CyclicNuma,
  /// Threads cycle round NUMA regions *and*, inside each region, round
  /// the four-core L2 clusters (8 threads -> 0, 8, 32, 40, 16, 24, 48,
  /// 56 on the SG2042). Table 3.
  ClusterCyclic,
};

inline constexpr std::array<Placement, 3> all_placements{
    Placement::Block, Placement::CyclicNuma, Placement::ClusterCyclic};

constexpr std::string_view to_string(Placement p) noexcept {
  switch (p) {
    case Placement::Block:         return "block";
    case Placement::CyclicNuma:    return "cyclic";
    case Placement::ClusterCyclic: return "cluster";
  }
  return "?";
}

/// Core ids assigned to threads 0..nthreads-1 under a policy. Every
/// policy is a prefix of its full-machine order: the result is the first
/// nthreads entries of assign_cores(m, p, m.num_cores).
/// Throws std::invalid_argument if nthreads is not in [1, num_cores].
std::vector<int> assign_cores(const MachineDescriptor& m, Placement p,
                              int nthreads);

/// Occupancy summary of an assignment; the performance model consumes
/// this rather than raw core ids.
struct PlacementStats {
  std::vector<int> threads_per_numa;     ///< indexed by NUMA region
  std::vector<int> threads_per_cluster;  ///< indexed by cluster
  int regions_spanned = 0;   ///< NUMA regions with >= 1 thread
  int max_per_numa = 0;
  int max_per_cluster = 0;
};

PlacementStats analyze(const MachineDescriptor& m,
                       const std::vector<int>& cores);

}  // namespace sgp::machine
