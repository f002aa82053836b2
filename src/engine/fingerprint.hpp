// Content-addressed fingerprints for the sweep engine's memoization
// cache. A cache key is the triple of 64-bit FNV-1a fingerprints of the
// machine descriptor, the kernel signature and the SimConfig; two
// evaluation points with equal fingerprints are guaranteed (up to hash
// collision, ~2^-64 per pair) to be the same pure-function input to
// Simulator::run and therefore to produce bit-identical TimeBreakdowns.
//
// The machine fingerprint is built from the INI serialization
// (machine::to_ini) *plus* a bit-exact encoding of every numeric field:
// the INI text makes the fingerprint content-addressed in the same form
// users feed to the tools, while the raw field bits catch differences
// the 6-significant-digit INI formatting would flatten (e.g. two L1
// sizes inside the same KiB).
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "core/signature.hpp"
#include "machine/descriptor.hpp"
#include "sim/config.hpp"

namespace sgp::engine {

/// Incremental 64-bit FNV-1a hasher.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) noexcept;
  void str(std::string_view s) noexcept { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void i32(std::int32_t v) noexcept { bytes(&v, sizeof v); }
  void f64(double v) noexcept;  ///< hashes the bit pattern
  void flag(bool v) noexcept { u64(v ? 1u : 0u); }

  std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

/// Fingerprint of everything Simulator::run reads from the descriptor.
std::uint64_t machine_fingerprint(const machine::MachineDescriptor& m);

/// Fingerprint of every field of a kernel signature (not just its name,
/// so mutated copies of a registry signature key separately).
std::uint64_t signature_fingerprint(const core::KernelSignature& sig);

/// Fingerprint of a SimConfig.
std::uint64_t config_fingerprint(const sim::SimConfig& cfg);

/// Interns machine and signature fingerprints by object address, so a
/// descriptor that feeds hundreds of batches is hashed once. Each entry
/// stores a copy of the object it hashed next to the fingerprint, and a
/// lookup hits only when that copy == the argument: a reused address or
/// a mutated object is hashed afresh. The values are exactly
/// machine_fingerprint / signature_fingerprint, so persisted keys do not
/// change. Thread-safe; each map is dropped once it reaches kMaxEntries,
/// which bounds a long-lived engine fed from ever-new addresses.
class FingerprintMemo {
 public:
  static constexpr std::size_t kMaxEntries = 4096;

  std::uint64_t machine(const machine::MachineDescriptor& m);
  std::uint64_t signature(const core::KernelSignature& sig);
  void clear();

 private:
  template <class T>
  struct Entry {
    T copy;
    std::uint64_t fp = 0;
  };
  template <class T>
  using Map = std::unordered_map<const T*, Entry<T>>;

  template <class T, class Hash>
  std::uint64_t intern(Map<T>& map, const T& obj, Hash hash);

  std::mutex mu_;
  Map<machine::MachineDescriptor> machines_;
  Map<core::KernelSignature> signatures_;
};

}  // namespace sgp::engine
