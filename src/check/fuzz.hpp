// Property-based fuzzing of the model invariants: random-but-valid
// machine descriptors (the generator that started life in
// tests/random_machines_test.cpp, now a library so the check CLI and
// the tests share it) replayed through the InvariantChecker.
#pragma once

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "machine/descriptor.hpp"

namespace sgp::check {

struct FuzzOptions {
  FuzzOptions() {
    // The scalar floor is a calibration property of the paper machines:
    // a random descriptor may pair a strong scalar core with a weak
    // vector unit, making the vector path legitimately slower.
    check.scalar_floor = false;
  }

  CheckOptions check;
  /// Representative kernels: bandwidth-bound, compute-bound, reduction.
  std::vector<std::string> kernels{"TRIAD", "GEMM", "DOT"};
};

/// Deterministic random-but-valid machine descriptor for `seed`.
machine::MachineDescriptor random_machine(unsigned seed);

/// Replays the single-point and thread-monotonicity invariants over
/// `num_seeds` random machines starting at `first_seed`, across both
/// precisions, all placements, and serial/half/full thread counts.
/// `jobs` shards the seeds over a ThreadPool (0 = one per hardware
/// thread); per-seed reports are merged in seed order, so the report is
/// byte-identical to a serial run regardless of the worker count.
CheckReport fuzz_invariants(unsigned first_seed, unsigned num_seeds,
                            const FuzzOptions& opt = {}, int jobs = 1);

/// Replays every access pattern through both cachesim replay paths —
/// the legacy vector-materialized reference and the arena-decoded
/// batch/stream engine with steady-state early exit — on machine `m`
/// (plus FIFO and write-around config perturbations of its hierarchy)
/// and demands bit-identical per-level CacheStats, DRAM bytes, access
/// counts and steady miss rates (invariant "cachesim-replay-agreement").
CheckReport cachesim_agreement(const machine::MachineDescriptor& m);

/// cachesim_agreement over `num_seeds` random machines starting at
/// `first_seed`, sharded over `jobs` workers with deterministic
/// seed-order merging like fuzz_invariants.
CheckReport fuzz_cachesim(unsigned first_seed, unsigned num_seeds,
                          int jobs = 1);

/// Fuzzes the durable-segment parser (engine/persist.hpp): per seed,
/// builds a random-but-valid segment of encoded cache entries, checks
/// it round-trips byte-identically, then applies a seeded mutation
/// (truncation, bit flip, version bump, magic corruption, trailing
/// garbage) and demands the loader detect it — never crash, never
/// deliver a payload from a bad segment, classify deterministically,
/// and quarantine corrupt files on disk (invariant
/// "persist-segment-robustness"). Scratch files live under `dir`
/// (created if missing, one file per seed so shards never collide).
CheckReport fuzz_segments(unsigned first_seed, unsigned num_seeds,
                          const std::string& dir, int jobs = 1);

/// Fuzzes the sgp-serve request parser (serve/protocol.hpp): per seed,
/// builds a random-but-valid request line, checks it parses cleanly,
/// then applies a seeded mutation (truncation, byte garbage, bad
/// UTF-8, unknown fields, duplicate keys, oversized payloads) and
/// demands the parser never crash, classify deterministically (two
/// parses of the same bytes agree exactly), and on failure produce a
/// structured error whose rendered response line is itself valid JSON
/// (invariant "serve-request-robustness").
CheckReport fuzz_requests(unsigned first_seed, unsigned num_seeds,
                          int jobs = 1);

/// Fuzzes the machine INI serializer/parser and the machine registry
/// (invariant "machine-ini-roundtrip"): per seed, a random machine must
/// round-trip byte-identically through to_ini/from_ini — including a
/// heterogeneous-cluster variant, which exercises the explicit
/// cluster.N membership form — corrupted texts (duplicate section
/// header, duplicate key, empty value) must be rejected with a
/// line-localised error, and the descriptor must register and resolve
/// through a MachineRegistry.
CheckReport fuzz_ini_roundtrip(unsigned first_seed, unsigned num_seeds,
                               int jobs = 1);

/// Fuzzes the batched evaluation paths against the scalar oracle
/// (invariant "sim-batch-identity"): per seed, a random machine runs
/// ragged random batches — empty, single-point and larger mixed-kernel
/// grids — through (a) per-point Simulator::run, (b) a reused
/// EvalContext + Simulator::run_batch, and (c) SweepEngine::run_batch
/// twice (memo-miss pass, then the memo-hit replay), and demands every
/// TimeBreakdown field match bit-for-bit across all paths.
CheckReport fuzz_batch_identity(unsigned first_seed, unsigned num_seeds,
                                int jobs = 1);

}  // namespace sgp::check
