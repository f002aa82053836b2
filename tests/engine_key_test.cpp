// Cache-key fingerprints: every model-relevant field of a machine
// descriptor, kernel signature and SimConfig must feed the fingerprint,
// so two evaluation points differing in any single field never share a
// cache slot. Also: serializing a machine and parsing it back must not
// change its fingerprint (content-addressing is stable across the INI
// round trip).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "engine/fingerprint.hpp"
#include "kernels/register_all.hpp"
#include "machine/serialize.hpp"

namespace sgp::engine {
namespace {

using machine::MachineDescriptor;

struct Mutation {
  const char* what;
  std::function<void(MachineDescriptor&)> apply;
};

const std::vector<Mutation>& machine_mutations() {
  static const std::vector<Mutation> muts = {
      {"name", [](auto& m) { m.name += "-b"; }},
      {"clock_ghz", [](auto& m) { m.core.clock_ghz += 1e-7; }},
      {"decode_width", [](auto& m) { m.core.decode_width += 1; }},
      {"issue_width", [](auto& m) { m.core.issue_width += 1; }},
      {"out_of_order",
       [](auto& m) { m.core.out_of_order = !m.core.out_of_order; }},
      {"fp_pipes", [](auto& m) { m.core.fp_pipes += 1; }},
      {"fma", [](auto& m) { m.core.fma = !m.core.fma; }},
      {"mem_ports", [](auto& m) { m.core.mem_ports += 1; }},
      {"scalar_eff", [](auto& m) { m.core.scalar_eff += 1e-7; }},
      {"stream_bw_gbs", [](auto& m) { m.core.stream_bw_gbs += 1e-7; }},
      {"scalar_stream_derate",
       [](auto& m) { m.core.scalar_stream_derate -= 1e-7; }},
      {"vector.isa", [](auto& m) { m.core.vector->isa += "x"; }},
      {"vector.width_bits",
       [](auto& m) { m.core.vector->width_bits *= 2; }},
      {"vector.fp32", [](auto& m) { m.core.vector->fp32 = false; }},
      {"vector.fp64",
       [](auto& m) { m.core.vector->fp64 = !m.core.vector->fp64; }},
      {"vector.efficiency_fp32",
       [](auto& m) { m.core.vector->efficiency_fp32 += 1e-7; }},
      {"vector.efficiency_fp64",
       [](auto& m) { m.core.vector->efficiency_fp64 += 1e-7; }},
      {"vector removed", [](auto& m) { m.core.vector.reset(); }},
      // One byte inside the same KiB: invisible to the INI text (it
      // prints sizes at KiB granularity), so this is the case the
      // bit-exact field encoding exists for.
      {"l1d.size_bytes +1", [](auto& m) { m.l1d.size_bytes += 1; }},
      {"l1d.size_bytes +1KiB", [](auto& m) { m.l1d.size_bytes += 1024; }},
      {"l1d.line_bytes", [](auto& m) { m.l1d.line_bytes *= 2; }},
      {"l1d.shared_by", [](auto& m) { m.l1d.shared_by += 1; }},
      {"l1d.bw", [](auto& m) { m.l1d.bw_bytes_per_cycle += 1e-7; }},
      {"l1d.latency", [](auto& m) { m.l1d.latency_cycles += 1e-7; }},
      {"l2.size_bytes +1", [](auto& m) { m.l2.size_bytes += 1; }},
      {"l3.size_bytes +1", [](auto& m) { m.l3.size_bytes += 1; }},
      {"numa[0].mem_bw_gbs", [](auto& m) { m.numa[0].mem_bw_gbs += 1e-7; }},
      {"numa[0].controllers", [](auto& m) { m.numa[0].controllers += 1; }},
      {"numa[0].cores",
       [](auto& m) { std::swap(m.numa[0].cores, m.numa[1].cores); }},
      {"clusters",
       [](auto& m) { std::swap(m.clusters[0], m.clusters[1]); }},
      {"mem_latency_ns", [](auto& m) { m.mem_latency_ns += 1e-7; }},
      {"cluster_bw_gbs", [](auto& m) { m.cluster_bw_gbs += 1e-7; }},
      {"remote_numa_penalty",
       [](auto& m) { m.remote_numa_penalty += 1e-7; }},
      {"fork_join_us", [](auto& m) { m.fork_join_us += 1e-7; }},
      {"barrier_us_per_thread",
       [](auto& m) { m.barrier_us_per_thread += 1e-7; }},
      {"numa_span_sync_factor",
       [](auto& m) { m.numa_span_sync_factor += 1e-7; }},
      {"oversubscribe_gamma",
       [](auto& m) { m.oversubscribe_gamma += 1e-7; }},
      {"oversubscribe_knee",
       [](auto& m) { m.oversubscribe_knee += 1.0; }},
      {"l3_memory_side",
       [](auto& m) { m.l3_memory_side = !m.l3_memory_side; }},
      {"memory_derating", [](auto& m) { m.memory_derating += 1e-7; }},
      {"atomic_rtt_ns", [](auto& m) { m.atomic_rtt_ns += 1e-7; }},
  };
  return muts;
}

TEST(MachineFingerprint, EverySingleFieldMutationChangesIt) {
  const auto base = machine::sg2042();
  const auto base_fp = machine_fingerprint(base);
  std::set<std::uint64_t> seen{base_fp};
  for (const auto& mut : machine_mutations()) {
    auto m = base;
    mut.apply(m);
    const auto fp = machine_fingerprint(m);
    EXPECT_NE(fp, base_fp) << mut.what;
    // Pairwise distinct too: no two mutations may collide.
    EXPECT_TRUE(seen.insert(fp).second) << mut.what;
  }
}

TEST(MachineFingerprint, DeterministicAcrossCopies) {
  const auto a = machine::sg2042();
  const auto b = a;
  EXPECT_EQ(machine_fingerprint(a), machine_fingerprint(b));
}

TEST(MachineFingerprint, StableAcrossSerializeRoundTrip) {
  auto machines = machine::all_machines();
  machines.push_back(machine::allwinner_d1());
  for (const auto& m : machines) {
    const auto parsed = machine::from_ini(machine::to_ini(m));
    EXPECT_EQ(machine_fingerprint(parsed), machine_fingerprint(m))
        << m.name;
  }
}

TEST(MachineFingerprint, PaperMachinesAllDistinct) {
  std::set<std::uint64_t> seen;
  auto machines = machine::all_machines();
  machines.push_back(machine::allwinner_d1());
  for (const auto& m : machines) {
    EXPECT_TRUE(seen.insert(machine_fingerprint(m)).second) << m.name;
  }
}

struct SignatureMutation {
  const char* what;
  std::function<void(core::KernelSignature&)> apply;
};

const std::vector<SignatureMutation>& signature_mutations() {
  static const std::vector<SignatureMutation> muts = {
      {"name", [](auto& s) { s.name += "_X"; }},
      {"group",
       [](auto& s) {
         s.group = s.group == core::Group::Basic ? core::Group::Stream
                                                 : core::Group::Basic;
       }},
      {"iters_per_rep", [](auto& s) { s.iters_per_rep += 1.0; }},
      {"reps", [](auto& s) { s.reps += 1.0; }},
      {"parallel_regions",
       [](auto& s) { s.parallel_regions_per_rep += 1.0; }},
      {"seq_fraction", [](auto& s) { s.seq_fraction += 1e-7; }},
      {"mix.fadd", [](auto& s) { s.mix.fadd += 1.0; }},
      {"mix.ffma", [](auto& s) { s.mix.ffma += 1.0; }},
      {"mix.loads", [](auto& s) { s.mix.loads += 1.0; }},
      {"streamed_reads", [](auto& s) { s.streamed_reads_per_iter += 1.0; }},
      {"streamed_writes",
       [](auto& s) { s.streamed_writes_per_iter += 1.0; }},
      {"working_set", [](auto& s) { s.working_set_elems += 1.0; }},
      {"gcc.vectorizes",
       [](auto& s) { s.gcc.vectorizes = !s.gcc.vectorizes; }},
      {"gcc.efficiency", [](auto& s) { s.gcc.efficiency += 1e-7; }},
      {"clang.memory_efficiency",
       [](auto& s) { s.clang.memory_efficiency -= 1e-7; }},
      {"integer_dominated",
       [](auto& s) { s.integer_dominated = !s.integer_dominated; }},
      {"atomic", [](auto& s) { s.atomic = !s.atomic; }},
      {"recurrence", [](auto& s) { s.recurrence = !s.recurrence; }},
  };
  return muts;
}

TEST(SignatureFingerprint, FieldMutationsChangeIt) {
  const auto base = kernels::all_signatures().front();
  const auto base_fp = signature_fingerprint(base);
  std::set<std::uint64_t> seen{base_fp};
  for (const auto& mut : signature_mutations()) {
    auto s = base;
    mut.apply(s);
    const auto fp = signature_fingerprint(s);
    EXPECT_NE(fp, base_fp) << mut.what;
    EXPECT_TRUE(seen.insert(fp).second) << mut.what;
  }
}

TEST(SignatureFingerprint, SuiteSignaturesAllDistinct) {
  std::set<std::uint64_t> seen;
  for (const auto& s : kernels::all_signatures()) {
    EXPECT_TRUE(seen.insert(signature_fingerprint(s)).second) << s.name;
  }
}

TEST(ConfigFingerprint, FieldMutationsChangeIt) {
  sim::SimConfig base;
  const auto base_fp = config_fingerprint(base);
  std::set<std::uint64_t> seen{base_fp};

  auto check = [&](const char* what, auto mutate) {
    auto c = base;
    mutate(c);
    const auto fp = config_fingerprint(c);
    EXPECT_NE(fp, base_fp) << what;
    EXPECT_TRUE(seen.insert(fp).second) << what;
  };
  check("precision",
        [](auto& c) { c.precision = core::Precision::FP32; });
  check("compiler", [](auto& c) { c.compiler = core::CompilerId::Clang; });
  check("vector_mode",
        [](auto& c) { c.vector_mode = core::VectorMode::Scalar; });
  check("nthreads", [](auto& c) { c.nthreads = 2; });
  check("placement",
        [](auto& c) { c.placement = machine::Placement::ClusterCyclic; });
}

// The memo keys by address and hits only when its stored copy == the
// argument. Every single-field mutation, applied in place at the same
// address, must therefore miss and yield the fresh fingerprint; a field
// left out of operator== would return the stale one instead.
TEST(FingerprintMemo, ReusedAddressWithNewContentIsRehashed) {
  FingerprintMemo memo;
  auto m = machine::sg2042();
  for (const auto& mut : machine_mutations()) {
    m = machine::sg2042();
    EXPECT_EQ(memo.machine(m), machine_fingerprint(m)) << mut.what;
    mut.apply(m);
    EXPECT_EQ(memo.machine(m), machine_fingerprint(m)) << mut.what;
  }
  const auto base = kernels::all_signatures().front();
  auto s = base;
  for (const auto& mut : signature_mutations()) {
    s = base;
    EXPECT_EQ(memo.signature(s), signature_fingerprint(s)) << mut.what;
    mut.apply(s);
    EXPECT_EQ(memo.signature(s), signature_fingerprint(s)) << mut.what;
  }
}

TEST(FingerprintMemo, EqualObjectsAtDistinctAddressesShareTheValue) {
  FingerprintMemo memo;
  const auto a = machine::amd_rome();
  const auto b = a;
  EXPECT_EQ(memo.machine(a), memo.machine(b));
  EXPECT_EQ(memo.machine(a), machine_fingerprint(a));
  memo.clear();
  EXPECT_EQ(memo.machine(b), machine_fingerprint(b));
}

}  // namespace
}  // namespace sgp::engine
