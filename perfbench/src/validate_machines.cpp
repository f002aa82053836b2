// validate_machines: one op runs the invariant oracle over every kernel
// for one registered machine. Ops rotate in registration order over the
// built-ins and the machines/*.ini packs, starting at seed % count, and
// the timed ops always cover whole rotations. This is the only workload
// on the scalar Simulator::run path and on cachesim stream replay.
#include <stdexcept>

#include "bench.hpp"
#include "check/invariants.hpp"
#include "kernels/register_all.hpp"

namespace perfbench {

namespace {

/// Invariant evaluations check_machine makes per machine with the
/// default options over the full suite: a change in the oracle's grid
/// or in a machine's shape shows up here as a failed op.
const std::map<std::string, std::uint64_t>& expected_points() {
  static const std::map<std::string, std::uint64_t> points = {
      {"sg2042", 4352},      {"visionfive-v1", 3721}, {"visionfive-v2", 4842},
      {"rome", 4347},        {"broadwell", 4377},     {"icelake", 4377},
      {"sandybridge", 4737}, {"d1", 2606},            {"sg2042-2s", 4292},
      {"sg2044", 4352},
  };
  return points;
}

}  // namespace

Outcome run_validate_machines(const Options& opt) {
  std::unique_ptr<Catalog> catalog;
  const auto sigs = sgp::kernels::all_signatures();
  const std::vector<std::string> names = build_catalog()->machines.names();
  sgp::check::CheckReport report;

  OpWorkload w;
  w.setup = [&] { catalog = build_catalog(); };
  w.op = [&](std::size_t i) {
    const std::string& name = names[(opt.seed + i) % names.size()];
    const sgp::machine::MachineDescriptor* m = nullptr;
    {
      const sgp::obs::Span span("machine.descriptor");
      m = &catalog->machines.descriptor(name);
    }
    const sgp::obs::Span span("check.check_machine");
    report = sgp::check::check_machine(*m, sigs, {}, kJobs);
  };
  w.verify = [&](std::size_t i, Outcome& out) {
    const std::string& name = names[(opt.seed + i) % names.size()];
    if (!report.ok()) {
      out.fail("validate_machines " + name + ": " +
               std::to_string(report.violations.size()) +
               " violations, first: " +
               sgp::check::to_string(report.violations.front()));
    } else if (const auto it = expected_points().find(name);
               it == expected_points().end() || it->second != report.points) {
      out.fail("validate_machines " + name + ": " +
               std::to_string(report.points) + " points, expected " +
               (it == expected_points().end() ? std::string("none")
                                              : std::to_string(it->second)));
    }
    return static_cast<double>(report.points);
  };
  w.window = names.size();
  return run_op_workload(opt, w);
}

}  // namespace perfbench
