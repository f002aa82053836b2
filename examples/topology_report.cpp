// Topology report: an lscpu-style dump of any modelled machine,
// including the SG2042's interleaved NUMA core numbering that the paper
// discovered and exploited for thread placement.
//
//   ./topology_report [machine | file.ini]
// Export a template with: ./topology_report --export sg2042 > my.ini
#include <iostream>
#include <string>

#include <fstream>
#include <sstream>

#include "machine/descriptor.hpp"
#include "machine/serialize.hpp"
#include "machine/placement.hpp"
#include "report/table.hpp"

namespace {

sgp::machine::MachineDescriptor pick_machine(const std::string& name) {
  using namespace sgp::machine;
  if (name.size() > 4 && name.compare(name.size() - 4, 4, ".ini") == 0) {
    std::ifstream f(name);
    if (!f) throw std::invalid_argument("cannot open " + name);
    std::ostringstream ss;
    ss << f.rdbuf();
    return from_ini(ss.str());
  }
  if (name == "sg2042") return sg2042();
  if (name == "rome") return amd_rome();
  if (name == "broadwell") return intel_broadwell();
  if (name == "icelake") return intel_icelake();
  if (name == "sandybridge") return intel_sandybridge();
  if (name == "visionfive1") return visionfive_v1();
  if (name == "visionfive2") return visionfive_v2();
  throw std::invalid_argument("unknown machine: " + name);
}

std::string id_ranges(const std::vector<int>& ids) {
  std::string out;
  std::size_t i = 0;
  while (i < ids.size()) {
    std::size_t j = i;
    while (j + 1 < ids.size() && ids[j + 1] == ids[j] + 1) ++j;
    if (!out.empty()) out += ",";
    out += std::to_string(ids[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(ids[j]);
    }
    i = j + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgp;

  if (argc == 3 && std::string(argv[1]) == "--export") {
    std::cout << machine::to_ini(pick_machine(argv[2]));
    return 0;
  }
  const auto m = pick_machine(argc > 1 ? argv[1] : "sg2042");
  m.validate();

  std::cout << "Machine:        " << m.name << "\n";
  std::cout << "Cores:          " << m.num_cores << " @ "
            << m.core.clock_ghz << " GHz ("
            << (m.core.out_of_order ? "out-of-order" : "in-order")
            << ", decode " << m.core.decode_width << ")\n";
  if (m.core.vector) {
    std::cout << "Vector:         " << m.core.vector->isa << ", "
              << m.core.vector->width_bits << "-bit, FP32 "
              << (m.core.vector->fp32 ? "yes" : "no") << ", FP64 "
              << (m.core.vector->fp64 ? "yes" : "no") << "\n";
  } else {
    std::cout << "Vector:         none\n";
  }
  std::cout << "L1d:            " << m.l1d.size_bytes / 1024
            << " KB private\n";
  std::cout << "L2:             " << m.l2.size_bytes / 1024
            << " KB shared by " << m.l2.shared_by << " core(s)\n";
  if (m.l3.present()) {
    std::cout << "L3:             " << m.l3.size_bytes / (1024 * 1024)
              << " MB shared by " << m.l3.shared_by << " core(s)"
              << (m.l3_memory_side ? " (memory-side system cache)" : "")
              << "\n";
  } else {
    std::cout << "L3:             none\n";
  }
  std::cout << "Memory:         " << report::Table::num(m.total_mem_bw_gbs(), 0)
            << " GB/s sustained over " << m.numa.size()
            << " NUMA region(s)\n\n";

  report::Table numa({"NUMA region", "core ids", "controllers", "GB/s"});
  for (std::size_t r = 0; r < m.numa.size(); ++r) {
    numa.add_row({std::to_string(r), id_ranges(m.numa[r].cores),
                  std::to_string(m.numa[r].controllers),
                  report::Table::num(m.numa[r].mem_bw_gbs, 1)});
  }
  std::cout << numa.render() << "\n";

  if (m.name.find("SG2042") != std::string::npos) {
    std::cout
        << "Note the interleaved numbering: each region holds two\n"
           "non-adjacent blocks of eight core ids. Block placement of 32\n"
           "threads therefore lands on just two regions (two memory\n"
           "controllers) -- the Table 1 pathology in the paper.\n\n";
  }

  std::cout << "Example placements of 8 threads:\n";
  report::Table pl({"policy", "cores"});
  for (const auto p : machine::all_placements) {
    if (m.num_cores < 8) break;
    std::vector<int> cores = machine::assign_cores(m, p, 8);
    std::string s;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      if (i) s += ", ";
      s += std::to_string(cores[i]);
    }
    pl.add_row({std::string(machine::to_string(p)), s});
  }
  std::cout << pl.render();
  return 0;
}
