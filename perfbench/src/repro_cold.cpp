// repro_cold: one op reproduces all 11 paper artifacts on a fresh
// SweepEngine, after clearing the best-threads memo — what every bench
// binary invocation pays. The input is the paper's fixed grid, so the
// seed does not change it.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "check/artifacts.hpp"
#include "engine/engine.hpp"
#include "experiments/experiments.hpp"
#include "kernels/register_all.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

std::unique_ptr<Catalog> build_catalog() {
  auto c = std::make_unique<Catalog>();
  sgp::machine::register_builtin_machines(c->machines);
  const auto report = c->machines.register_ini_dir("machines");
  if (!report.ok()) {
    throw std::runtime_error("machine pack " + report.errors[0].file +
                             ": " + report.errors[0].message);
  }
  sgp::kernels::register_all(c->kernels);
  return c;
}

Outcome run_repro_cold(const Options& opt) {
  namespace check = sgp::check;
  std::map<std::string, std::string> goldens;
  for (const auto& name : check::artifact_names()) {
    std::ifstream in("tests/golden/" + name + ".csv", std::ios::binary);
    if (!in) throw std::runtime_error("missing tests/golden/" + name + ".csv");
    std::ostringstream text;
    text << in.rdbuf();
    goldens[name] = text.str();
  }

  std::unique_ptr<Catalog> catalog;
  std::vector<check::Artifact> artifacts;
  OpWorkload w;
  w.setup = [&] { catalog = build_catalog(); };
  w.op = [&](std::size_t) {
    artifacts.clear();
    {
      const sgp::obs::Span span("experiments.reset_best_threads_memo");
      sgp::experiments::reset_best_threads_memo();
    }
    std::unique_ptr<sgp::engine::SweepEngine> eng;
    {
      const sgp::obs::Span span("engine.construct");
      sgp::engine::EngineOptions eo;
      eo.jobs = kJobs;
      eng = std::make_unique<sgp::engine::SweepEngine>(eo);
    }
    // check::run_all_artifacts, one span per artifact.
    for (const auto& name : check::artifact_names()) {
      const sgp::obs::Span span("experiments." + name);
      artifacts.push_back(check::run_artifact(name, *eng));
    }
    const sgp::obs::Span span("engine.destroy");
    eng.reset();
  };
  sgp::obs::Counter& requests = sgp::obs::registry().counter("engine.requests");
  std::uint64_t requests_seen = requests.value();
  w.verify = [&](std::size_t i, Outcome& out) {
    std::string why;
    if (artifacts.size() != goldens.size()) why = "missing artifacts";
    for (const auto& a : artifacts) {
      if (!why.empty()) break;
      const auto diff =
          check::diff_csv(goldens[a.name], a.csv.text(), a.policy);
      if (diff) why = a.name + ": " + check::to_string(*diff);
    }
    if (!why.empty()) {
      out.fail("repro_cold op " + std::to_string(i) + ": " + why);
    }
    const std::uint64_t now = requests.value();
    const double points = static_cast<double>(now - requests_seen);
    requests_seen = now;
    return points;
  };
  return run_op_workload(opt, w);
}

}  // namespace perfbench
