#include "sim/eval_context.hpp"

#include <stdexcept>

#include "sim/pattern.hpp"
#include "sim/simulator.hpp"

namespace sgp::sim {

EvalContext::EvalContext(const Simulator& sim,
                         const core::KernelSignature& sig)
    : sim_(&sim), sig_(&sig) {
  // Same validation (and exception text) as the scalar entry point, so
  // a malformed signature fails identically through either path.
  if (sig.iters_per_rep <= 0.0 || sig.reps <= 0.0 ||
      sig.working_set_elems <= 0.0) {
    throw std::invalid_argument("Simulator::run: malformed signature for " +
                                sig.name);
  }
  if (sig.seq_fraction < 0.0 || sig.seq_fraction > 1.0) {
    throw std::invalid_argument("Simulator::run: bad seq_fraction for " +
                                sig.name);
  }
  pattern_bw_eff_ = pattern_bandwidth_efficiency(sig.pattern);
  for (const auto prec : core::all_precisions) {
    const auto i = static_cast<std::size_t>(prec);
    ws_bytes_[i] = sig.working_set_bytes(prec);
    streamed_bytes_per_iter_[i] = sig.streamed_bytes_per_iter(prec);
  }
}

std::size_t EvalContext::combo_index(const SimConfig& cfg) noexcept {
  return (static_cast<std::size_t>(cfg.precision) * kCompilers +
          static_cast<std::size_t>(cfg.compiler)) *
             kModes +
         static_cast<std::size_t>(cfg.vector_mode);
}

void EvalContext::prepare(std::span<const SimConfig> cfgs) {
  for (const SimConfig& cfg : cfgs) {
    // Thread range before the combo, preserving Simulator::run's
    // exception precedence.
    if (cfg.nthreads < 1 || cfg.nthreads > sim_->m_.num_cores) {
      throw std::invalid_argument("Simulator::run: nthreads out of range");
    }
    Combo& c = combos_[combo_index(cfg)];
    if (c.ready) continue;
    c.plan = compiler::plan(*sig_, cfg.precision, cfg.compiler,
                            cfg.vector_mode, sim_->m_);
    c.cost = sim_->core_.cycles_per_iteration(*sig_, c.plan, cfg.precision);
    c.ready = true;
  }
}

const EvalContext::Combo& EvalContext::combo(const SimConfig& cfg) const {
  const Combo& c = combos_[combo_index(cfg)];
  if (!c.ready) {
    throw std::logic_error(
        "Simulator::run_batch: context not prepared for this config");
  }
  return c;
}

}  // namespace sgp::sim
