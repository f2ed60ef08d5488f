#include "soc/core_model.hpp"

#include <string>

namespace casbus::soc {

namespace {
Logic4 as_logic(const sim::Wire* w) {
  // Core models are 2-valued internally at their boundary: Z/X read as X
  // and are clamped by the gate simulator's own semantics.
  return w == nullptr ? Logic4::X : w->get();
}
}  // namespace

SynthPorts::SynthPorts(const netlist::LevelizedNetlist& lev,
                       const tpg::SyntheticCoreSpec& spec)
    : scan_en(lev.input_index("scan_en")) {
  for (std::size_t i = 0; i < spec.n_inputs; ++i)
    pi.push_back(lev.input_index("pi" + std::to_string(i)));
  for (std::size_t c = 0; c < spec.n_chains; ++c) {
    si.push_back(lev.input_index("si" + std::to_string(c)));
    so.push_back(lev.output_index("so" + std::to_string(c)));
  }
  for (std::size_t o = 0; o < spec.n_outputs; ++o)
    po.push_back(lev.output_index("po" + std::to_string(o)));
}

NetlistCore::NetlistCore(sim::Simulation& sim_ctx, std::string name,
                         tpg::SyntheticCore core)
    : CoreModel(std::move(name)),
      core_(std::move(core)),
      sim_(core_.netlist),
      ports_(*sim_.levelized(), core_.spec) {
  const auto& spec = core_.spec;
  const auto wire = [&](const char* port, std::size_t i) {
    return &sim_ctx.wire(this->name() + port + std::to_string(i),
                         Logic4::Zero);
  };
  for (std::size_t i = 0; i < spec.n_inputs; ++i)
    term_.func_in.push_back(wire(".fin", i));
  for (std::size_t i = 0; i < spec.n_outputs; ++i)
    term_.func_out.push_back(wire(".fout", i));
  term_.scan_en = &sim_ctx.wire(this->name() + ".scan_en", Logic4::Zero);
  term_.core_clk_en =
      &sim_ctx.wire(this->name() + ".clk_en", Logic4::One);
  for (std::size_t c = 0; c < spec.n_chains; ++c) {
    term_.scan_in.push_back(wire(".si", c));
    term_.scan_out.push_back(wire(".so", c));
    term_.chain_lengths.push_back(core_.chains[c].size());
  }
  watch(term_.func_in);
  watch(term_.scan_en);
  watch(term_.scan_in);  // clk_en is read by tick() only
  sim_.reset();
}

void NetlistCore::evaluate() {
  const auto drive = [&](std::size_t index, const sim::Wire* w) {
    const Logic4 v = as_logic(w);
    sim_.set_input_index(index, is01(v) ? v : Logic4::Zero);
  };
  for (std::size_t i = 0; i < ports_.pi.size(); ++i)
    drive(ports_.pi[i], term_.func_in[i]);
  drive(ports_.scan_en, term_.scan_en);
  for (std::size_t c = 0; c < ports_.si.size(); ++c)
    drive(ports_.si[c], term_.scan_in[c]);
  sim_.eval();
  for (std::size_t o = 0; o < ports_.po.size(); ++o)
    term_.func_out[o]->set(sim_.output_index(ports_.po[o]));
  for (std::size_t c = 0; c < ports_.so.size(); ++c)
    term_.scan_out[c]->set(sim_.output_index(ports_.so[c]));
}

void NetlistCore::tick() {
  if (term_.core_clk_en->get() != Logic4::One) return;  // gated clock
  // Capture only: the next evaluate() sweeps once, on the new state and
  // the next cycle's inputs together.
  sim_.capture();
  if (sim_.stale()) wake();
}

void NetlistCore::reset() { sim_.reset(); }

}  // namespace casbus::soc
