/// \file core_model.hpp
/// Behavioral models of embedded IP cores, as seen from their wrapper.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/gatesim.hpp"
#include "sim/module.hpp"
#include "sim/simulation.hpp"
#include "tpg/synthcore.hpp"

namespace casbus::soc {

/// Core-side terminal wires every core model exposes; the wrapper connects
/// to exactly these (see p1500::CoreTestPorts / FunctionalPorts).
struct CoreTerminals {
  std::vector<sim::Wire*> func_in;   ///< functional inputs (wrapper drives)
  std::vector<sim::Wire*> func_out;  ///< functional outputs (wrapper reads)
  sim::Wire* scan_en = nullptr;
  sim::Wire* core_clk_en = nullptr;
  std::vector<sim::Wire*> scan_in;
  std::vector<sim::Wire*> scan_out;
  std::vector<std::size_t> chain_lengths;
  sim::Wire* bist_start = nullptr;
  sim::Wire* bist_done = nullptr;
  sim::Wire* bist_pass = nullptr;
};

/// Base class of all core models.
class CoreModel : public sim::Module {
 public:
  using sim::Module::Module;
  [[nodiscard]] const CoreTerminals& terminals() const noexcept {
    return term_;
  }
  [[nodiscard]] CoreTerminals& terminals() noexcept { return term_; }

  /// Sweeps run and skipped by the gate-level simulator inside this
  /// model; zeros for behavioural models.
  [[nodiscard]] virtual netlist::GateSim::SweepStats sweep_stats()
      const noexcept {
    return {};
  }

 protected:
  CoreTerminals term_;
};

/// Port indices of a tpg::SyntheticCore netlist, resolved once by name
/// (`pi<i>`, `scan_en`, `si<c>`, `po<o>`, `so<c>`) so the per-cycle paths
/// drive and read the simulator by position.
struct SynthPorts {
  SynthPorts(const netlist::LevelizedNetlist& lev,
             const tpg::SyntheticCoreSpec& spec);

  std::vector<std::size_t> pi;  ///< input index of pi<i>
  std::size_t scan_en = 0;      ///< input index of scan_en
  std::vector<std::size_t> si;  ///< input index of si<c>
  std::vector<std::size_t> po;  ///< output index of po<o>
  std::vector<std::size_t> so;  ///< output index of so<c>
};

/// Gate-level core: a tpg::SyntheticCore simulated cycle-accurately through
/// its own GateSim, with mux-D scan chains and a gated clock. This is the
/// model behind scannable cores (paper Fig. 2a) and externally-tested cores
/// (Fig. 2c — same core, different pattern source). tick() only captures
/// the flip-flops and wakes the model when their state changed, so each
/// cycle costs at most one gate-level sweep, run by evaluate().
class NetlistCore : public CoreModel {
 public:
  /// Creates terminal wires inside \p sim_ctx (named `<name>.<port>`)
  /// and registers nothing — the caller adds the module to the simulation.
  NetlistCore(sim::Simulation& sim_ctx, std::string name,
              tpg::SyntheticCore core);

  void evaluate() override;
  void tick() override;
  void reset() override;

  /// The generated core description (chains, spec).
  [[nodiscard]] const tpg::SyntheticCore& synth() const noexcept {
    return core_;
  }

  /// Embedded simulator — exposed for fault injection in experiments
  /// (tpg faults map 1:1 onto this netlist's nets). The mutable accessor
  /// wakes the model, so a force set through it reaches the output wires
  /// at the next settle.
  [[nodiscard]] netlist::GateSim& gatesim() noexcept {
    wake();
    return sim_;
  }
  [[nodiscard]] const netlist::GateSim& gatesim() const noexcept {
    return sim_;
  }

  [[nodiscard]] netlist::GateSim::SweepStats sweep_stats()
      const noexcept override {
    return sim_.sweep_stats();
  }

 private:
  tpg::SyntheticCore core_;
  netlist::GateSim sim_;
  SynthPorts ports_;
};

}  // namespace casbus::soc
