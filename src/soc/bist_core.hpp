/// \file bist_core.hpp
/// A core with embedded logic BIST (paper Fig. 2b: "For BISTed cores, P is
/// generally equal to 1").

#pragma once

#include <cstdint>
#include <optional>

#include "soc/core_model.hpp"
#include "tpg/lfsr.hpp"

namespace casbus::soc {

/// Gate-level core driven by an internal LFSR source and observed by an
/// internal MISR sink. One test-bus wire suffices: it carries the start
/// level toward the core and the (done && pass) verdict back.
///
/// The golden signature is the engine's signature on the fault-free
/// netlist — what a BIST insertion flow would tape into the comparator
/// ROM. It is computed when first needed: a session run without injected
/// faults is that reference run, so its signature is taken as the golden
/// one; otherwise a separate fault-free GateSim over the same design runs
/// the reference.
class BistCore : public CoreModel {
 public:
  /// \p cycles is the BIST session length in clock cycles.
  BistCore(sim::Simulation& sim_ctx, std::string name,
           const tpg::SyntheticCoreSpec& logic_spec, std::uint32_t cycles);

  void evaluate() override;
  void tick() override;
  void reset() override;

  /// Injects a stuck-at fault into the core logic so the next BIST run
  /// fails (used by the maintenance-test experiments).
  void inject_fault(netlist::NetId net, bool stuck_one);
  void clear_faults();

  /// Fault-free signature (diagnostic). Before a clean session has ended,
  /// the first call runs the reference session (not thread-safe).
  [[nodiscard]] std::uint32_t golden_signature() const;

  /// Session length in cycles — the test programmer's wait budget.
  [[nodiscard]] std::uint32_t cycles() const noexcept { return cycles_; }

  /// The embedded logic core (netlist + scan topology) — inspected by the
  /// floor's Verify stage, which lints every generated netlist it admits.
  [[nodiscard]] const tpg::SyntheticCore& synth() const noexcept {
    return core_;
  }

  [[nodiscard]] netlist::GateSim::SweepStats sweep_stats()
      const noexcept override {
    return sim_.sweep_stats();
  }

 private:
  /// One BIST cycle on \p sim: applies the LFSR word, compacts the
  /// response into the MISR, clocks the core and advances the LFSR.
  void bist_cycle(netlist::GateSim& sim, tpg::Lfsr& lfsr,
                  tpg::Misr& misr) const;

  tpg::SyntheticCore core_;
  netlist::GateSim sim_;
  std::uint32_t cycles_;
  unsigned lfsr_width_;
  unsigned misr_width_;
  mutable std::optional<std::uint32_t> golden_;

  // Engine state.
  bool forced_ = false;         ///< sim_ holds injected faults
  bool session_clean_ = false;  ///< no fault was forced this session
  bool running_ = false;
  bool done_ = false;
  bool pass_ = false;
  bool start_seen_ = false;
  std::uint32_t elapsed_ = 0;
  std::optional<tpg::Lfsr> lfsr_;
  std::optional<tpg::Misr> misr_;
};

}  // namespace casbus::soc
