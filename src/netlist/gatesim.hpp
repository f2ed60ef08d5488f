/// \file gatesim.hpp
/// Event-free levelized gate-level simulator with 4-state values.
///
/// The simulator is cycle-accurate: `eval()` settles all combinational
/// logic (cells are processed in levelized topological order, so one pass
/// suffices), `tick()` is the rising clock edge updating every flip-flop.
/// Tri-state nets (multiple Tribuf drivers) are resolved with the IEEE-1164
/// rules from util/logic.hpp.
///
/// GateSim advances one pattern per eval pass; PackedGateSim
/// (packed_gatesim.hpp) advances 64. Both share the levelization through
/// LevelizedNetlist, so several simulators of the same design levelize once.
///
/// GateSim is change-driven: every mutator that can alter a settled net —
/// an input set to a new value, a tick() that captures a different
/// flip-flop state, set_dff_state(), set_force()/clear_forces(), reset() —
/// marks the design dirty, and eval() on a clean design returns at once.
/// That is exact because the settled nets are a pure function of the
/// inputs, the flip-flop state and the forces: eval() re-seeds every net
/// from those three before sweeping, so a repeated sweep over unchanged
/// sources reproduces the values already held. sweep_stats() counts both
/// outcomes.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"
#include "util/logic.hpp"

namespace casbus::netlist {

/// Simulates one Netlist instance.
///
/// The simulator owns (a share of) the levelized design, so there is no
/// lifetime coupling with the caller. Construction from a Netlist levelizes
/// the design and throws SimulationError on combinational cycles.
class GateSim {
 public:
  explicit GateSim(Netlist nl);

  /// Shares an already-levelized design with other simulator instances.
  explicit GateSim(std::shared_ptr<const LevelizedNetlist> lev);

  /// Returns the simulated design.
  [[nodiscard]] const Netlist& design() const noexcept {
    return lev_->netlist();
  }

  /// The shared evaluation schedule (reusable by further simulators).
  [[nodiscard]] const std::shared_ptr<const LevelizedNetlist>& levelized()
      const noexcept {
    return lev_;
  }

  /// Sets every flip-flop to \p state and every primary input to X.
  void reset(Logic4 state = Logic4::Zero);

  /// Drives primary input \p name. Throws if the name is unknown.
  void set_input(const std::string& name, Logic4 v);
  void set_input(const std::string& name, bool v) {
    set_input(name, to_logic(v));
  }

  /// Drives primary input by position (order of declaration).
  void set_input_index(std::size_t index, Logic4 v);

  /// Propagates combinational logic; one levelized pass, skipped when no
  /// source changed since the last pass.
  void eval();

  /// Rising clock edge: every DFF captures, then combinational re-eval.
  void tick();

  /// The capture half of tick(): every DFF captures from the settled nets,
  /// which keep their pre-edge values until the next eval(). A caller that
  /// sets new inputs before it reads anything again saves tick()'s sweep.
  void capture();

  /// True when a source changed since the last sweep, i.e. the next
  /// eval() sweeps and the settled nets may be out of date.
  [[nodiscard]] bool stale() const noexcept { return dirty_; }

  /// Convenience: eval() has already been called when reading outputs.
  [[nodiscard]] Logic4 output(const std::string& name) const;
  [[nodiscard]] Logic4 output_index(std::size_t index) const {
    CASBUS_REQUIRE(index < output_net_.size(), "output index out of range");
    return net_val_[output_net_[index]];
  }

  /// Raw net inspection (post-eval).
  [[nodiscard]] Logic4 net_value(NetId net) const {
    CASBUS_REQUIRE(net < nl().net_count(), "net_value: invalid net");
    return net_val_[net];
  }

  /// Number of flip-flops, in cell order.
  [[nodiscard]] std::size_t dff_count() const noexcept {
    return lev_->dff_cells().size();
  }
  [[nodiscard]] Logic4 dff_state(std::size_t i) const {
    return dff_state_.at(i);
  }
  void set_dff_state(std::size_t i, Logic4 v);

  /// Combinational depth (max cell level) — reported by the generator
  /// benches as the switch's critical path in gate stages.
  [[nodiscard]] std::size_t depth() const noexcept { return lev_->depth(); }

  // --- fault injection (used by tpg::FaultSimulator) ------------------------

  /// Forces \p net to \p v during every subsequent eval(), modeling a
  /// stuck-at fault at that net. Multiple forces may be active.
  void set_force(NetId net, Logic4 v);

  /// Removes all active forces.
  void clear_forces();

  /// eval() outcomes since construction: full sweeps run, and calls that
  /// returned at once because no source had changed.
  struct SweepStats {
    std::uint64_t run = 0;
    std::uint64_t skipped = 0;
  };
  [[nodiscard]] const SweepStats& sweep_stats() const noexcept {
    return sweeps_;
  }

 private:
  /// One combinational cell, flattened in levelized order for the sweep.
  struct Op {
    CellKind kind;
    bool tri;  ///< the output is a tri-state net (drivers resolve)
    std::array<NetId, 3> in;  ///< unused pins read the pad net
    NetId out;
  };

  [[nodiscard]] bool has_forces() const noexcept { return n_forces_ > 0; }
  [[nodiscard]] const Netlist& nl() const noexcept { return lev_->netlist(); }

  std::shared_ptr<const LevelizedNetlist> lev_;
  std::vector<Op> ops_;
  std::vector<Logic4> seed_;       // per-net start of a sweep: Z (tri) or X,
                                   // plus the pad net after the last net
  std::vector<NetId> input_net_;   // per primary input
  std::vector<NetId> dff_out_;     // per flip-flop, its Q net
  std::vector<NetId> output_net_;  // per primary output
  std::vector<Logic4> net_val_;
  std::vector<Logic4> input_val_;
  std::vector<Logic4> dff_state_;
  std::vector<Logic4> next_state_;  // tick() capture buffer
  std::vector<Logic4> force_;      // per-net forced value
  std::vector<bool> force_on_;     // per-net force active flag
  std::size_t n_forces_ = 0;
  bool dirty_ = true;              // a source changed since the last sweep
  SweepStats sweeps_;
};

}  // namespace casbus::netlist
