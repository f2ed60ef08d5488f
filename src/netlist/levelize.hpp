/// \file levelize.hpp
/// Shared levelization of a netlist for one-pass combinational evaluation.
///
/// Both simulators (scalar GateSim and 64-wide PackedGateSim) need the same
/// preprocessing: a topological order of the combinational cells, the list
/// of sequential cells, the tri-state net set and the port index maps.
/// LevelizedNetlist computes it once; simulators share one instance via
/// shared_ptr, so a fault-simulation campaign levelizes its design a single
/// time no matter how many simulator instances it spins up.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/csr.hpp"

namespace casbus::netlist {

/// A validated netlist plus the precomputed evaluation schedule.
///
/// Construction validates the design and levelizes its combinational cells
/// (Kahn's algorithm); it throws SimulationError on combinational cycles.
/// The object is immutable afterwards and safe to share between simulators.
class LevelizedNetlist {
 public:
  /// Takes its own copy of the design (move it in to avoid the copy).
  explicit LevelizedNetlist(Netlist nl);

  [[nodiscard]] const Netlist& netlist() const noexcept { return nl_; }

  /// Combinational cells in evaluation order (inputs before readers).
  [[nodiscard]] const std::vector<CellId>& comb_order() const noexcept {
    return comb_order_;
  }

  /// Sequential cells (Dff/Dffe) in netlist order.
  [[nodiscard]] const std::vector<CellId>& dff_cells() const noexcept {
    return dff_cells_;
  }

  /// True when \p net has at least one tri-state driver.
  [[nodiscard]] bool net_is_tri(NetId net) const {
    return net_is_tri_[net];
  }

  /// Combinational cells reading \p net (the fanout list), in cell order.
  /// A cell reading the same net on two pins appears twice; event-driven
  /// evaluation dedups via its per-cell dirty flag.
  [[nodiscard]] std::span<const CellId> readers(NetId net) const {
    return readers_[net];
  }

  /// Combinational cells driving \p net, in cell order. At most one entry
  /// unless the net is tri-state (wired: several Tribufs).
  [[nodiscard]] std::span<const CellId> comb_drivers(NetId net) const {
    return comb_drivers_[net];
  }

  /// Evaluation level of a combinational cell: 1 + max level of its input
  /// nets, so every reader sits strictly above all drivers of its inputs.
  /// Sequential cells report level 0 (their outputs are sources).
  [[nodiscard]] std::size_t cell_level(CellId id) const {
    return cell_level_[id];
  }

  /// Combinational depth (max cell level) — the critical path in gate
  /// stages, reported by the generator benches.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Position of primary input \p name; throws on unknown names.
  [[nodiscard]] std::size_t input_index(const std::string& name) const;

  /// Position of primary output \p name; throws on unknown names.
  [[nodiscard]] std::size_t output_index(const std::string& name) const;

 private:
  void levelize();

  Netlist nl_;
  std::vector<CellId> comb_order_;
  std::vector<CellId> dff_cells_;
  std::vector<bool> net_is_tri_;
  Csr<CellId> readers_;       // per net, its combinational reader cells
  Csr<CellId> comb_drivers_;  // per net, its combinational driver cells
  std::vector<std::size_t> cell_level_;
  std::unordered_map<std::string, std::size_t> input_index_;
  std::unordered_map<std::string, std::size_t> output_index_;
  std::size_t depth_ = 0;
};

/// Convenience: levelizes \p nl into a shareable immutable instance.
[[nodiscard]] std::shared_ptr<const LevelizedNetlist> levelize(Netlist nl);

}  // namespace casbus::netlist
