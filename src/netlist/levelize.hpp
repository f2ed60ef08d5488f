/// \file levelize.hpp
/// Shared levelization of a netlist for one-pass combinational evaluation.
///
/// Both simulators (scalar GateSim and 64-wide PackedGateSim) need the same
/// preprocessing: a topological order of the combinational cells, the list
/// of sequential cells and the tri-state net set. LevelizedNetlist computes
/// it once; simulators share one instance via shared_ptr, so a
/// fault-simulation campaign levelizes its design a single time no matter
/// how many simulator instances it spins up, and the structural linter
/// (verify::lint_netlist) takes its combinational-cycle answer from it.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace casbus::netlist {

/// Combinational cells of a design in evaluation order, as Kahn's
/// algorithm places them.
struct CombOrder {
  /// Placed cells, inputs before readers. Cells on or downstream of a
  /// combinational cycle are never placed.
  std::vector<CellId> order;
  /// Combinational depth of the placed cells (max cell level).
  std::size_t depth = 0;
};

/// Kahn's algorithm over the combinational cells of a design with
/// \p n_nets nets — the one topological sort behind LevelizedNetlist and
/// the linter's comb-cycle rule. A net is ready when all of its
/// combinational drivers have been placed; source nets (primary inputs,
/// flip-flop outputs, undriven nets) are ready from the start. When
/// \p usable is non-empty, cells it marks false take no part (the linter
/// excludes malformed cells, whose pins may be out of range); otherwise
/// every pin must be a valid net.
[[nodiscard]] CombOrder order_comb_cells(std::size_t n_nets,
                                         std::span<const Cell> cells,
                                         const std::vector<bool>& usable = {});

/// A netlist plus the precomputed evaluation schedule.
///
/// Construction levelizes the combinational cells (order_comb_cells); it
/// throws SimulationError, naming the nets on the loop, on combinational
/// cycles. The design is not validated again: every Netlist is validated
/// when it is built (NetlistBuilder::take, Netlist::from_raw). The object
/// is immutable afterwards and safe to share between simulators.
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

  /// Combinational depth (max cell level) — the critical path in gate
  /// stages, reported by the generator benches.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Position of primary input \p name; throws on unknown names. A linear
  /// scan of the ports: per-cycle paths drive by position instead.
  [[nodiscard]] std::size_t input_index(const std::string& name) const;

  /// Position of primary output \p name; throws on unknown names.
  [[nodiscard]] std::size_t output_index(const std::string& name) const;

 private:
  Netlist nl_;
  std::vector<CellId> comb_order_;
  std::vector<CellId> dff_cells_;
  std::vector<bool> net_is_tri_;
  std::size_t depth_ = 0;
};

/// Convenience: levelizes \p nl into a shareable immutable instance.
[[nodiscard]] std::shared_ptr<const LevelizedNetlist> levelize(Netlist nl);

}  // namespace casbus::netlist
