/// \file netlist.hpp
/// Technology-independent gate-level netlist representation.
///
/// This module is the substitute for the commercial synthesis flow the paper
/// used (Synopsys Design Analyzer): the CAS generator in `src/core` emits
/// structural netlists made of the primitive cells below, which can then be
/// simulated (`GateSim`), optimized (`optimize()`), costed (`AreaModel`) and
/// exported to VHDL/Verilog (`emit_vhdl` / `emit_verilog`).

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace casbus::netlist {

/// Index of a net inside a Netlist.
using NetId = std::uint32_t;

/// Sentinel for "no net".
inline constexpr NetId kNoNet = std::numeric_limits<NetId>::max();

/// Index of a cell inside a Netlist.
using CellId = std::uint32_t;

/// Primitive cell library.
///
/// Fan-in is fixed per kind (see `fanin()`); wider functions are built by
/// the NetlistBuilder out of these primitives, mirroring what a synthesis
/// tool would map to a standard-cell library.
enum class CellKind : std::uint8_t {
  Const0,  ///< constant driver 0 (no inputs)
  Const1,  ///< constant driver 1 (no inputs)
  Buf,     ///< y = a
  Not,     ///< y = !a
  And2,    ///< y = a & b
  Or2,     ///< y = a | b
  Nand2,   ///< y = !(a & b)
  Nor2,    ///< y = !(a | b)
  Xor2,    ///< y = a ^ b
  Xnor2,   ///< y = !(a ^ b)
  Mux2,    ///< y = s ? b : a       (inputs: a, b, s)
  Tribuf,  ///< y = en ? d : Z      (inputs: d, en) — may share nets
  Dff,     ///< q <= d on clock     (inputs: d) — implicit global clock
  Dffe,    ///< q <= en ? d : q     (inputs: d, en)
};

/// Number of input pins of \p kind. A table, not a switch: netlist passes
/// call it once per cell, and cell kinds come in no predictable order.
constexpr int fanin(CellKind kind) noexcept {
  constexpr std::array<std::int8_t, 14> kFanin = {
      0, 0,              // Const0, Const1
      1, 1,              // Buf, Not
      2, 2, 2, 2, 2, 2,  // And2, Or2, Nand2, Nor2, Xor2, Xnor2
      3, 2,              // Mux2, Tribuf
      1, 2};             // Dff, Dffe
  static_assert(static_cast<std::size_t>(CellKind::Dffe) + 1 == kFanin.size());
  return kFanin[static_cast<std::size_t>(kind)];
}

/// True for the sequential cells (Dff, Dffe).
constexpr bool is_sequential(CellKind kind) noexcept {
  return kind == CellKind::Dff || kind == CellKind::Dffe;
}

/// Short lower-case mnemonic ("nand2", "dff", ...).
const char* kind_name(CellKind kind) noexcept;

/// One instantiated primitive.
struct Cell {
  CellKind kind = CellKind::Buf;
  std::array<NetId, 3> in = {kNoNet, kNoNet, kNoNet};
  NetId out = kNoNet;
};

/// A named top-level port.
struct Port {
  std::string name;
  NetId net = kNoNet;
};

/// Plain-data form of a design, used by transformation passes (optimize,
/// generators) to assemble results which are then validated by
/// Netlist::from_raw.
struct RawNetlist {
  std::string name;
  std::size_t n_nets = 0;
  std::vector<Cell> cells;
  std::vector<Port> inputs;
  std::vector<Port> outputs;
  std::vector<std::pair<NetId, std::string>> net_names;
};

/// Gate-level design: nets, cells and primary ports.
///
/// Construction goes through NetlistBuilder; Netlist itself only offers
/// queries and validation. Nets may have multiple drivers only when every
/// driver is a Tribuf (tri-state bus, as used on the CAS core-side pins).
class Netlist {
 public:
  /// Assembles a netlist from its plain-data form; validates structure.
  static Netlist from_raw(RawNetlist raw);

  /// Design name (used by the HDL emitters as the entity/module name).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::size_t net_count() const noexcept { return n_nets_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const Cell& cell(CellId id) const { return cells_.at(id); }

  [[nodiscard]] const std::vector<Port>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<Port>& outputs() const noexcept {
    return outputs_;
  }

  /// All (net, name) naming pairs assigned during construction.
  [[nodiscard]] const std::vector<std::pair<NetId, std::string>>& net_names()
      const noexcept {
    return net_names_;
  }

  /// Net name if one was assigned, otherwise "n<id>".
  [[nodiscard]] std::string net_name(NetId id) const;

  /// All cells driving \p net (usually one; several for tri-state nets).
  [[nodiscard]] std::vector<CellId> drivers_of(NetId net) const;

  /// Counts cells of each kind, indexed by static_cast<size_t>(CellKind).
  [[nodiscard]] std::vector<std::size_t> kind_histogram() const;

  /// Number of sequential cells.
  [[nodiscard]] std::size_t dff_count() const noexcept;

  /// Throws InvariantError when the structure is ill-formed: dangling pins,
  /// non-tristate multi-drivers, outputs reading undriven nets.
  void validate() const;

  /// Copies the design back into its plain-data form — the inverse of
  /// from_raw. Transformation passes and the structural linter
  /// (verify/netlist_lint.hpp) take RawNetlist so they can also accept
  /// designs from_raw would reject; to_raw lets a validated design enter
  /// that pipeline (e.g. tests that break a known-good netlist one rule at
  /// a time and lint the wreckage).
  [[nodiscard]] RawNetlist to_raw() const;

 private:
  friend class NetlistBuilder;

  std::string name_ = "design";
  std::size_t n_nets_ = 0;
  std::vector<Cell> cells_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
  std::vector<std::pair<NetId, std::string>> net_names_;
};

}  // namespace casbus::netlist
