/// \file builder.hpp
/// Fluent construction of gate-level netlists.
///
/// The builder offers the primitive cells plus the wide operators a
/// synthesis tool would decompose (balanced AND/OR trees, one-hot decoders,
/// N-way multiplexers, equality comparators). The CAS generator builds the
/// entire Figure-3 architecture through this interface.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace casbus::netlist {

/// Incrementally builds a Netlist; call `take()` to finish.
class NetlistBuilder {
 public:
  explicit NetlistBuilder(std::string design_name);

  /// Capacity hint: a generator that knows (a bound on) its design's
  /// size builds it without regrowing the cell, port and net-name arrays.
  struct Capacity {
    std::size_t cells = 0;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
    std::size_t named_nets = 0;  ///< including the input ports
  };
  void reserve(const Capacity& capacity);

  /// Creates an unnamed internal net.
  NetId net();

  /// Creates a named internal net (names survive into HDL output).
  NetId net(const std::string& name);

  /// Declares a primary input and returns its net.
  NetId input(const std::string& name);

  /// Declares a primary output fed by \p net.
  void output(const std::string& name, NetId net);

  // --- primitive cells (each returns the output net) -----------------------

  NetId const0();
  NetId const1();
  NetId buf(NetId a);
  NetId not_(NetId a);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId nand2(NetId a, NetId b);
  NetId nor2(NetId a, NetId b);
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b);
  /// y = s ? b : a.
  NetId mux2(NetId s, NetId a, NetId b);
  /// Tri-state buffer driving \p onto (created when kNoNet) and returning it;
  /// several tribufs may share one output net.
  NetId tribuf(NetId en, NetId d, NetId onto = kNoNet);
  /// D flip-flop, implicit global clock; returns Q.
  NetId dff(NetId d, const std::string& q_name = {});
  /// Enabled D flip-flop; returns Q.
  NetId dffe(NetId d, NetId en, const std::string& q_name = {});
  /// D flip-flop writing the pre-allocated net \p q. Allocating q before the
  /// logic that reads it is how sequential feedback loops are built.
  void dff_into(NetId d, NetId q);
  /// Enabled variant of dff_into.
  void dffe_into(NetId d, NetId en, NetId q);

  // --- wide operators -------------------------------------------------------

  /// Balanced AND tree; returns const1 for an empty list.
  NetId and_n(const std::vector<NetId>& xs);
  /// Balanced OR tree; returns const0 for an empty list.
  NetId or_n(const std::vector<NetId>& xs);

  /// y = 1 when the code nets equal \p value (LSB first): an AND of
  /// true/complemented literals — one product term of a decoder PLA.
  NetId eq_const(const std::vector<NetId>& code, std::uint64_t value);

  /// Full one-hot decoder: output[i] = (code == i), for i in [0, count).
  std::vector<NetId> decoder(const std::vector<NetId>& code,
                             std::size_t count);

  /// N-way multiplexer built as a Mux2 tree: returns data[sel].
  /// \p sel is LSB-first; data.size() need not be a power of two.
  NetId mux_n(const std::vector<NetId>& sel, const std::vector<NetId>& data);

  /// One-hot multiplexer: AND-OR of (onehot[i] & data[i]).
  NetId mux_onehot(const std::vector<NetId>& onehot,
                   const std::vector<NetId>& data);

  /// Shift-register stage count helper: chains \p n DFFs from \p d,
  /// returning all stage outputs (q[0] is the first stage).
  std::vector<NetId> shift_chain(NetId d, std::size_t n,
                                 const std::string& prefix = {});

  /// Low-level cell copy with explicit pins — the primitive behind netlist
  /// composition (netlist/compose.hpp). Inputs beyond the kind's fan-in
  /// must be kNoNet; \p out must be an already-created net.
  void copy_cell(CellKind kind, NetId a, NetId b, NetId c, NetId out);

  /// Finishes construction, validates, and returns the netlist.
  /// The builder must not be used afterwards.
  Netlist take();

  /// Cells added so far (diagnostic).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return nl_.cells_.size();
  }

 private:
  NetId add_cell(CellKind kind, NetId a = kNoNet, NetId b = kNoNet,
                 NetId c = kNoNet, NetId out = kNoNet);

  Netlist nl_;
  NetId const0_ = kNoNet;  // cached constant drivers
  NetId const1_ = kNoNet;
  bool taken_ = false;
};

}  // namespace casbus::netlist
