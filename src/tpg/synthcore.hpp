/// \file synthcore.hpp
/// Seeded synthetic IP core generation.
///
/// The paper's SoCs embed commercial IP cores we do not have; the TAM only
/// ever observes a core through its wrapper test terminals, so a seeded
/// random netlist with scan-stitched flip-flops exercises exactly the same
/// interface (DESIGN.md §6 records this substitution). Generated cores have:
///   - functional primary inputs/outputs,
///   - a random combinational cloud,
///   - flip-flops stitched into `n_chains` balanced scan chains behind a
///     scan_en / si[c] / so[c] interface (mux-D full scan).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace casbus::tpg {

/// Parameters of a generated core.
struct SyntheticCoreSpec {
  std::size_t n_inputs = 8;    ///< functional primary inputs
  std::size_t n_outputs = 8;   ///< functional primary outputs
  std::size_t n_flipflops = 16;///< scannable state bits
  std::size_t n_gates = 64;    ///< combinational cells in the cloud
  std::size_t n_chains = 1;    ///< scan chains (<= n_flipflops)
  std::uint64_t seed = 1;      ///< generator seed
};

/// A generated core: levelized netlist plus its scan topology.
struct SyntheticCore {
  /// The generated netlist, validated once (NetlistBuilder::take) and
  /// levelized once, at generation. Every reader shares this one analysis:
  /// the core models' GateSim, the tester's golden FaultSimulator and the
  /// floor's lint (verify::lint_netlist's LevelizedNetlist overload).
  std::shared_ptr<const netlist::LevelizedNetlist> design;
  SyntheticCoreSpec spec;
  /// chains[c] lists flip-flop indices (GateSim DFF order) from scan-in to
  /// scan-out of chain c.
  std::vector<std::vector<std::size_t>> chains;

  /// The generated netlist (owned by the shared levelization).
  [[nodiscard]] const netlist::Netlist& netlist() const noexcept {
    return design->netlist();
  }

  /// Length of the longest scan chain.
  [[nodiscard]] std::size_t max_chain_length() const;

  // Port table: positions (declaration order, as GateSim's
  // set_input_index/output_index take them) of the named ports. The
  // generator declares the inputs pi<0..>, scan_en, si<0..> and the
  // outputs po<0..>, so<0..> in that order, so per-cycle paths drive and
  // read a core by position without looking a name up.

  /// Input position of "pi<i>".
  [[nodiscard]] std::size_t pi_input(std::size_t i) const noexcept {
    return i;
  }
  /// Input position of "scan_en".
  [[nodiscard]] std::size_t scan_en_input() const noexcept {
    return spec.n_inputs;
  }
  /// Input position of "si<c>".
  [[nodiscard]] std::size_t si_input(std::size_t c) const noexcept {
    return spec.n_inputs + 1 + c;
  }
  /// Output position of "po<o>".
  [[nodiscard]] std::size_t po_output(std::size_t o) const noexcept {
    return o;
  }
  /// Output position of "so<c>".
  [[nodiscard]] std::size_t so_output(std::size_t c) const noexcept {
    return spec.n_outputs + c;
  }
};

/// Port naming used by generated cores (stable public contract):
/// functional inputs "pi<i>", scan enable "scan_en", scan inputs "si<c>";
/// outputs "po<i>" and "so<c>" — at the positions SyntheticCore's port
/// table gives.
SyntheticCore make_synthetic_core(const SyntheticCoreSpec& spec);

}  // namespace casbus::tpg
