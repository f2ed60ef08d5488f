/// \file netlist_lint.hpp
/// Head 1 of the static verification layer: rule-based structural DRC over
/// gate-level netlists.
///
/// The linter operates on the plain-data RawNetlist form so that *broken*
/// designs — exactly the ones worth diagnosing — can be linted without
/// tripping the exceptions Netlist::from_raw / validate() throw. A clean
/// pass over a RawNetlist implies from_raw() will accept it; the Netlist
/// overload is a convenience for already-validated designs (it can still
/// find cycles, dead gates, fanout pressure, and scan-chain breaks, which
/// validate() does not check). The LevelizedNetlist overload lints a design
/// that is already levelized for simulation: it runs the same rule passes
/// and reads the comb-cycle answer from the levelization (one topological
/// sort, netlist::order_comb_cells, serves both), so the floor's Verify
/// stage lints each core without sorting it a second time.
///
/// Rules (see verify/report.hpp for ids and severities):
///   NL000 netlist-malformed    out-of-range net refs, connected spare pins
///   NL001 net-multi-driver     >1 plain driver, or plain + tri-state mix
///   NL002 net-floating-input   cell input pin reads a driverless net
///   NL003 comb-cycle           combinational cycle, reported net by net
///   NL004 gate-unreachable     no structural path to any primary output
///   NL005 port-dangling        output port reads a driverless net
///   NL006 net-fanout           reader-pin count above the config ceiling
///   NL007 scan-chain-broken    chain walk from scan-in fails or mismatches
///
/// Diagnostic::object is the offending NetId for NL001/NL002/NL006, the
/// CellId for NL000/NL004, the output-port index for NL005, the first cell
/// on the cycle for NL003, and the chain index for NL007.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "verify/report.hpp"

namespace casbus::verify {

/// Expected scan topology of one chain, for the NL007 integrity rule:
/// walking the mux-D scan path from input port \p scan_in must traverse
/// exactly \p length flip-flops and end on the net output port \p scan_out
/// reads.
struct ScanChainSpec {
  std::string scan_in;   ///< primary-input port name ("si0", ...)
  std::string scan_out;  ///< primary-output port name ("so0", ...)
  std::size_t length = 0;
};

/// Linter knobs. The defaults are what the floor's Verify stage and the CI
/// domain-lint leg run with; every generated design in the tree is clean
/// under them.
struct NetlistLintConfig {
  /// NL006 ceiling on a net's reader-pin count. Generated TAMs broadcast
  /// control strobes (config/update, the wrapper WSC wires, scan_en) to
  /// every cell they reach, so the default is sized for the largest
  /// geometry the tree generates; tighten it to audit buffering pressure.
  std::size_t fanout_ceiling = 4096;
  /// Gate of the NL004 dead-logic sweep.
  bool check_unreachable = true;
  /// Expected scan chains (NL007). Empty = rule not applied. When
  /// non-empty, every sequential cell must be visited by some chain walk
  /// ("every scan FF reachable from scan-in").
  std::vector<ScanChainSpec> scan_chains;
};

/// Lints \p raw against every rule. Pure: never throws on malformed input
/// and never mutates; equal inputs produce equal reports.
[[nodiscard]] LintReport lint_netlist(const netlist::RawNetlist& raw,
                                      const NetlistLintConfig& config = {});

/// Convenience overload for validated designs.
[[nodiscard]] LintReport lint_netlist(const netlist::Netlist& nl,
                                      const NetlistLintConfig& config = {});

/// Overload for levelized designs: the same report as linting
/// lev.netlist(), without a second topological sort (a levelized design
/// is acyclic by construction, so NL003 never fires here).
[[nodiscard]] LintReport lint_netlist(const netlist::LevelizedNetlist& lev,
                                      const NetlistLintConfig& config = {});

/// Finds one combinational cycle in \p raw: cell ids in cycle order (the
/// output of each feeds an input of the next, and the last feeds the
/// first). Empty when the combinational part is acyclic.
[[nodiscard]] std::vector<netlist::CellId> find_comb_cycle(
    const netlist::RawNetlist& raw);

/// Human-readable walk of one combinational cycle in \p nl, naming the
/// nets on the loop ("n12(and2) -> cfg_q3(not) -> n12"); empty when
/// acyclic. netlist::LevelizedNetlist routes its cycle failure through
/// this reporter so PackedGateSim / FaultSim construction errors name the
/// offending nets instead of only counting unplaceable cells.
[[nodiscard]] std::string describe_comb_cycle(const netlist::Netlist& nl);

}  // namespace casbus::verify
