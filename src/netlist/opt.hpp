/// \file opt.hpp
/// Technology-independent logic optimization.
///
/// These passes model what the paper obtained from Synopsys compile: the
/// raw generator output (the "generic VHDL" flow of §3.3) shrinks under
/// constant folding, common-subexpression sharing, buffer collapsing and
/// dead-logic removal. The Table-1 bench reports both raw and optimized
/// cell counts.

#pragma once

#include "netlist/netlist.hpp"

namespace casbus::netlist {

/// Returns an optimized copy of \p in; \p in is left untouched.
/// Runs constant folding and buffer collapsing, structural sharing
/// (commutative CSE) and dead-logic removal until none of them changes
/// anything (each pass is monotone; capped at 32 rounds).
/// The result computes the same function on all primary outputs
/// (X/Z-pessimism of Buf clamping aside, which synthesis also discards).
Netlist optimize(const Netlist& in);

}  // namespace casbus::netlist
