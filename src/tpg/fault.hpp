/// \file fault.hpp
/// Single stuck-at fault model over gate-level netlists.
///
/// The paper motivates the TAM by "the high fault coverage required before
/// signing off a design to manufacturing" (§1); the examples and benches use
/// this module to measure real stuck-at coverage of patterns delivered over
/// the CAS-BUS.
///
/// Fault grading runs on the bit-parallel netlist::FaultSim engine: each
/// levelized pass simulates 64 faulty machines at once, so a campaign costs
/// ~(faults/64 + 1) evals per pattern instead of 2*faults. The pre-packed
/// serial path is kept as run_serial() — it is the reference the
/// equivalence tests and the BM_FaultSim/BM_FaultSim64 benchmark pair
/// compare against.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/faultsim.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/netlist.hpp"
#include "tpg/patterns.hpp"
#include "util/bitvector.hpp"

namespace casbus::tpg {

/// One single stuck-at fault: `net` permanently at `stuck_one`. The tpg
/// layer shares the netlist-layer fault type so campaigns flow into
/// netlist::FaultSim without conversion.
using Fault = netlist::StuckAtFault;

/// Enumerates the stuck-at-0/1 fault universe of \p nl: two faults per net,
/// excluding nets driven by constant cells (untestable by construction).
std::vector<Fault> enumerate_faults(const netlist::Netlist& nl);

/// Result of fault-simulating a pattern set.
struct FaultSimReport {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::vector<bool> detected_mask;          ///< per fault, same order as list
  std::vector<std::size_t> per_pattern;     ///< new detections per pattern

  [[nodiscard]] double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected) /
                     static_cast<double>(total_faults);
  }
};

/// Single-stuck-at fault simulator assuming full scan: every DFF is
/// directly controllable/observable, so one "pattern" assigns all primary
/// inputs plus all flip-flop states, and the "response" is all primary
/// outputs plus all flip-flop next-states.
///
/// Inputs that must stay fixed during test (e.g. a scan-enable that routes
/// functional data, held at 0 while faults are graded) are pinned via
/// pin_input().
class FaultSimulator {
 public:
  /// Takes its own copy of the design (move in to avoid the copy); the
  /// design is levelized once and shared by the packed engine and, when
  /// simulate()/run_serial() first needs it, the scalar one.
  explicit FaultSimulator(netlist::Netlist nl);

  /// Shares an existing levelization (a campaign over one design needs a
  /// single levelize no matter how many simulators it spins up).
  explicit FaultSimulator(
      std::shared_ptr<const netlist::LevelizedNetlist> lev,
      netlist::EvalMode mode = netlist::EvalMode::FullSweep);

  /// Evaluation strategy of the packed engine (netlist::EvalMode) — the
  /// graded results are identical; EventDriven skips quiescent cones.
  void set_mode(netlist::EvalMode mode) { packed_.set_mode(mode); }
  [[nodiscard]] netlist::EvalMode mode() const noexcept {
    return packed_.mode();
  }

  /// Gate-evaluation counters of the packed engine (activity factor).
  [[nodiscard]] const netlist::SimStats& stats() const noexcept {
    return packed_.stats();
  }

  /// Holds input \p name at \p value for every simulation; that input is
  /// removed from the pattern image.
  void pin_input(const std::string& name, bool value);

  /// Bits a pattern must supply: free primary inputs + flip-flops.
  [[nodiscard]] std::size_t pattern_width() const noexcept;

  /// Bits in a response: primary outputs + flip-flop next-states.
  [[nodiscard]] std::size_t response_width() const noexcept;

  /// Fault-free response to \p pattern.
  [[nodiscard]] BitVector good_response(const BitVector& pattern);

  /// Fault-free responses to \p patterns, in order. Patterns are evaluated
  /// 64 per packed pass, one per lane, so a batch costs about one pass per
  /// 64 patterns.
  [[nodiscard]] std::vector<BitVector> good_responses(
      std::span<const BitVector* const> patterns);

  /// True when \p pattern definitely detects \p fault (good and faulty
  /// responses are both driven and differ in at least one bit).
  [[nodiscard]] bool detects(const BitVector& pattern, const Fault& fault);

  /// Grades every not-yet-detected fault against one pattern, 64 faults
  /// per packed pass; newly detected faults are flagged in \p detected.
  /// Returns the number of new detections. This is the ATPG inner loop.
  std::size_t grade(const BitVector& pattern,
                    const std::vector<Fault>& faults,
                    std::vector<bool>& detected);

  /// Simulates \p patterns against \p faults with fault dropping
  /// (bit-parallel: 64 faults per machine word).
  FaultSimReport run(const PatternSet& patterns,
                     const std::vector<Fault>& faults);

  /// Threaded campaign: shards \p faults across \p threads workers via
  /// netlist::run_fault_campaign (0 = one per hardware thread). The report
  /// — detected_mask, per_pattern, totals — is byte-identical to run()
  /// for every thread count, because fault detection is independent per
  /// fault. Each worker inherits this simulator's EvalMode.
  FaultSimReport run(const PatternSet& patterns,
                     const std::vector<Fault>& faults, std::size_t threads);

  /// Reference implementation: one faulty machine at a time through the
  /// scalar GateSim (built on first use). Same report as run(); ~100x
  /// slower. Kept for the equivalence tests and as the benchmark baseline.
  FaultSimReport run_serial(const PatternSet& patterns,
                            const std::vector<Fault>& faults);

 private:
  /// Loads \p pattern into any packed engine over the shared levelization
  /// (pinned + free inputs, DFFs). Read-only on this simulator, so the
  /// threaded run() may call it concurrently on per-worker engines.
  void load_pattern(netlist::FaultSim& engine,
                    const BitVector& pattern) const;

  /// Loads \p pattern into the embedded packed engine.
  void apply_pattern(const BitVector& pattern);

  /// Applies pattern, evals, returns response values (may contain X as -1).
  std::vector<int> simulate(const BitVector& pattern,
                            const Fault* fault);

  /// The simulated design (owned by the shared levelization).
  [[nodiscard]] const netlist::Netlist& nl() const {
    return packed_.design();
  }

  /// Sequential cells, in the shared levelization's canonical order.
  [[nodiscard]] const std::vector<netlist::CellId>& dffs() const {
    return packed_.levelized()->dff_cells();
  }

  netlist::FaultSim packed_;    // 64-wide campaign engine (shared netlist)
  std::optional<netlist::GateSim> scalar_;  // reference engine, on demand
  std::vector<std::size_t> free_inputs_;  // indices into nl.inputs()
  std::vector<std::pair<std::size_t, bool>> pinned_;
};

}  // namespace casbus::tpg
