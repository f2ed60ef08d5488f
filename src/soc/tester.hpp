/// \file tester.hpp
/// The SoC test controller: executes test programs against an assembled
/// SoC, cycle-accurately, through the chip's test pins only (bus head/tail,
/// wrapper serial ring, configuration/update and WSC control wires).
///
/// The paper: "All test control signals, either for the CAS or for the
/// testable cores, are connected to a central SoC test controller which is
/// in charge of synchronizing test data and control."

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "soc/soc.hpp"
#include "tpg/fault.hpp"
#include "tpg/patterns.hpp"

namespace casbus::soc {

/// Simulation-engine knobs of a SocTester (docs/PERFORMANCE.md). Both are
/// pure optimisations: every session result is byte-identical for any
/// combination — event-driven evaluation is exact (packed_gatesim.hpp)
/// and golden responses depend only on (core netlist, pattern).
struct TesterOptions {
  /// Evaluation strategy of the golden-model engines.
  netlist::EvalMode sim_mode = netlist::EvalMode::EventDriven;
  /// Worker threads for precomputing a scan session's golden responses
  /// (sharded per target core; 1 = inline, 0 = one per hardware thread).
  std::size_t sim_threads = 1;
};

/// Addresses a core: a top-level index, optionally a child inside a
/// hierarchical core (one nesting level, as in paper Fig. 2d).
struct CoreRef {
  std::size_t top = 0;
  std::optional<std::size_t> child;

  friend bool operator<(const CoreRef& a, const CoreRef& b) {
    return std::tie(a.top, a.child) < std::tie(b.top, b.child);
  }
  friend bool operator==(const CoreRef& a, const CoreRef& b) = default;
};

/// One core's role in a scan session.
struct ScanTarget {
  CoreRef core;
  /// Top-level bus wire carrying each scan chain (index = chain).
  /// For children this is still the *top-level* wire; the child-bus wire is
  /// derived from the hierarchy route.
  std::vector<unsigned> wire_of_chain;
  /// Scan patterns: one bit per flip-flop, in GateSim DFF order (use
  /// tpg ATPG with all functional inputs pinned to zero to generate).
  tpg::PatternSet patterns;
};

/// How a hierarchical core's child bus maps onto top-level wires in a
/// session: child wire j is carried by top_wire_of_child_wire[j].
struct HierarchyRoute {
  std::size_t top_core = 0;
  std::vector<unsigned> top_wire_of_child_wire;
};

/// A BIST core riding along a scan session on its own wire.
struct BistJoin {
  std::size_t core = 0;          ///< top-level core index (Bist/Memory)
  unsigned wire = 0;             ///< dedicated bus wire
  std::uint64_t cycles = 0;      ///< engine cycles still outstanding
  /// When false, the engine is (re)started / kept routed but the session
  /// neither waits for it nor reads its verdict — used when a long BIST
  /// spans several reconfigured scan sessions (phased schedules). The
  /// start level stays asserted on the wire between sessions.
  bool wait = true;
};

/// A complete scan session: targets tested in parallel, sharing bus wires
/// where their assignments overlap (cores on one wire daisy-chain in bus
/// order — the §4 "balance the length of the scan chains" mechanism).
/// BIST cores can join concurrently on wires the scan part does not use.
struct ScanSession {
  std::vector<ScanTarget> targets;
  std::vector<HierarchyRoute> routes;
  std::vector<BistJoin> bist;
};

/// One mismatching response bit, located for diagnosis.
struct ScanDiagnosis {
  std::size_t pattern = 0;   ///< pattern index at which it was observed
  std::size_t chain = 0;     ///< scan chain of the core
  std::size_t position = 0;  ///< cell position within the chain (si -> so)
  std::size_t flipflop = 0;  ///< the core's flip-flop index (GateSim order)
};

/// Per-target outcome of a scan session.
struct ScanTargetResult {
  CoreRef core;
  std::size_t patterns_applied = 0;
  std::size_t response_bits = 0;
  std::size_t mismatches = 0;  ///< bits differing from the golden model
  /// First few mismatches located to chain cells / flip-flops (bounded by
  /// kMaxDiagnoses to keep long failing runs cheap).
  std::vector<ScanDiagnosis> diagnoses;
  static constexpr std::size_t kMaxDiagnoses = 64;
};

/// Outcome of ScanSession execution.
struct ScanSessionResult {
  std::vector<ScanTargetResult> targets;
  /// Verdicts of joined BIST engines, same order as ScanSession::bist.
  std::vector<bool> bist_pass;
  std::uint64_t configure_cycles = 0;  ///< CAS + WIR programming
  std::uint64_t test_cycles = 0;       ///< shift/capture (+BIST wait)
  [[nodiscard]] std::uint64_t total_cycles() const {
    return configure_cycles + test_cycles;
  }
  [[nodiscard]] bool all_pass() const {
    for (const auto& t : targets)
      if (t.mismatches != 0) return false;
    for (const bool b : bist_pass)
      if (!b) return false;
    return true;
  }
};

/// Outcome of a BIST session run over the bus.
struct BistRunResult {
  bool completed = false;  ///< verdict wire observed after the session
  bool pass = false;
  std::uint64_t configure_cycles = 0;
  std::uint64_t test_cycles = 0;
};

/// Outcome of an interconnect EXTEST session.
struct ExtestResult {
  std::size_t connections = 0;
  std::size_t vectors = 0;
  /// Indices (into Interconnect::connections()) observed faulty.
  std::vector<std::size_t> failing;
  std::uint64_t cycles = 0;

  [[nodiscard]] bool all_pass() const { return failing.empty(); }
};

/// Drives a Soc through complete test programs.
class SocTester {
 public:
  explicit SocTester(Soc& soc, TesterOptions options = {});

  [[nodiscard]] const TesterOptions& options() const noexcept {
    return options_;
  }

  /// Full-chip reset (power-on state).
  void reset();

  /// Advances \p n functional clock cycles (all wrappers keep their
  /// current instructions — used by maintenance scenarios).
  void step(std::uint64_t n = 1);

  // --- control plane -------------------------------------------------------

  /// Programs every top-level CAS in one serial configuration session
  /// (paper Fig. 4a). `codes[i]` targets CAS i in bus order.
  /// Returns cycles spent (shift + update).
  std::uint64_t configure_bus(const std::vector<std::uint64_t>& codes);

  /// Programs the child bus of hierarchical core \p top_core. The parent
  /// CAS must already route top wire \p entry_wire to child wire 0 (TEST
  /// mode) so the stream can tunnel through (paper Fig. 2d).
  std::uint64_t configure_child_bus(std::size_t top_core,
                                    unsigned entry_wire,
                                    const std::vector<std::uint64_t>& codes);

  /// Loads a wrapper instruction into every wrapper through the serial
  /// ring (ring order = Soc::wrapper_ring()).
  std::uint64_t load_wrapper_instructions(
      const std::vector<p1500::WrapperInstr>& instrs);

  /// Convenience: every wrapper gets \p instr.
  std::uint64_t load_all_wrappers(p1500::WrapperInstr instr);

  // --- data plane -----------------------------------------------------------

  /// Executes a scan session end-to-end: configures CASes (top and child),
  /// sets wrapper instructions, streams every pattern through the bus with
  /// interleaved load/unload, captures, and checks responses against each
  /// core's golden model.
  ScanSessionResult run_scan_session(const ScanSession& session);

  /// Runs the embedded BIST (logic BIST or memory MARCH) of core
  /// \p core (top-level, kinds Bist/Memory) over bus wire \p wire:
  /// configures the CAS, sets the wrapper to Bist, holds the start level
  /// on the wire for \p cycles cycles, then samples the verdict coming
  /// back on the same wire.
  BistRunResult run_bist(std::size_t core, unsigned wire,
                         std::uint64_t cycles);

  /// Interconnect test (paper §4 / Fig. 1 system bus): every wrapper is
  /// put in EXTEST; \p vectors random stimulus vectors are shifted into
  /// the boundary registers over the wrapper serial ring, applied with an
  /// update pulse, captured at the destination wrappers, and shifted out
  /// for comparison. Requires the SoC to have an interconnect fabric.
  ExtestResult run_extest(std::size_t vectors = 4, std::uint64_t seed = 1);

  /// Total simulation cycles elapsed since construction/reset.
  [[nodiscard]] std::uint64_t cycles() const {
    return soc_.simulation().cycle();
  }

  // --- observability --------------------------------------------------------
  // Work counters of this tester's golden-model machinery, harvested by
  // the floor's telemetry layer after each job. Pure observation: nothing
  // here feeds back into any result.

  /// Golden-response memo probes / probes served without simulating.
  /// Atomic because the threaded precompute path calls expected_response
  /// concurrently (one thread per core shard).
  [[nodiscard]] std::uint64_t memo_lookups() const noexcept {
    return memo_lookups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t memo_hits() const noexcept {
    return memo_hits_.load(std::memory_order_relaxed);
  }

  /// Wall time spent in run_scan_session's golden-response precompute
  /// blocks (threaded or inline), summed over the tester's lifetime.
  [[nodiscard]] double precompute_seconds() const noexcept {
    return precompute_seconds_;
  }

  /// Packed-simulation work summed over every golden-model engine this
  /// tester has created (netlist::SimStats semantics).
  [[nodiscard]] netlist::SimStats sim_stats() const;

  /// Scalar GateSim sweeps run and skipped, summed over every gate-level
  /// core model of the SoC (hierarchical children included) since it was
  /// built — BIST golden-signature runs at construction count too.
  [[nodiscard]] netlist::GateSim::SweepStats core_sweep_stats() const;

  /// Behavioural-kernel work of the SoC's simulation since it was built
  /// (sim::Simulation::kernel_stats: module evaluations, settle passes).
  [[nodiscard]] const sim::Simulation::KernelStats& kernel_stats() const {
    return soc_.simulation().kernel_stats();
  }

 private:
  struct Segment {  // one (target, chain) occupancy of a wire
    std::size_t target_index;
    std::size_t chain;
    std::size_t length;
  };

  /// Sort key giving physical order along a wire (bus order, children
  /// after entering their parent in child-bus order).
  [[nodiscard]] std::uint64_t bus_order_key(const CoreRef& ref) const;

  [[nodiscard]] CoreInstance& core_at(const CoreRef& ref);
  [[nodiscard]] const tpg::SyntheticCore& synth_of(const CoreRef& ref);

  /// Pulses one shift cycle on the config chain with wire-0 data \p bit.
  void config_shift(tam::CasBusChain& chain, sim::Wire& data_in, bool bit);

  /// Golden-model simulator of \p ref, created (and pinned) on first use.
  [[nodiscard]] tpg::FaultSimulator& golden_for(const CoreRef& ref);

  /// Good-machine responses of \p ref to \p patterns, in order, memoised
  /// across the tester's lifetime — i.e. across every session of one job
  /// — because the good machine is read-only. Each pattern is one memo
  /// lookup; the misses are evaluated together, 64 per packed pass.
  /// Requires golden_for(ref) and the memo entry of \p ref to exist.
  [[nodiscard]] std::vector<const BitVector*> expected_responses(
      const CoreRef& ref, const tpg::PatternSet& patterns);

  Soc& soc_;
  TesterOptions options_;
  /// Golden-model simulators per scan core, created lazily.
  std::map<CoreRef, std::unique_ptr<tpg::FaultSimulator>> golden_;
  /// Cached golden responses per core, keyed by pattern bits.
  std::map<CoreRef, std::unordered_map<std::string, BitVector>>
      golden_cache_;
  /// Memo traffic (see memo_lookups()); relaxed atomics, written from the
  /// precompute worker threads.
  std::atomic<std::uint64_t> memo_lookups_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  /// Precompute wall time; written only by the session-running thread.
  double precompute_seconds_ = 0.0;
};

}  // namespace casbus::soc
