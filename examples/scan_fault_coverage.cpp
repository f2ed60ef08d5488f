/// \file scan_fault_coverage.cpp
/// Why the TAM exists (paper §1: "the high fault coverage required before
/// signing off a design"): generate compact ATPG patterns for a core,
/// deliver them through the CAS-BUS cycle-accurately, and confirm that a
/// sample of injected stuck-at faults is caught at the chip pins.
///
/// The parallel scan path observes flip-flop next-states; faults visible
/// only on functional outputs would additionally need a boundary-register
/// EXTEST capture, so the injected sample is drawn from the
/// scan-observable set.

#include <iostream>

#include "netlist/faultsim.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "tpg/atpg.hpp"
#include "util/rng.hpp"

namespace {

using namespace casbus;

/// Flags the faults that flip at least one flip-flop next-state under some
/// pattern (functional inputs low, scan disabled) — i.e. the faults
/// observable through the parallel scan unload. One bit-parallel campaign
/// over the whole universe (64 faulty machines per pass, fault dropping)
/// replaces the per-fault good/bad re-simulation this example used before.
std::vector<bool> scan_observable_set(const tpg::SyntheticCore& core,
                                      const tpg::PatternSet& patterns,
                                      const std::vector<tpg::Fault>& faults) {
  netlist::FaultSim fsim(core.netlist());
  fsim.set_observation(/*outputs=*/false, /*dff_next_states=*/true);
  for (std::size_t i = 0; i < core.netlist().inputs().size(); ++i)
    fsim.set_input_index(i, Logic4::Zero);

  std::vector<bool> observable(faults.size(), false);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const BitVector& pat = patterns.at(p);
    for (std::size_t b = 0; b < pat.size(); ++b)
      fsim.set_dff_state(b, to_logic(pat.get(b)));
    fsim.detect_all(faults, observable);
  }
  return observable;
}

}  // namespace

int main() {
  using namespace casbus::soc;

  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 6;
  spec.n_outputs = 6;
  spec.n_flipflops = 16;
  spec.n_gates = 90;
  spec.n_chains = 2;
  spec.seed = 77;

  // 1. ATPG with the wrapper-intest boundary conditions: functional
  //    inputs held at the update-cell values (zeros) during scan.
  tpg::AtpgOptions atpg;
  atpg.seed = 5;
  atpg.target_coverage = 0.98;
  atpg.max_patterns = 64;
  atpg.pinned_inputs.emplace_back("scan_en", false);
  for (std::size_t i = 0; i < spec.n_inputs; ++i)
    atpg.pinned_inputs.emplace_back("pi" + std::to_string(i), false);
  for (std::size_t c = 0; c < spec.n_chains; ++c)
    atpg.pinned_inputs.emplace_back("si" + std::to_string(c), false);

  const tpg::SyntheticCore reference = tpg::make_synthetic_core(spec);
  const tpg::AtpgResult patterns =
      tpg::generate_patterns(reference.netlist(), atpg);
  std::cout << "ATPG: " << patterns.patterns.size() << " patterns cover "
            << 100.0 * patterns.coverage() << "% of "
            << patterns.total_faults << " stuck-at faults ("
            << patterns.candidates_tried << " candidates tried)\n\n";

  // 2. Fault-free delivery over the bus.
  auto soc = SocBuilder(3).add_scan_core("dut", spec).build();
  SocTester tester(*soc);
  ScanSession session;
  session.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {0, 2}, patterns.patterns});
  const auto clean = tester.run_scan_session(session);
  std::cout << "fault-free run: "
            << (clean.all_pass() ? "PASS" : "FAIL (unexpected)") << " in "
            << clean.total_cycles() << " cycles\n\n";

  // 3. Inject scan-observable faults into the live core; each must now
  //    fail at the pins. The observable set is graded once, bit-parallel.
  const auto faults = tpg::enumerate_faults(reference.netlist());
  const std::vector<bool> observable =
      scan_observable_set(reference, patterns.patterns, faults);
  Rng rng(123);
  int injected = 0, caught = 0;
  for (int trial = 0; trial < 400 && injected < 12; ++trial) {
    const std::size_t f = rng.below(faults.size());
    if (!observable[f]) continue;
    ++injected;
    NetlistCore& core = soc->cores()[0].as_scan();
    core.gatesim().clear_forces();
    core.gatesim().set_force(faults[f].net,
                             to_logic(faults[f].stuck_one));
    const auto r = tester.run_scan_session(session);
    const bool detected = !r.all_pass();
    if (detected) ++caught;
    std::cout << "  fault net " << faults[f].net << " stuck-at-"
              << (faults[f].stuck_one ? 1 : 0) << ": "
              << (detected ? "caught at pins" : "MISSED") << "\n";
  }
  soc->cores()[0].as_scan().gatesim().clear_forces();

  std::cout << "\n" << caught << "/" << injected
            << " injected scan-observable faults detected through the "
               "TAM\n";
  return caught == injected && clean.all_pass() ? 0 : 1;
}
