// Randomized end-to-end property tests: arbitrary (seeded) SoCs under
// arbitrary valid test programs must pass fault-free and must detect an
// injected scan-observable fault. This is the widest net in the suite.

#include <gtest/gtest.h>

#include "soc/schedule_runner.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "tpg/patterns.hpp"
#include "util/rng.hpp"

namespace casbus::soc {
namespace {

struct FuzzWorld {
  std::unique_ptr<Soc> soc;
  std::vector<std::size_t> scan_cores;  // indices of scan-capable cores
  unsigned width;
};

FuzzWorld random_soc(Rng& rng) {
  FuzzWorld world;
  world.width = static_cast<unsigned>(2 + rng.below(5));  // 2..6 wires
  SocBuilder b(world.width);
  const std::size_t n_cores = 2 + rng.below(3);
  for (std::size_t i = 0; i < n_cores; ++i) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 2 + rng.below(5);
    spec.n_outputs = 2 + rng.below(5);
    spec.n_chains = 1 + rng.below(std::min<std::uint64_t>(2, world.width));
    spec.n_flipflops = spec.n_chains * (3 + rng.below(6));
    spec.n_gates = 20 + rng.below(60);
    spec.seed = rng.next();
    const std::string name = "core" + std::to_string(i);
    if (rng.coin(0.75)) {
      b.add_scan_core(name, spec);
      world.scan_cores.push_back(i);
    } else {
      b.add_bist_core(name, spec, 32 + rng.below(128));
    }
  }
  world.soc = b.build();
  return world;
}

/// Builds a random valid session over a subset of the scan cores:
/// each chain gets a distinct wire per core (CAS injectivity), wire
/// sharing across cores allowed.
ScanSession random_session(FuzzWorld& world, Rng& rng) {
  ScanSession session;
  for (const std::size_t c : world.scan_cores) {
    if (rng.coin(0.3)) continue;  // leave some cores out
    const auto& sc = world.soc->cores()[c].as_scan().synth();
    // Random distinct wires for this core's chains.
    std::vector<unsigned> wires;
    for (unsigned w = 0; w < world.width; ++w) wires.push_back(w);
    for (std::size_t k = wires.size(); k > 1; --k)
      std::swap(wires[k - 1], wires[rng.below(k)]);
    std::vector<unsigned> assign(wires.begin(),
                                 wires.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         sc.chains.size()));
    session.targets.push_back(ScanTarget{
        CoreRef{c, std::nullopt}, std::move(assign),
        tpg::PatternSet::random(sc.spec.n_flipflops, 2 + rng.below(6),
                                rng)});
  }
  return session;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, FaultFreeSocPassesRandomPrograms) {
  Rng rng(GetParam());
  FuzzWorld world = random_soc(rng);
  SocTester tester(*world.soc);

  for (int s = 0; s < 3; ++s) {
    const ScanSession session = random_session(world, rng);
    if (session.targets.empty()) continue;
    const ScanSessionResult r = tester.run_scan_session(session);
    EXPECT_TRUE(r.all_pass())
        << "seed " << GetParam() << " session " << s;
  }
}

TEST_P(Fuzz, InjectedFlipFlopFaultIsDetected) {
  Rng rng(GetParam() * 7919 + 1);
  FuzzWorld world = random_soc(rng);
  if (world.scan_cores.empty()) return;
  SocTester tester(*world.soc);

  // Stuck-at on a flip-flop output: with enough random patterns through
  // every chain, detection is near-certain (ff_q feeds the scan path).
  const std::size_t victim =
      world.scan_cores[rng.below(world.scan_cores.size())];
  NetlistCore& core = world.soc->cores()[victim].as_scan();
  const auto& nl = core.synth().netlist();
  netlist::NetId ffq = netlist::kNoNet;
  for (const auto& [net, name] : nl.net_names()) {
    if (name == "ff_q0") {
      ffq = net;
      break;
    }
  }
  ASSERT_NE(ffq, netlist::kNoNet);
  core.gatesim().set_force(ffq, Logic4::One);

  ScanSession session;
  const auto& sc = core.synth();
  std::vector<unsigned> assign;
  for (unsigned ch = 0; ch < sc.chains.size(); ++ch) assign.push_back(ch);
  session.targets.push_back(ScanTarget{
      CoreRef{victim, std::nullopt}, std::move(assign),
      tpg::PatternSet::random(sc.spec.n_flipflops, 12, rng)});
  const ScanSessionResult r = tester.run_scan_session(session);
  EXPECT_GT(r.targets[0].mismatches, 0u) << "seed " << GetParam();
}

TEST_P(Fuzz, BestScheduleExecutesOnRandomSocs) {
  Rng rng(GetParam() * 31 + 5);
  FuzzWorld world = random_soc(rng);
  SocTester tester(*world.soc);
  const auto specs = specs_of(*world.soc, 1);
  sched::SessionScheduler scheduler(specs, world.width);
  // best() may choose rail emulation (not executable); use the best
  // chip-synchronous strategy instead.
  sched::Schedule schedule = scheduler.greedy();
  for (const sched::Schedule& cand :
       {scheduler.single_session(), scheduler.phased(),
        scheduler.per_core_sessions()}) {
    if (cand.total_cycles < schedule.total_cycles) schedule = cand;
  }
  const ScheduleRunReport report =
      run_schedule(*world.soc, tester, specs, schedule, GetParam());
  EXPECT_TRUE(report.all_pass) << "seed " << GetParam();
  EXPECT_LT(report.deviation(), 0.10) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

}  // namespace
}  // namespace casbus::soc
