// SoC integration tests: full test sessions running end-to-end through the
// CAS-BUS, driven only through chip-level test pins.

#include <gtest/gtest.h>

#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "soc/traffic.hpp"
#include "tpg/patterns.hpp"
#include "util/rng.hpp"

namespace casbus::soc {
namespace {

tpg::SyntheticCoreSpec small_core(std::uint64_t seed, std::size_t chains,
                                  std::size_t ffs = 12) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 4;
  spec.n_outputs = 4;
  spec.n_flipflops = ffs;
  spec.n_gates = 40;
  spec.n_chains = chains;
  spec.seed = seed;
  return spec;
}

/// Random flip-flop patterns for a scan core.
tpg::PatternSet ff_patterns(const tpg::SyntheticCoreSpec& spec,
                            std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  return tpg::PatternSet::random(spec.n_flipflops, count, rng);
}

/// Looks up the net of a named signal inside a core's netlist.
netlist::NetId net_by_name(const netlist::Netlist& nl,
                           const std::string& name) {
  for (const auto& [net, nm] : nl.net_names())
    if (nm == name) return net;
  ADD_FAILURE() << "net not found: " << name;
  return netlist::kNoNet;
}

TEST(SocBuilder, RejectsTwoConnectionsIntoOnePin) {
  SocBuilder b(4);
  b.add_scan_core("a", small_core(1, 1));
  b.add_scan_core("b", small_core(2, 1));
  b.connect("a", 0, "b", 1);
  b.connect("a", 1, "b", 1);  // second driver of b's input pin 1
  try {
    (void)b.build();
    FAIL() << "two connections into one pin were accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("core b"), std::string::npos) << what;
    EXPECT_NE(what.find("pin 1"), std::string::npos) << what;
  }

  // Distinct destination pins, and one source fanning out, stay legal.
  SocBuilder ok(4);
  ok.add_scan_core("a", small_core(1, 1));
  ok.add_scan_core("b", small_core(2, 1));
  ok.connect("a", 0, "b", 0);
  ok.connect("a", 0, "b", 1);
  EXPECT_NE(ok.build(), nullptr);
}

TEST(SocBuilderTest, AssemblesFigureOneStyleSoc) {
  SocBuilder b(8);
  b.add_scan_core("core1", small_core(1, 2));
  b.add_scan_core("core2", small_core(2, 4));
  b.add_bist_core("core3", small_core(3, 1), 64);
  b.add_external_core("core4", small_core(4, 3));  // forced to 1 chain
  b.add_memory_core("core5", 16, 8);
  b.add_hierarchical_core(
      "core6", 2, {{"subA", small_core(6, 1)}, {"subB", small_core(7, 2)}});
  auto soc = b.build();

  EXPECT_EQ(soc->core_count(), 6u);
  EXPECT_EQ(soc->bus().size(), 6u);  // one CAS per top-level core
  EXPECT_EQ(soc->bus().width(), 8u);
  // Wrapper ring: 5 top-level wrappers + 2 children.
  EXPECT_EQ(soc->wrapper_ring().size(), 7u);
  // External cores collapse to one chain (Fig. 2c).
  EXPECT_EQ(soc->cores()[3].as_scan().synth().spec.n_chains, 1u);
  // CAS geometries follow the paper's P rules.
  EXPECT_EQ(soc->bus().cas(0).p(), 2u);   // scan: P = chains
  EXPECT_EQ(soc->bus().cas(2).p(), 1u);   // BIST: P = 1
  EXPECT_EQ(soc->bus().cas(4).p(), 1u);   // memory: P = 1
  EXPECT_EQ(soc->bus().cas(5).p(), 2u);   // hierarchical: P = child width
  EXPECT_EQ(soc->cores()[5].hier->bus->size(), 2u);
}

TEST(SocTesterTest, WrapperRingLoadsDistinctInstructions) {
  SocBuilder b(4);
  b.add_scan_core("a", small_core(1, 1));
  b.add_scan_core("bb", small_core(2, 1));
  b.add_bist_core("c", small_core(3, 1), 32);
  auto soc = b.build();
  SocTester tester(*soc);

  tester.load_wrapper_instructions({p1500::WrapperInstr::IntestParallel,
                                    p1500::WrapperInstr::Preload,
                                    p1500::WrapperInstr::Bist});
  EXPECT_EQ(soc->wrapper_ring()[0]->instruction(),
            p1500::WrapperInstr::IntestParallel);
  EXPECT_EQ(soc->wrapper_ring()[1]->instruction(),
            p1500::WrapperInstr::Preload);
  EXPECT_EQ(soc->wrapper_ring()[2]->instruction(),
            p1500::WrapperInstr::Bist);
}

TEST(SocTesterTest, SingleCoreScanSessionPasses) {
  const auto spec = small_core(11, 2);
  SocBuilder b(4);
  b.add_scan_core("dut", spec);
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession session;
  session.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {0, 2}, ff_patterns(spec, 5, 9)});
  const ScanSessionResult r = tester.run_scan_session(session);

  ASSERT_EQ(r.targets.size(), 1u);
  EXPECT_EQ(r.targets[0].patterns_applied, 5u);
  EXPECT_GT(r.targets[0].response_bits, 0u);
  EXPECT_EQ(r.targets[0].mismatches, 0u);
  EXPECT_TRUE(r.all_pass());
  EXPECT_GT(r.configure_cycles, 0u);
}

TEST(SocTesterTest, ScanSessionCycleCountMatchesFormula) {
  // Test time = V*(maxlen+1) + maxlen: the standard scan formula the
  // scheduler module predicts analytically.
  const auto spec = small_core(21, 2, 12);  // chains of 6 and 6
  SocBuilder b(4);
  b.add_scan_core("dut", spec);
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession session;
  const std::size_t v = 4;
  session.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {1, 3}, ff_patterns(spec, v, 2)});
  const ScanSessionResult r = tester.run_scan_session(session);
  const std::size_t maxlen = 6;
  EXPECT_EQ(r.test_cycles, v * (maxlen + 1) + maxlen);
  EXPECT_TRUE(r.all_pass());
}

TEST(SocTesterTest, ParallelCoresOnDisjointWires) {
  const auto sa = small_core(31, 2, 10);
  const auto sb = small_core(32, 2, 14);
  SocBuilder b(4);
  b.add_scan_core("a", sa);
  b.add_scan_core("bb", sb);
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession session;
  session.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {0, 1}, ff_patterns(sa, 4, 5)});
  session.targets.push_back(
      ScanTarget{CoreRef{1, std::nullopt}, {2, 3}, ff_patterns(sb, 6, 6)});
  const ScanSessionResult r = tester.run_scan_session(session);

  EXPECT_TRUE(r.all_pass());
  EXPECT_EQ(r.targets[0].patterns_applied, 4u);
  EXPECT_EQ(r.targets[1].patterns_applied, 6u);
  // Both cores tested concurrently: time driven by the larger (7-bit
  // chains, 6 patterns): 6*(7+1)+7 = 55.
  EXPECT_EQ(r.test_cycles, 6u * 8u + 7u);
}

TEST(SocTesterTest, TwoCoresShareOneWireAsDaisyChain) {
  // Both cores' single chains ride wire 2: they concatenate in bus order
  // (paper §4: the test programmer balances scan chains across wires).
  const auto sa = small_core(41, 1, 8);
  const auto sb = small_core(42, 1, 6);
  SocBuilder b(4);
  b.add_scan_core("a", sa);
  b.add_scan_core("bb", sb);
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession session;
  session.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {2}, ff_patterns(sa, 3, 7)});
  session.targets.push_back(
      ScanTarget{CoreRef{1, std::nullopt}, {2}, ff_patterns(sb, 3, 8)});
  const ScanSessionResult r = tester.run_scan_session(session);

  EXPECT_TRUE(r.all_pass());
  // Composite chain = 8 + 6 = 14 bits.
  EXPECT_EQ(r.test_cycles, 3u * (14u + 1u) + 14u);
}

TEST(SocTesterTest, ScanSessionDetectsInjectedStuckAt) {
  const auto spec = small_core(51, 2);
  SocBuilder b(4);
  b.add_scan_core("dut", spec);
  auto soc = b.build();
  SocTester tester(*soc);

  // Stuck-at-1 on flip-flop 0's output: scan responses must diverge from
  // the golden model.
  NetlistCore& core = soc->cores()[0].as_scan();
  const netlist::NetId ffq = net_by_name(core.synth().netlist(), "ff_q0");
  core.gatesim().set_force(ffq, Logic4::One);

  ScanSession session;
  session.targets.push_back(ScanTarget{
      CoreRef{0, std::nullopt}, {0, 1}, ff_patterns(spec, 6, 3)});
  const ScanSessionResult r = tester.run_scan_session(session);
  EXPECT_GT(r.targets[0].mismatches, 0u);
  EXPECT_FALSE(r.all_pass());
}

TEST(SocTesterTest, DiagnosisLocatesTheFaultyFlipFlop) {
  // A stuck-at on one flip-flop: every located mismatch must point at a
  // plausible victim, and the stuck FF itself must appear among them
  // (the stuck cell corrupts its own captured value on most patterns).
  const auto spec = small_core(55, 2);
  SocBuilder b(4);
  b.add_scan_core("dut", spec);
  auto soc = b.build();
  SocTester tester(*soc);

  NetlistCore& core = soc->cores()[0].as_scan();
  const netlist::NetId ffq = net_by_name(core.synth().netlist(), "ff_q3");
  core.gatesim().set_force(ffq, Logic4::One);

  ScanSession session;
  session.targets.push_back(ScanTarget{
      CoreRef{0, std::nullopt}, {1, 3}, ff_patterns(spec, 8, 4)});
  const ScanSessionResult r = tester.run_scan_session(session);
  ASSERT_GT(r.targets[0].mismatches, 0u);
  ASSERT_FALSE(r.targets[0].diagnoses.empty());

  bool saw_victim = false;
  for (const ScanDiagnosis& d : r.targets[0].diagnoses) {
    // Consistency: the (chain, position) pair maps back to the flip-flop.
    EXPECT_EQ(core.synth().chains[d.chain][d.position], d.flipflop);
    if (d.flipflop == 3) saw_victim = true;
  }
  EXPECT_TRUE(saw_victim) << "diagnosis should implicate ff3";
}

TEST(SocTesterTest, BistCorePassesAndFailsThroughTheBus) {
  SocBuilder b(4);
  b.add_scan_core("filler", small_core(61, 1));
  b.add_bist_core("dut", small_core(62, 1), 48);
  auto soc = b.build();
  SocTester tester(*soc);

  BistCore& bist = soc->cores()[1].as_bist();
  const BistRunResult ok = tester.run_bist(1, 3, 48);
  EXPECT_TRUE(ok.completed);
  EXPECT_TRUE(ok.pass);

  // Any stuck net inside the BISTed logic flips the signature. The spec is
  // deterministic, so regenerating it yields identical net numbering.
  const netlist::NetId ffq = net_by_name(
      tpg::make_synthetic_core(small_core(62, 1)).netlist(), "ff_q1");
  bist.inject_fault(ffq, true);
  const BistRunResult bad = tester.run_bist(1, 2, 48);
  EXPECT_TRUE(bad.completed);
  EXPECT_FALSE(bad.pass);
}

TEST(SocTesterTest, MemoryMbistDetectsStuckBit) {
  SocBuilder b(3);
  b.add_memory_core("ram", 16, 8);
  auto soc = b.build();
  SocTester tester(*soc);
  MemoryCore& ram = soc->cores()[0].as_memory();

  const BistRunResult ok = tester.run_bist(0, 1, ram.mbist_cycles());
  EXPECT_TRUE(ok.pass) << "fault-free MARCH C- must pass";

  ram.inject_stuck_bit(5, 3, true);
  const BistRunResult bad = tester.run_bist(0, 1, ram.mbist_cycles());
  EXPECT_FALSE(bad.pass) << "MARCH C- must catch a stuck bit";
}

TEST(SocTesterTest, HierarchicalChildScanThroughParent) {
  const auto child_spec = small_core(71, 1, 8);
  SocBuilder b(6);
  b.add_scan_core("top", small_core(72, 1));
  b.add_hierarchical_core("sub", 2,
                          {{"inner0", child_spec},
                           {"inner1", small_core(73, 1, 6)}});
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession session;
  // Child bus wires 0,1 carried by top wires 4,5.
  session.routes.push_back(HierarchyRoute{1, {4, 5}});
  // inner0's chain on top wire 4 (child wire 0).
  session.targets.push_back(
      ScanTarget{CoreRef{1, 0}, {4}, ff_patterns(child_spec, 4, 11)});
  const ScanSessionResult r = tester.run_scan_session(session);

  ASSERT_EQ(r.targets.size(), 1u);
  EXPECT_EQ(r.targets[0].patterns_applied, 4u);
  EXPECT_TRUE(r.all_pass()) << "mismatches: " << r.targets[0].mismatches;
}

TEST(SocTesterTest, HierarchicalBothChildrenInParallel) {
  const auto c0 = small_core(81, 1, 8);
  const auto c1 = small_core(82, 1, 6);
  SocBuilder b(6);
  b.add_scan_core("top", small_core(83, 2));
  b.add_hierarchical_core("sub", 2, {{"i0", c0}, {"i1", c1}});
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession session;
  session.routes.push_back(HierarchyRoute{1, {0, 3}});
  session.targets.push_back(
      ScanTarget{CoreRef{1, 0}, {0}, ff_patterns(c0, 3, 1)});
  session.targets.push_back(
      ScanTarget{CoreRef{1, 1}, {3}, ff_patterns(c1, 3, 2)});
  // The top core tests concurrently on the remaining wires.
  session.targets.push_back(ScanTarget{
      CoreRef{0, std::nullopt}, {1, 2}, ff_patterns(small_core(83, 2), 3, 3)});
  const ScanSessionResult r = tester.run_scan_session(session);
  EXPECT_TRUE(r.all_pass());
  EXPECT_EQ(r.targets[0].patterns_applied, 3u);
  EXPECT_EQ(r.targets[1].patterns_applied, 3u);
  EXPECT_EQ(r.targets[2].patterns_applied, 3u);
}

TEST(SocTesterTest, MaintenanceTestMemoryUnderTestTrafficUndisturbed) {
  // Paper §4: test an embedded memory while other cores keep working.
  SocBuilder b(4);
  b.add_memory_core("ram_test", 16, 8);
  b.add_memory_core("ram_live", 16, 8);
  auto soc = b.build();
  MemoryTraffic traffic(*soc, 1, 77);
  SocTester tester(*soc);

  traffic.set_enabled(true);
  tester.step(50);  // warm-up functional traffic
  EXPECT_GT(traffic.reads_checked(), 0u);
  EXPECT_EQ(traffic.mismatches(), 0u);

  // Maintenance session on ram_test; ram_live keeps serving traffic the
  // whole time (its wrapper stays in Bypass = functional).
  const std::uint64_t checked_before = traffic.reads_checked();
  const BistRunResult r = tester.run_bist(
      0, 2, soc->cores()[0].as_memory().mbist_cycles());
  EXPECT_TRUE(r.pass);
  EXPECT_GT(traffic.reads_checked(), checked_before)
      << "traffic must keep flowing during the maintenance test";
  EXPECT_EQ(traffic.mismatches(), 0u)
      << "maintenance test must not disturb functional traffic";
}

TEST(SocTesterTest, SessionValidatesChainAssignment) {
  const auto spec = small_core(91, 2);
  SocBuilder b(4);
  b.add_scan_core("dut", spec);
  auto soc = b.build();
  SocTester tester(*soc);

  ScanSession bad;
  bad.targets.push_back(ScanTarget{
      CoreRef{0, std::nullopt}, {0}, ff_patterns(spec, 1, 1)});  // 1 of 2
  EXPECT_THROW((void)tester.run_scan_session(bad), PreconditionError);

  ScanSession dup;
  dup.targets.push_back(ScanTarget{
      CoreRef{0, std::nullopt}, {1, 1}, ff_patterns(spec, 1, 1)});
  EXPECT_THROW((void)tester.run_scan_session(dup), PreconditionError);
}

TEST(SocTesterTest, ChildTargetWithoutRouteThrows) {
  SocBuilder b(4);
  b.add_hierarchical_core("sub", 1, {{"i0", small_core(95, 1)}});
  auto soc = b.build();
  SocTester tester(*soc);
  ScanSession s;
  s.targets.push_back(
      ScanTarget{CoreRef{0, 0}, {0}, ff_patterns(small_core(95, 1), 1, 1)});
  EXPECT_THROW((void)tester.run_scan_session(s), PreconditionError);
}

TEST(SocTesterTest, ReconfigurationAcrossSessions) {
  // Same SoC, two sessions with different wire assignments — the §4
  // dynamic-reconfiguration claim, cycle-accurate.
  const auto sa = small_core(101, 2, 12);
  const auto sb = small_core(102, 1, 16);
  SocBuilder b(3);
  b.add_scan_core("a", sa);
  b.add_scan_core("bb", sb);
  auto soc = b.build();
  SocTester tester(*soc);

  // Session 1: core a alone, wide (2 wires).
  ScanSession s1;
  s1.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {0, 1}, ff_patterns(sa, 3, 4)});
  const auto r1 = tester.run_scan_session(s1);
  EXPECT_TRUE(r1.all_pass());

  // Session 2 (after reconfiguration): core b on wire 0.
  ScanSession s2;
  s2.targets.push_back(
      ScanTarget{CoreRef{1, std::nullopt}, {0}, ff_patterns(sb, 3, 5)});
  const auto r2 = tester.run_scan_session(s2);
  EXPECT_TRUE(r2.all_pass());
}

}  // namespace
// The wrapper is registered before its core, so the core's gate-level
// simulator sweeps at most once per cycle: the wrapper has already driven
// this cycle's scan-in bits when the kernel evaluates the core (idle
// configuration cycles sweep not at all). Registered the other way round,
// the core swept a second time in every shift cycle, once the wrapper
// settled after it.
TEST(SocTesterTest, ScanSessionSweepsEachCoreOncePerCycle) {
  const auto spec = small_core(11, 1);
  SocBuilder b(2);
  b.add_scan_core("dut", spec);
  auto soc = b.build();
  SocTester tester(*soc);
  const std::uint64_t sweeps_before = tester.core_sweep_stats().run;
  const std::uint64_t cycles_before = tester.cycles();

  ScanSession session;
  session.targets.push_back(
      ScanTarget{CoreRef{0, std::nullopt}, {0}, ff_patterns(spec, 8, 9)});
  const ScanSessionResult r = tester.run_scan_session(session);
  ASSERT_TRUE(r.all_pass());

  const std::uint64_t sweeps = tester.core_sweep_stats().run - sweeps_before;
  const std::uint64_t cycles = tester.cycles() - cycles_before;
  EXPECT_GT(cycles, 0u);
  EXPECT_LE(sweeps, cycles) << sweeps << " sweeps in " << cycles
                            << " cycles";
}

}  // namespace casbus::soc
