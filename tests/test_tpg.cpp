// Tests for the test-pattern infrastructure: LFSR/MISR, pattern sets,
// synthetic cores, fault simulation and ATPG.

#include <gtest/gtest.h>

#include <set>

#include "netlist/builder.hpp"
#include "netlist/gatesim.hpp"
#include "tpg/atpg.hpp"
#include "tpg/fault.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/patterns.hpp"
#include "tpg/synthcore.hpp"
#include "util/rng.hpp"

namespace casbus::tpg {
namespace {

class LfsrPeriod : public ::testing::TestWithParam<unsigned> {};

TEST_P(LfsrPeriod, PrimitivePolynomialReachesMaximalLength) {
  const unsigned width = GetParam();
  Lfsr lfsr = Lfsr::standard(width, 1);
  const std::uint32_t start = lfsr.state();
  std::uint64_t period = 0;
  do {
    lfsr.step();
    ++period;
    ASSERT_NE(lfsr.state(), 0u) << "LFSR fell into the all-zero state";
    ASSERT_LE(period, lfsr.max_period());
  } while (lfsr.state() != start);
  EXPECT_EQ(period, lfsr.max_period()) << "width " << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriod,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(LfsrTest, RejectsZeroSeedAndBadWidth) {
  EXPECT_THROW(Lfsr(4, 0b1100, 0), PreconditionError);
  EXPECT_THROW(Lfsr(1, 1, 1), PreconditionError);
  EXPECT_THROW(Lfsr(33, 1, 1), PreconditionError);
  EXPECT_THROW(Lfsr(4, 0, 1), PreconditionError);
}

TEST(LfsrTest, OutputBitIsStageZero) {
  Lfsr lfsr(3, 0b110, 0b001);
  EXPECT_TRUE(lfsr.step());  // state bit0 was 1
}

TEST(MisrTest, OrderSensitivity) {
  // The MISR must distinguish response streams that a plain XOR-parity
  // compactor cannot (order matters).
  Misr m1(8), m2(8);
  m1.feed_word(0x0F);
  m1.feed_word(0xF0);
  m2.feed_word(0xF0);
  m2.feed_word(0x0F);
  EXPECT_NE(m1.signature(), m2.signature());
}

TEST(MisrTest, DeterministicAndResettable) {
  Misr m(16);
  for (std::uint32_t i = 0; i < 100; ++i) m.feed_word(i * 2654435761u);
  const std::uint32_t sig = m.signature();
  m.reset();
  EXPECT_EQ(m.signature(), 0u);
  for (std::uint32_t i = 0; i < 100; ++i) m.feed_word(i * 2654435761u);
  EXPECT_EQ(m.signature(), sig);
}

TEST(MisrTest, SingleBitErrorAlwaysDetected) {
  // Property: flipping any single response bit changes the signature
  // (linear compactor: error signature = error polynomial shifted, != 0).
  Rng rng(3);
  std::vector<std::uint32_t> words(40);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.below(256));
  Misr ref(8);
  for (const auto w : words) ref.feed_word(w);
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      Misr dut(8);
      for (std::size_t j = 0; j < words.size(); ++j)
        dut.feed_word(j == i ? (words[j] ^ (1u << bit)) : words[j]);
      EXPECT_NE(dut.signature(), ref.signature())
          << "word " << i << " bit " << bit;
    }
  }
}

TEST(PatternSetTest, GeneratorsProduceDocumentedShapes) {
  Rng rng(1);
  const PatternSet r = PatternSet::random(10, 20, rng);
  EXPECT_EQ(r.size(), 20u);
  EXPECT_EQ(r.width(), 10u);

  const PatternSet w = PatternSet::walking(4);
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w.at(0).to_string(), "1000");
  EXPECT_EQ(w.at(3).to_string(), "0001");
  EXPECT_EQ(w.at(4).to_string(), "0111");

  const PatternSet c = PatternSet::counting(3, 8);
  EXPECT_EQ(c.at(5).to_uint(), 5u);

  const PatternSet e = PatternSet::exhaustive(4);
  EXPECT_EQ(e.size(), 16u);
  EXPECT_THROW(PatternSet::exhaustive(21), PreconditionError);
}

TEST(PatternSetTest, AddEnforcesWidth) {
  PatternSet ps(4);
  ps.add(BitVector(4));
  EXPECT_THROW(ps.add(BitVector(5)), PreconditionError);
}

TEST(SyntheticCoreTest, GeneratesRequestedGeometry) {
  SyntheticCoreSpec spec;
  spec.n_inputs = 5;
  spec.n_outputs = 4;
  spec.n_flipflops = 12;
  spec.n_gates = 40;
  spec.n_chains = 3;
  spec.seed = 99;
  const SyntheticCore core = make_synthetic_core(spec);
  EXPECT_EQ(core.netlist.inputs().size(), 5u + 1u + 3u);  // pi + scan_en + si
  EXPECT_EQ(core.netlist.outputs().size(), 4u + 3u);      // po + so
  EXPECT_EQ(core.netlist.dff_count(), 12u);
  EXPECT_EQ(core.chains.size(), 3u);
  EXPECT_EQ(core.max_chain_length(), 4u);
  std::size_t total = 0;
  for (const auto& c : core.chains) total += c.size();
  EXPECT_EQ(total, 12u);
}

TEST(SyntheticCoreTest, DeterministicPerSeed) {
  SyntheticCoreSpec spec;
  spec.seed = 5;
  const SyntheticCore a = make_synthetic_core(spec);
  const SyntheticCore b = make_synthetic_core(spec);
  EXPECT_EQ(a.netlist.cell_count(), b.netlist.cell_count());
  spec.seed = 6;
  const SyntheticCore c = make_synthetic_core(spec);
  // Different seed gives a structurally different cloud (counts can match,
  // but the cells' wiring shouldn't be identical).
  bool differs = a.netlist.cell_count() != c.netlist.cell_count();
  if (!differs) {
    for (std::size_t i = 0; i < a.netlist.cell_count(); ++i) {
      if (a.netlist.cells()[i].kind != c.netlist.cells()[i].kind ||
          a.netlist.cells()[i].in != c.netlist.cells()[i].in) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticCoreTest, ScanChainShiftsThrough) {
  // Shift a marker through chain 0 with scan_en=1 and watch it at so0
  // after exactly len(chain0) ticks.
  SyntheticCoreSpec spec;
  spec.n_flipflops = 8;
  spec.n_chains = 2;
  spec.seed = 4;
  const SyntheticCore core = make_synthetic_core(spec);
  netlist::GateSim sim(core.netlist);
  sim.reset();
  for (const auto& port : core.netlist.inputs())
    sim.set_input(port.name, false);
  sim.set_input("scan_en", true);

  const std::size_t len = core.chains[0].size();
  sim.set_input("si0", true);
  sim.eval();
  for (std::size_t t = 0; t < len; ++t) {
    EXPECT_EQ(sim.output("so0"), Logic4::Zero) << "tick " << t;
    sim.tick();
    sim.set_input("si0", false);
    sim.eval();
  }
  EXPECT_EQ(sim.output("so0"), Logic4::One);
}

TEST(SyntheticCoreTest, RejectsBadChainCount) {
  SyntheticCoreSpec spec;
  spec.n_flipflops = 4;
  spec.n_chains = 5;
  EXPECT_THROW((void)make_synthetic_core(spec), PreconditionError);
}

TEST(FaultTest, EnumerationSkipsConstants) {
  netlist::NetlistBuilder b("f");
  const auto a = b.input("a");
  const auto k1 = b.const1();
  b.output("y", b.and2(a, k1));
  const netlist::Netlist nl = b.take();
  const auto faults = enumerate_faults(nl);
  // Nets: a, const1, and-out -> const net excluded -> 2 nets x 2 faults.
  EXPECT_EQ(faults.size(), 4u);
}

TEST(FaultSimTest, DetectsManuallyInjectedFault) {
  // y = a AND b: stuck-at-0 on the output is detected by (1,1) and only
  // by (1,1); stuck-at-1 by any pattern with a 0 input.
  netlist::NetlistBuilder b("af");
  const auto a = b.input("a");
  const auto c = b.input("b");
  const auto y = b.and2(a, c);
  b.output("y", y);
  const netlist::Netlist nl = b.take();
  FaultSimulator fsim(nl);
  EXPECT_EQ(fsim.pattern_width(), 2u);
  EXPECT_EQ(fsim.response_width(), 1u);

  const Fault sa0{y, false};
  const Fault sa1{y, true};
  EXPECT_TRUE(fsim.detects(BitVector::from_string("11"), sa0));
  EXPECT_FALSE(fsim.detects(BitVector::from_string("01"), sa0));
  EXPECT_TRUE(fsim.detects(BitVector::from_string("01"), sa1));
  EXPECT_FALSE(fsim.detects(BitVector::from_string("11"), sa1));
}

TEST(FaultSimTest, ExhaustivePatternsDetectAllFaultsOnSmallCircuit) {
  // Fully-testable combinational circuit: exhaustive patterns must reach
  // 100% stuck-at coverage.
  netlist::NetlistBuilder b("full");
  const auto a = b.input("a");
  const auto c = b.input("b");
  const auto d = b.input("c");
  b.output("y", b.xor2(b.and2(a, c), d));
  const netlist::Netlist nl = b.take();
  FaultSimulator fsim(nl);
  const auto faults = enumerate_faults(nl);
  const auto report = fsim.run(PatternSet::exhaustive(3), faults);
  EXPECT_EQ(report.detected, report.total_faults);
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
}

TEST(FaultSimTest, RedundantLogicYieldsUndetectableFault) {
  // y = a OR (a AND b): the AND gate is redundant; its stuck-at-0 is
  // undetectable. Coverage must be < 100% even exhaustively.
  netlist::NetlistBuilder b("red");
  const auto a = b.input("a");
  const auto c = b.input("b");
  b.output("y", b.or2(a, b.and2(a, c)));
  const netlist::Netlist nl = b.take();
  FaultSimulator fsim(nl);
  const auto faults = enumerate_faults(nl);
  const auto report = fsim.run(PatternSet::exhaustive(2), faults);
  EXPECT_LT(report.detected, report.total_faults);
}

TEST(FaultSimTest, PinnedInputsAreExcludedFromPatterns) {
  SyntheticCoreSpec spec;
  spec.n_inputs = 4;
  spec.n_flipflops = 4;
  spec.n_chains = 1;
  spec.seed = 7;
  const SyntheticCore core = make_synthetic_core(spec);
  FaultSimulator fsim(core.netlist);
  const std::size_t before = fsim.pattern_width();
  fsim.pin_input("scan_en", false);
  fsim.pin_input("si0", false);
  EXPECT_EQ(fsim.pattern_width(), before - 2);
  EXPECT_THROW(fsim.pin_input("nonexistent", false), PreconditionError);
}

TEST(FaultSimTest, GoodResponseMatchesDirectSimulation) {
  SyntheticCoreSpec spec;
  spec.seed = 11;
  spec.n_flipflops = 6;
  spec.n_gates = 30;
  const SyntheticCore core = make_synthetic_core(spec);
  FaultSimulator fsim(core.netlist);
  fsim.pin_input("scan_en", false);
  fsim.pin_input("si0", false);

  Rng rng(2);
  BitVector pattern(fsim.pattern_width());
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern.set(i, rng.coin());
  const BitVector r1 = fsim.good_response(pattern);
  const BitVector r2 = fsim.good_response(pattern);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1.size(), fsim.response_width());
}

TEST(FaultSimTest, BatchedGoodResponsesMatchScalarSimulation) {
  // 150 patterns: two full 64-lane passes and a partial third, with both
  // pinned and free inputs, against the scalar GateSim as reference.
  SyntheticCoreSpec spec;
  spec.seed = 12;
  spec.n_inputs = 4;
  spec.n_outputs = 5;
  spec.n_flipflops = 9;
  spec.n_gates = 40;
  const SyntheticCore core = make_synthetic_core(spec);
  FaultSimulator fsim(core.netlist);
  fsim.pin_input("scan_en", false);
  fsim.pin_input("si0", true);

  Rng rng(5);
  const PatternSet patterns =
      PatternSet::random(fsim.pattern_width(), 150, rng);
  std::vector<const BitVector*> batch;
  for (std::size_t p = 0; p < patterns.size(); ++p)
    batch.push_back(&patterns.at(p));
  const std::vector<BitVector> responses = fsim.good_responses(batch);
  ASSERT_EQ(responses.size(), patterns.size());

  netlist::GateSim ref(core.netlist);
  const netlist::Netlist& nl = ref.design();
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    // Pattern image: free inputs in port order, then flip-flops.
    std::size_t bit = 0;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const std::string& name = nl.inputs()[i].name;
      if (name == "scan_en")
        ref.set_input_index(i, Logic4::Zero);
      else if (name == "si0")
        ref.set_input_index(i, Logic4::One);
      else
        ref.set_input_index(i, to_logic(patterns.at(p).get(bit++)));
    }
    for (std::size_t f = 0; f < ref.dff_count(); ++f)
      ref.set_dff_state(f, to_logic(patterns.at(p).get(bit++)));
    ref.eval();
    // Response image: primary outputs, then flip-flop D pins.
    BitVector want(fsim.response_width());
    std::size_t r = 0;
    for (std::size_t o = 0; o < nl.outputs().size(); ++o)
      want.set(r++, ref.output_index(o) == Logic4::One);
    for (const netlist::CellId id : ref.levelized()->dff_cells())
      want.set(r++, ref.net_value(nl.cell(id).in[0]) == Logic4::One);
    EXPECT_EQ(responses[p], want) << "pattern " << p;
    EXPECT_EQ(fsim.good_response(patterns.at(p)), want) << "pattern " << p;
  }
}

TEST(AtpgTest, ReachesTargetCoverageOnSyntheticCore) {
  SyntheticCoreSpec spec;
  spec.n_inputs = 6;
  spec.n_outputs = 6;
  spec.n_flipflops = 8;
  spec.n_gates = 50;
  spec.seed = 21;
  const SyntheticCore core = make_synthetic_core(spec);

  AtpgOptions opts;
  opts.target_coverage = 0.90;
  opts.max_candidates = 2000;
  opts.pinned_inputs = {{"scan_en", false}, {"si0", false}};
  const AtpgResult res = generate_patterns(core.netlist, opts);
  EXPECT_GE(res.coverage(), 0.90);
  EXPECT_GT(res.patterns.size(), 0u);
  EXPECT_LE(res.patterns.size(), opts.max_patterns);
}

TEST(AtpgTest, EveryKeptPatternEarnedItsPlace) {
  SyntheticCoreSpec spec;
  spec.seed = 22;
  spec.n_gates = 30;
  const SyntheticCore core = make_synthetic_core(spec);
  AtpgOptions opts;
  opts.max_candidates = 500;
  opts.pinned_inputs = {{"scan_en", false}, {"si0", false}};
  const AtpgResult res = generate_patterns(core.netlist, opts);

  // Replay: with fault dropping in the same order, each pattern detects at
  // least one new fault.
  FaultSimulator fsim(core.netlist);
  for (const auto& [name, v] : opts.pinned_inputs) fsim.pin_input(name, v);
  const auto faults = enumerate_faults(core.netlist);
  const auto report = fsim.run(res.patterns, faults);
  for (std::size_t p = 0; p < res.patterns.size(); ++p)
    EXPECT_GT(report.per_pattern[p], 0u) << "pattern " << p;
  EXPECT_EQ(report.detected, res.detected);
}

}  // namespace
}  // namespace casbus::tpg
