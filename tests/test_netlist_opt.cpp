// Tests for the logic optimizer: specific rewrites plus a randomized
// behavioral-equivalence property suite.

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/opt.hpp"
#include "tpg/synthcore.hpp"
#include "util/rng.hpp"

namespace casbus::netlist {
namespace {

TEST(Optimize, ConstantFoldsAndChain) {
  NetlistBuilder b("fold");
  const NetId a = b.input("a");
  const NetId one = b.const1();
  const NetId zero = b.const0();
  // y = (a & 1) | 0  ->  a
  b.output("y", b.or2(b.and2(a, one), zero));
  const Netlist opt = optimize(b.take());
  // Everything folds away: output reads the input net directly.
  EXPECT_EQ(opt.cell_count(), 0u);
  EXPECT_EQ(opt.outputs()[0].net, opt.inputs()[0].net);
}

TEST(Optimize, DoubleNegationCollapses) {
  NetlistBuilder b("dneg");
  const NetId a = b.input("a");
  b.output("y", b.not_(b.not_(a)));
  const Netlist opt = optimize(b.take());
  EXPECT_EQ(opt.cell_count(), 0u);
}

TEST(Optimize, XorWithConstOneBecomesNot) {
  NetlistBuilder b("x1");
  const NetId a = b.input("a");
  b.output("y", b.xor2(a, b.const1()));
  const Netlist opt = optimize(b.take());
  ASSERT_EQ(opt.cell_count(), 1u);
  EXPECT_EQ(opt.cells()[0].kind, CellKind::Not);
}

TEST(Optimize, SharesStructuralDuplicates) {
  NetlistBuilder b("cse");
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  // Two identical ANDs (one with swapped inputs: commutative match) feeding
  // an XOR -> XOR(x, x) -> constant 0.
  const NetId x1 = b.and2(a, c);
  const NetId x2 = b.and2(c, a);
  b.output("y", b.xor2(x1, x2));
  const Netlist opt = optimize(b.take());
  // y must be the constant 0 cell only.
  ASSERT_EQ(opt.cell_count(), 1u);
  EXPECT_EQ(opt.cells()[0].kind, CellKind::Const0);
}

TEST(Optimize, DeadLogicEliminated) {
  NetlistBuilder b("dce");
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  (void)b.xor2(b.and2(a, c), c);  // unread cone
  b.output("y", b.not_(a));
  const Netlist opt = optimize(b.take());
  EXPECT_EQ(opt.cell_count(), 1u);
}

TEST(Optimize, MuxConstantSelect) {
  NetlistBuilder b("muxk");
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  b.output("y", b.mux2(b.const1(), a, c));  // always selects b
  const Netlist opt = optimize(b.take());
  EXPECT_EQ(opt.cell_count(), 0u);
  EXPECT_EQ(opt.outputs()[0].net, opt.inputs()[1].net);
}

TEST(Optimize, KeepsSequentialCells) {
  NetlistBuilder b("seq");
  const NetId a = b.input("a");
  b.output("q", b.dff(b.and2(a, b.const1())));
  const Netlist opt = optimize(b.take());
  EXPECT_EQ(opt.dff_count(), 1u);
}

TEST(Optimize, PreservesPortOrderAndNames) {
  NetlistBuilder b("ports");
  const NetId a = b.input("first");
  const NetId c = b.input("second");
  b.output("out0", b.and2(a, c));
  b.output("out1", b.or2(a, c));
  const Netlist opt = optimize(b.take());
  EXPECT_EQ(opt.inputs()[0].name, "first");
  EXPECT_EQ(opt.inputs()[1].name, "second");
  EXPECT_EQ(opt.outputs()[0].name, "out0");
  EXPECT_EQ(opt.outputs()[1].name, "out1");
}

/// Property: optimization preserves the sequential behavior of random
/// synthetic cores over random stimulus, cycle by cycle.
class OptimizeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeEquivalence, RandomCoreUnchangedByOptimization) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 6;
  spec.n_outputs = 5;
  spec.n_flipflops = 8;
  spec.n_gates = 60;
  spec.n_chains = 2;
  spec.seed = GetParam();
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  const Netlist opt = optimize(core.netlist());
  EXPECT_LE(opt.cell_count(), core.netlist().cell_count());
  // The pipeline stops at its fixpoint inside the iteration cap: a second
  // run finds nothing left to remove.
  EXPECT_EQ(optimize(opt).cell_count(), opt.cell_count());

  GateSim ref(core.netlist());
  GateSim dut(opt);
  ref.reset();
  dut.reset();

  Rng rng(spec.seed * 77 + 1);
  for (int cycle = 0; cycle < 64; ++cycle) {
    for (const auto& port : core.netlist().inputs()) {
      const bool v = rng.coin();
      ref.set_input(port.name, v);
      dut.set_input(port.name, v);
    }
    ref.eval();
    dut.eval();
    for (const auto& port : core.netlist().outputs()) {
      EXPECT_EQ(ref.output(port.name), dut.output(port.name))
          << "seed " << spec.seed << " cycle " << cycle << " port "
          << port.name;
    }
    ref.tick();
    dut.tick();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace casbus::netlist
