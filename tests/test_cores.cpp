// Unit tests for the core models: MemoryCore (functional port + MARCH C-),
// BistCore (engine semantics), and NetlistCore (clock gating, change-driven
// evaluation).

#include <gtest/gtest.h>

#include <utility>

#include "soc/bist_core.hpp"
#include "soc/core_model.hpp"
#include "soc/memory_core.hpp"
#include "util/rng.hpp"

namespace casbus::soc {
namespace {

/// Drives a memory's functional port directly (no wrapper).
struct MemFixture {
  sim::Simulation sim;
  MemoryCore mem{sim, "ram", 16, 8};

  MemFixture() {
    sim.add(&mem);
    sim.reset();
    sim.settle();
  }

  void op(bool we, std::size_t addr, std::uint64_t wdata = 0) {
    mem.terminals().func_in[0]->set(we);
    for (unsigned a = 0; a < mem.addr_bits(); ++a)
      mem.terminals().func_in[1 + a]->set(((addr >> a) & 1u) != 0);
    for (unsigned d = 0; d < mem.data_bits(); ++d)
      mem.terminals().func_in[1 + mem.addr_bits() + d]->set(
          ((wdata >> d) & 1ULL) != 0);
    sim.step();
  }

  std::uint64_t rdata() {
    sim.settle();
    std::uint64_t v = 0;
    for (unsigned d = 0; d < mem.data_bits(); ++d)
      if (mem.terminals().func_out[d]->get() == Logic4::One) v |= 1ULL << d;
    return v;
  }
};

TEST(MemoryCore, WriteThenReadBack) {
  MemFixture f;
  f.op(true, 5, 0xA7);
  EXPECT_EQ(f.rdata(), 0xA7u);  // write-through presents the new value
  f.op(false, 5);
  EXPECT_EQ(f.rdata(), 0xA7u);
  f.op(false, 6);
  EXPECT_EQ(f.rdata(), 0u);
  EXPECT_EQ(f.mem.peek(5), 0xA7u);
}

TEST(MemoryCore, RandomTrafficMirrorsModel) {
  MemFixture f;
  Rng rng(8);
  std::vector<std::uint64_t> mirror(16, 0);
  for (int i = 0; i < 300; ++i) {
    const std::size_t addr = rng.below(16);
    if (rng.coin()) {
      const std::uint64_t v = rng.below(256);
      f.op(true, addr, v);
      mirror[addr] = v;
    } else {
      f.op(false, addr);
      EXPECT_EQ(f.rdata(), mirror[addr]) << "op " << i;
    }
  }
}

TEST(MemoryCore, MarchLengthIsTenN) {
  MemFixture f;
  EXPECT_EQ(f.mem.mbist_cycles(), 160u);  // 10 * 16 words
  f.mem.terminals().bist_start->set(true);
  sim::Simulation& sim = f.sim;
  // The start-edge tick already executes the first march operation, so
  // the engine needs exactly 160 ticks total. One cycle early: not done.
  sim.step(159);
  sim.settle();
  EXPECT_EQ(f.mem.terminals().bist_done->get(), Logic4::Zero);
  sim.step(1);
  sim.settle();
  EXPECT_EQ(f.mem.terminals().bist_done->get(), Logic4::One);
  EXPECT_EQ(f.mem.terminals().bist_pass->get(), Logic4::One);
}

TEST(MemoryCore, MarchDetectsEveryStuckBitPosition) {
  // Property: MARCH C- catches a stuck-at at any (addr, bit, polarity).
  Rng rng(9);
  for (int trial = 0; trial < 12; ++trial) {
    MemFixture f;
    const auto addr = static_cast<std::size_t>(rng.below(16));
    const auto bit = static_cast<unsigned>(rng.below(8));
    const bool polarity = rng.coin();
    f.mem.inject_stuck_bit(addr, bit, polarity);
    f.mem.terminals().bist_start->set(true);
    f.sim.step(1 + f.mem.mbist_cycles());
    f.sim.settle();
    EXPECT_EQ(f.mem.terminals().bist_done->get(), Logic4::One);
    EXPECT_EQ(f.mem.terminals().bist_pass->get(), Logic4::Zero)
        << "addr " << addr << " bit " << bit << " stuck-" << polarity;
  }
}

TEST(MemoryCore, MarchDestroysContentsAsDocumented) {
  MemFixture f;
  f.op(true, 3, 0xFF);
  f.op(false, 0);  // release the write strobe before the march
  f.mem.terminals().bist_start->set(true);
  f.sim.step(1 + f.mem.mbist_cycles());
  EXPECT_EQ(f.mem.peek(3), 0u);  // MARCH C- ends with w0 sweep
}

TEST(MemoryCore, FunctionalPortFrozenDuringMbist) {
  MemFixture f;
  f.mem.terminals().bist_start->set(true);
  f.sim.step(5);  // engine running
  f.op(true, 2, 0x55);  // must be ignored while the march owns the array
  f.op(false, 0);       // release the strobe before the march completes
  f.sim.step(f.mem.mbist_cycles());
  EXPECT_EQ(f.mem.peek(2), 0u);
}

TEST(MemoryCore, ValidatesConstruction) {
  sim::Simulation sim;
  EXPECT_THROW(MemoryCore(sim, "x", 1, 8), PreconditionError);
  EXPECT_THROW(MemoryCore(sim, "x", 8, 0), PreconditionError);
  EXPECT_THROW(MemoryCore(sim, "x", 8, 65), PreconditionError);
  MemoryCore ok(sim, "ok", 8, 4);
  EXPECT_THROW(ok.inject_stuck_bit(8, 0, true), PreconditionError);
  EXPECT_THROW(ok.inject_stuck_bit(0, 4, true), PreconditionError);
}

tpg::SyntheticCoreSpec bist_logic(std::uint64_t seed) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 6;
  spec.n_outputs = 6;
  spec.n_flipflops = 8;
  spec.n_gates = 40;
  spec.seed = seed;
  return spec;
}

TEST(BistCore, GoldenSignatureIsDeterministic) {
  sim::Simulation s1, s2;
  BistCore a(s1, "a", bist_logic(5), 100);
  BistCore b(s2, "b", bist_logic(5), 100);
  EXPECT_EQ(a.golden_signature(), b.golden_signature());
  BistCore c(s2, "c", bist_logic(6), 100);
  EXPECT_NE(a.golden_signature(), c.golden_signature());
}

TEST(BistCore, CleanSessionSignatureIsTheReferenceSignature) {
  // A session run without faults stands in for the reference run; its
  // signature must be the one a separate fault-free reference run gives.
  sim::Simulation s1, s2;
  BistCore ran(s1, "ran", bist_logic(5), 100);
  s1.add(&ran);
  s1.reset();
  ran.terminals().bist_start->set(true);
  s1.step(102);
  s1.settle();
  ASSERT_EQ(ran.terminals().bist_pass->get(), Logic4::One);
  const BistCore ref(s2, "ref", bist_logic(5), 100);  // no session run
  EXPECT_EQ(ran.golden_signature(), ref.golden_signature());
}

TEST(BistCore, RunsToPassAndRestartsCleanly) {
  sim::Simulation sim;
  BistCore bist(sim, "dut", bist_logic(7), 64);
  sim.add(&bist);
  sim.reset();
  bist.terminals().bist_start->set(true);
  sim.step(66);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_done->get(), Logic4::One);
  EXPECT_EQ(bist.terminals().bist_pass->get(), Logic4::One);

  // Drop and re-raise start: a second session runs and passes again.
  bist.terminals().bist_start->set(false);
  sim.step(2);
  bist.terminals().bist_start->set(true);
  sim.step(2);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_done->get(), Logic4::Zero)
      << "restart must clear done";
  sim.step(64);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_pass->get(), Logic4::One);
}

TEST(BistCore, HeldStartDoesNotRetrigger) {
  sim::Simulation sim;
  BistCore bist(sim, "dut", bist_logic(8), 32);
  sim.add(&bist);
  sim.reset();
  bist.terminals().bist_start->set(true);
  sim.step(34);
  sim.settle();
  ASSERT_EQ(bist.terminals().bist_done->get(), Logic4::One);
  sim.step(20);  // start still high: engine must stay done
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_done->get(), Logic4::One);
}

TEST(BistCore, InjectedFaultFlipsVerdictAndClears) {
  sim::Simulation sim;
  BistCore bist(sim, "dut", bist_logic(9), 64);
  sim.add(&bist);
  sim.reset();
  // Fault on a flip-flop output of the core logic.
  const auto ref = tpg::make_synthetic_core(bist_logic(9));
  netlist::NetId ffq = netlist::kNoNet;
  for (const auto& [net, name] : ref.netlist().net_names())
    if (name == "ff_q0") ffq = net;
  ASSERT_NE(ffq, netlist::kNoNet);
  bist.inject_fault(ffq, true);

  bist.terminals().bist_start->set(true);
  sim.step(66);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_pass->get(), Logic4::Zero);

  bist.clear_faults();
  bist.terminals().bist_start->set(false);
  sim.step(2);
  bist.terminals().bist_start->set(true);
  sim.step(66);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_pass->get(), Logic4::One);
}

TEST(BistCore, ClockGatingFreezesEngine) {
  sim::Simulation sim;
  BistCore bist(sim, "dut", bist_logic(10), 32);
  sim.add(&bist);
  sim.reset();
  bist.terminals().core_clk_en->set(false);
  bist.terminals().bist_start->set(true);
  sim.step(100);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_done->get(), Logic4::Zero)
      << "gated clock: the engine must not have advanced";
  bist.terminals().core_clk_en->set(true);
  sim.step(34);
  sim.settle();
  EXPECT_EQ(bist.terminals().bist_done->get(), Logic4::One);
}

TEST(NetlistCore, ClockGatingHoldsState) {
  sim::Simulation sim;
  tpg::SyntheticCoreSpec spec;
  spec.n_flipflops = 6;
  spec.seed = 11;
  NetlistCore core(sim, "dut", tpg::make_synthetic_core(spec));
  sim.add(&core);
  sim.reset();
  // Run a few functional cycles to randomize state.
  core.terminals().func_in[0]->set(true);
  sim.step(5);
  std::vector<Logic4> snapshot;
  for (std::size_t f = 0; f < 6; ++f)
    snapshot.push_back(core.gatesim().dff_state(f));
  core.terminals().core_clk_en->set(false);
  sim.step(7);
  for (std::size_t f = 0; f < 6; ++f)
    EXPECT_EQ(core.gatesim().dff_state(f), snapshot[f]) << "ff " << f;
}

TEST(NetlistCore, ForceOnSettledCoreReachesOutputsOnNextSettle) {
  // A settled core whose inputs never change again is not evaluated at
  // all (nor does it sweep); a fault injected through gatesim() must
  // still show on the core's output wire at the next settle, because the
  // mutable accessor wakes the model.
  sim::Simulation sim;
  tpg::SyntheticCoreSpec spec;
  spec.seed = 23;
  NetlistCore core(sim, "dut", tpg::make_synthetic_core(spec));
  sim.add(&core);
  sim.reset();
  sim.settle();
  const sim::Simulation::KernelStats idle = sim.kernel_stats();
  const auto sweeps = std::as_const(core).gatesim().sweep_stats();
  sim.settle();  // idle: nothing changed
  EXPECT_EQ(sim.kernel_stats().evals, idle.evals);
  EXPECT_EQ(std::as_const(core).gatesim().sweep_stats().run, sweeps.run);

  sim::Wire& po0 = *core.terminals().func_out[0];
  const Logic4 before = po0.get();
  ASSERT_TRUE(is01(before));
  const netlist::NetId net = core.synth().netlist().outputs()[0].net;
  core.gatesim().set_force(net, logic_not(before));
  sim.settle();
  EXPECT_EQ(po0.get(), logic_not(before));

  core.gatesim().clear_forces();
  sim.settle();
  EXPECT_EQ(po0.get(), before);
}

}  // namespace
}  // namespace casbus::soc
