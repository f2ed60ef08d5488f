// Behavioral CAS tests: the three functional modes of paper Fig. 4, the
// serial configuration protocol, and dynamic reconfiguration.

#include <gtest/gtest.h>

#include <string>

#include "core/cas_behavior.hpp"
#include "core/config_protocol.hpp"
#include "core/test_bus.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace casbus::tam {
namespace {

/// Single-CAS fixture on a fresh simulation.
struct CasFixture {
  sim::Simulation sim;
  CasBusChain chain;
  CasBehavior* cas;

  CasFixture(unsigned n, unsigned p) : chain(sim, n, "bus") {
    cas = &chain.add_cas("cas0", p);
    sim.reset();
    chain.head().set_all(Logic4::Zero);
    for (std::size_t j = 0; j < p; ++j) chain.cas_i(0)[j].set(false);
  }

  /// Shifts `code` into the CAS instruction register and pulses update.
  void configure(std::uint64_t code) {
    chain.config_wire().set(true);
    const BitVector stream =
        build_cas_config_stream(chain, {code});
    for (std::size_t b = 0; b < stream.size(); ++b) {
      chain.head()[0].set(stream.get(b));
      sim.step();
    }
    chain.update_wire().set(true);
    sim.step();
    chain.update_wire().set(false);
    chain.config_wire().set(false);
    sim.settle();
  }
};

TEST(CasBehavior, ResetsToBypass) {
  CasFixture f(4, 2);
  f.chain.head().set_uint(0b1010);
  f.sim.settle();
  EXPECT_EQ(f.cas->instruction(), InstructionSet::kBypassCode);
  EXPECT_EQ(f.chain.tail().to_uint(), 0b1010u);
  // Core-side outputs float in bypass.
  EXPECT_EQ(f.chain.cas_o(0)[0].get(), Logic4::Z);
  EXPECT_EQ(f.chain.cas_o(0)[1].get(), Logic4::Z);
}

TEST(CasBehavior, TestModeRoutesSelectedWires) {
  CasFixture f(4, 2);
  // Route port0 <- wire 2, port1 <- wire 0.
  const SwitchScheme scheme({2, 0}, 4);
  f.configure(f.cas->isa().encode(scheme));
  ASSERT_TRUE(f.cas->isa().is_test(f.cas->instruction()));

  f.chain.head().set_uint(0b0100);  // only wire 2 high
  f.chain.cas_i(0)[0].set(true);    // core responds on port 0
  f.chain.cas_i(0)[1].set(false);
  f.sim.settle();

  EXPECT_EQ(f.chain.cas_o(0)[0].get(), Logic4::One);   // o0 = e2
  EXPECT_EQ(f.chain.cas_o(0)[1].get(), Logic4::Zero);  // o1 = e0
  // Heuristic return: s2 = i0 = 1, s0 = i1 = 0; unselected wires bypass.
  EXPECT_EQ(f.chain.tail()[2].get(), Logic4::One);
  EXPECT_EQ(f.chain.tail()[0].get(), Logic4::Zero);
  EXPECT_EQ(f.chain.tail()[1].get(), Logic4::Zero);
  EXPECT_EQ(f.chain.tail()[3].get(), Logic4::Zero);

  f.chain.head().set_uint(0b1010);  // wires 1 and 3 high (both bypass)
  f.sim.settle();
  EXPECT_EQ(f.chain.tail()[1].get(), Logic4::One);
  EXPECT_EQ(f.chain.tail()[3].get(), Logic4::One);
}

TEST(CasBehavior, EveryTestCodeRoutesPerItsScheme) {
  // Property sweep: for N=4, P=2 every one of the 12 arrangements routes
  // exactly as its decoded scheme says.
  CasFixture f(4, 2);
  Rng rng(5);
  for (std::uint64_t code = InstructionSet::kFirstTestCode;
       code < f.cas->isa().m(); ++code) {
    f.cas->force_instruction(code);
    const SwitchScheme scheme = f.cas->isa().decode(code);
    for (int trial = 0; trial < 4; ++trial) {
      const auto e = static_cast<std::uint64_t>(rng.below(16));
      const auto i = static_cast<std::uint64_t>(rng.below(4));
      f.chain.head().set_uint(e);
      f.chain.cas_i(0).set_uint(i);
      f.sim.settle();
      for (unsigned j = 0; j < 2; ++j) {
        EXPECT_EQ(f.chain.cas_o(0)[j].get(),
                  to_logic(((e >> scheme.wire_of_port(j)) & 1ULL) != 0))
            << "code " << code << " port " << j;
      }
      for (unsigned w = 0; w < 4; ++w) {
        const auto port = scheme.port_of_wire(w);
        const bool expect = port.has_value() ? ((i >> *port) & 1ULL) != 0
                                             : ((e >> w) & 1ULL) != 0;
        EXPECT_EQ(f.chain.tail()[w].get(), to_logic(expect))
            << "code " << code << " wire " << w;
      }
    }
  }
}

TEST(CasBehavior, SerialConfigurationLoadsInstruction) {
  CasFixture f(4, 2);  // k = 4
  const std::uint64_t code = 0b1011;  // a TEST code (11 < m=14)
  ASSERT_TRUE(f.cas->isa().is_test(code));
  f.configure(code);
  EXPECT_EQ(f.cas->instruction(), code);
}

TEST(CasBehavior, ConfigModePresentsIrTailOnWire0) {
  CasFixture f(3, 1);  // k = 3
  f.chain.config_wire().set(true);
  // Shift 1,0,0: after 3 shifts the first 1 reaches the register tail.
  for (const bool bit : {true, false, false}) {
    f.chain.head()[0].set(bit);
    f.sim.step();
  }
  f.sim.settle();
  EXPECT_EQ(f.chain.tail()[0].get(), Logic4::One);
  // Wires 1..N-1 bypass during configuration.
  f.chain.head()[1].set(true);
  f.sim.settle();
  EXPECT_EQ(f.chain.tail()[1].get(), Logic4::One);
  // Core outputs float during configuration.
  EXPECT_EQ(f.chain.cas_o(0)[0].get(), Logic4::Z);
}

TEST(CasBehavior, InvalidCodeDegradesToBypass) {
  CasFixture f(4, 3);  // m = 26, k = 5 -> codes 26..31 are invalid
  // build_cas_config_stream rejects invalid codes, so shift raw bits.
  f.chain.config_wire().set(true);
  const std::uint64_t raw = 29;
  for (std::size_t b = 5; b-- > 0;) {
    f.chain.head()[0].set(((raw >> b) & 1ULL) != 0);
    f.sim.step();
  }
  f.chain.update_wire().set(true);
  f.sim.step();
  f.chain.update_wire().set(false);
  f.chain.config_wire().set(false);
  f.sim.settle();
  EXPECT_EQ(f.cas->instruction(), 29u);
  f.chain.head().set_uint(0b1001);
  f.sim.settle();
  EXPECT_EQ(f.chain.tail().to_uint(), 0b1001u);
  EXPECT_EQ(f.chain.cas_o(0)[0].get(), Logic4::Z);
}

TEST(CasBehavior, ChainedConfigurationProgramsAllCases) {
  // Three CASes with different geometries on one bus, configured in a
  // single shift session (paper: instruction registers daisy-chained on
  // wire e0/s0).
  sim::Simulation sim;
  CasBusChain chain(sim, 5, "bus");
  CasBehavior& c0 = chain.add_cas("c0", 1);  // k=3
  CasBehavior& c1 = chain.add_cas("c1", 2);  // k=5
  CasBehavior& c2 = chain.add_cas("c2", 3);  // k=6
  sim.reset();
  chain.head().set_all(Logic4::Zero);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t j = 0; j < chain.cas_i(c).size(); ++j)
      chain.cas_i(c)[j].set(false);

  EXPECT_EQ(chain.total_ir_bits(), 3u + 5u + 6u);

  const std::vector<std::uint64_t> codes = {4, 17, 2};
  for (std::size_t c = 0; c < 3; ++c)
    ASSERT_TRUE(chain.cas(c).isa().is_valid(codes[c]));

  chain.config_wire().set(true);
  const BitVector stream = build_cas_config_stream(chain, codes);
  EXPECT_EQ(stream.size(), chain.total_ir_bits());
  for (std::size_t b = 0; b < stream.size(); ++b) {
    chain.head()[0].set(stream.get(b));
    sim.step();
  }
  chain.update_wire().set(true);
  sim.step();
  chain.update_wire().set(false);
  chain.config_wire().set(false);
  sim.settle();

  EXPECT_EQ(c0.instruction(), codes[0]);
  EXPECT_EQ(c1.instruction(), codes[1]);
  EXPECT_EQ(c2.instruction(), codes[2]);
}

TEST(CasBehavior, ConfigInstructionKeepsCasInChain) {
  // CAS1 holds the CONFIGURATION instruction, CAS0 a bypass: only CAS1 is
  // reprogrammed by the next shift session even with the global config
  // wire low (dynamic partial reconfiguration, paper §4).
  sim::Simulation sim;
  CasBusChain chain(sim, 3, "bus");
  CasBehavior& c0 = chain.add_cas("c0", 1);
  CasBehavior& c1 = chain.add_cas("c1", 1);
  sim.reset();
  chain.head().set_all(Logic4::Zero);
  chain.cas_i(0)[0].set(false);
  chain.cas_i(1)[0].set(false);

  c0.force_instruction(InstructionSet::kBypassCode);
  c1.force_instruction(InstructionSet::kConfigCode);
  sim.settle();
  EXPECT_FALSE(c0.chain_active());
  EXPECT_TRUE(c1.chain_active());

  // Shift 3 bits (= k of c1): they travel through c0's bypass into c1's
  // instruction register directly.
  const std::uint64_t code = 3;  // TEST: wire 1 (rank 1 + 2)
  for (std::size_t j = 3; j-- > 0;) {
    chain.head()[0].set(((code >> j) & 1ULL) != 0);
    sim.step();
  }
  chain.update_wire().set(true);
  sim.step();
  chain.update_wire().set(false);
  sim.settle();

  EXPECT_EQ(c1.instruction(), code);
  EXPECT_EQ(c0.instruction(), InstructionSet::kBypassCode);
}

TEST(CasBehavior, ForceInstructionValidatesCode) {
  CasFixture f(3, 1);
  EXPECT_THROW(f.cas->force_instruction(f.cas->isa().m()),
               PreconditionError);
}

TEST(CasBusChainTest, GeometryChecks) {
  sim::Simulation sim;
  CasBusChain chain(sim, 4, "bus");
  EXPECT_THROW(chain.add_cas("bad", 0), PreconditionError);
  EXPECT_THROW(chain.add_cas("bad", 5), PreconditionError);
  EXPECT_EQ(chain.width(), 4u);
  EXPECT_EQ(chain.size(), 0u);
  // Tail of an empty chain is the head bundle.
  chain.head().set_uint(0b0110);
  EXPECT_EQ(chain.tail().to_uint(), 0b0110u);
}

TEST(ConfigProtocol, StreamOrderPutsFarCasFirst) {
  // Two registers of 2 bits each: codes 0b01 (near), 0b10 (far). The far
  // register's bits come first, each MSB-first.
  const BitVector s = build_config_stream(
      {ConfigEntry{2, 0b01}, ConfigEntry{2, 0b10}});
  EXPECT_EQ(s.to_string(), "1001");
  EXPECT_EQ(config_stream_length({ConfigEntry{2, 0}, ConfigEntry{3, 0}}),
            5u);
}

TEST(ConfigProtocol, RejectsOversizedCodes) {
  EXPECT_THROW(build_config_stream({ConfigEntry{2, 4}}), PreconditionError);
  EXPECT_THROW(build_config_stream({ConfigEntry{0, 0}}), PreconditionError);
}

TEST(ConfigProtocol, CasStreamValidatesGeometry) {
  sim::Simulation sim;
  CasBusChain chain(sim, 3, "bus");
  chain.add_cas("c0", 1);
  EXPECT_THROW((void)build_cas_config_stream(chain, {1, 2}),
               PreconditionError);
  EXPECT_THROW((void)build_cas_config_stream(chain, {99}),
               PreconditionError);
}

TEST(CasBusKernel, BypassChainEvaluatesEachCasOncePerChange) {
  // The event-driven kernel evaluates a module only when a wire it
  // watches changes. On a 64-CAS bypass chain a toggle at the head
  // ripples down wire 0 in one pass, evaluating every CAS exactly once;
  // a kernel back on full passes evaluates all 64 at least twice per
  // settle (the change pass plus the quiet pass that confirms it), and
  // would also evaluate them on the idle cycles.
  constexpr std::size_t kCas = 64;
  constexpr std::uint64_t kCycles = 200;
  sim::Simulation sim;
  CasBusChain chain(sim, 4, "bus");
  for (std::size_t c = 0; c < kCas; ++c)
    chain.add_cas("c" + std::to_string(c), 1);
  sim.reset();
  chain.head().set_all(Logic4::Zero);
  sim.settle();

  const sim::Simulation::KernelStats start = sim.kernel_stats();
  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    chain.head()[0].set((cycle & 1u) == 0);
    sim.settle();
    ASSERT_EQ(sim.last_settle_passes(), 1u) << "cycle " << cycle;
    ASSERT_EQ(chain.tail()[0].get(), chain.head()[0].get());
    sim.step();
  }
  const sim::Simulation::KernelStats toggled = sim.kernel_stats();
  EXPECT_EQ(toggled.evals - start.evals, kCas * kCycles);
  EXPECT_EQ(toggled.passes - start.passes, kCycles);

  sim.step(kCycles);  // idle: no wire changes, nothing to evaluate
  EXPECT_EQ(sim.kernel_stats().evals, toggled.evals);
  EXPECT_EQ(sim.kernel_stats().passes, toggled.passes);
}

}  // namespace
}  // namespace casbus::tam
