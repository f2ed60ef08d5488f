// Unit tests for the cycle-level simulation kernel.

#include <gtest/gtest.h>

#include <sstream>

#include "sim/module.hpp"
#include "sim/simulation.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace casbus::sim {
namespace {

/// y = !a, combinational.
class Inverter : public Module {
 public:
  Inverter(Wire& a, Wire& y) : Module("inv"), a_(a), y_(y) { watch(a_); }
  void evaluate() override { y_.set(logic_not(a_.get())); }

 private:
  Wire& a_;
  Wire& y_;
};

/// q <= d each cycle.
class Dff : public Module {
 public:
  Dff(Wire& d, Wire& q) : Module("dff"), d_(d), q_(q) {}
  void evaluate() override { q_.set(state_); }
  void tick() override {
    state_ = d_.get();
    wake();  // q shows the new state
  }
  void reset() override { state_ = Logic4::Zero; }

 private:
  Wire& d_;
  Wire& q_;
  Logic4 state_ = Logic4::Zero;
};

TEST(Simulation, WiresHoldValues) {
  Simulation sim;
  Wire& w = sim.wire("w");
  EXPECT_EQ(w.get(), Logic4::X);
  w.set(true);
  EXPECT_EQ(w.get(), Logic4::One);
  EXPECT_EQ(w.name(), "w");
}

TEST(Simulation, BundleUintRoundTrip) {
  Simulation sim;
  WireBundle b = sim.bundle("b", 8);
  b.set_uint(0xA5);
  EXPECT_EQ(b.to_uint(), 0xA5u);
  EXPECT_EQ(b.to_string(), "10100101");
  b.set_all(Logic4::Z);
  EXPECT_EQ(b.to_string(), "zzzzzzzz");
}

TEST(Simulation, SettlePropagatesThroughChain) {
  // A chain of 5 inverters settles within one settle() call, requiring
  // several delta passes.
  Simulation sim;
  std::vector<Wire*> wires;
  for (int i = 0; i <= 5; ++i) wires.push_back(&sim.wire("w"));
  std::vector<std::unique_ptr<Inverter>> invs;
  for (int i = 0; i < 5; ++i) {
    invs.push_back(std::make_unique<Inverter>(*wires[i], *wires[i + 1]));
    sim.add(invs.back().get());
  }
  wires[0]->set(true);
  sim.settle();
  EXPECT_EQ(wires[5]->get(), Logic4::Zero);  // odd number of inversions
  wires[0]->set(false);
  sim.settle();
  EXPECT_EQ(wires[5]->get(), Logic4::One);
}

TEST(Simulation, CombinationalLoopDetected) {
  // Three inverters in a ring: an odd cycle has no stable assignment, so
  // the settle loop must hit its delta limit and report a loop.
  Simulation sim;
  Wire& a = sim.wire("a");
  Wire& b = sim.wire("b");
  Wire& c = sim.wire("c");
  Inverter i1(a, b), i2(b, c), i3(c, a);
  sim.add(&i1);
  sim.add(&i2);
  sim.add(&i3);
  a.set(true);
  EXPECT_THROW(sim.settle(), SimulationError);
}

TEST(Simulation, EvenInverterRingIsAStableLatch) {
  // Two cross-coupled inverters settle (it is a latch, not a loop error).
  Simulation sim;
  Wire& a = sim.wire("a");
  Wire& b = sim.wire("b");
  Inverter i1(a, b), i2(b, a);
  sim.add(&i1);
  sim.add(&i2);
  a.set(true);
  sim.settle();
  EXPECT_EQ(b.get(), Logic4::Zero);
  EXPECT_EQ(a.get(), Logic4::One);
}

TEST(Simulation, StepAdvancesRegisters) {
  Simulation sim;
  Wire& d = sim.wire("d");
  Wire& q = sim.wire("q");
  Dff ff(d, q);
  sim.add(&ff);
  sim.reset();
  d.set(true);
  EXPECT_EQ(sim.cycle(), 0u);
  sim.step();  // capture 1
  EXPECT_EQ(sim.cycle(), 1u);
  sim.settle();
  EXPECT_EQ(q.get(), Logic4::One);
}

TEST(Simulation, TwoStageShiftRegister) {
  Simulation sim;
  Wire& d = sim.wire("d");
  Wire& m = sim.wire("m");
  Wire& q = sim.wire("q");
  Dff ff1(d, m), ff2(m, q);
  sim.add(&ff1);
  sim.add(&ff2);
  sim.reset();
  d.set(true);
  sim.step(2);
  sim.settle();
  EXPECT_EQ(q.get(), Logic4::One);  // took exactly two cycles
}

TEST(Simulation, ResetRestartsCycleCountAndModules) {
  Simulation sim;
  Wire& d = sim.wire("d");
  Wire& q = sim.wire("q");
  Dff ff(d, q);
  sim.add(&ff);
  sim.reset();
  d.set(true);
  sim.step(3);
  sim.reset();
  EXPECT_EQ(sim.cycle(), 0u);
  sim.settle();
  EXPECT_EQ(q.get(), Logic4::Zero);
}

TEST(Simulation, AddNullModuleThrows) {
  Simulation sim;
  EXPECT_THROW(sim.add(nullptr), PreconditionError);
}

TEST(Vcd, EmitsHeaderAndTransitions) {
  Simulation sim;
  Wire& d = sim.wire("data_in");
  Wire& q = sim.wire("q");
  Dff ff(d, q);
  sim.add(&ff);

  std::ostringstream os;
  VcdWriter vcd(os);
  vcd.watch(d);
  vcd.watch(q, "q_alias");
  sim.attach_vcd(&vcd);
  sim.reset();
  d.set(true);
  sim.step(2);

  const std::string out = os.str();
  EXPECT_NE(out.find("$var wire 1 ! data_in $end"), std::string::npos);
  EXPECT_NE(out.find("q_alias"), std::string::npos);
  EXPECT_NE(out.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("#1"), std::string::npos);
  EXPECT_EQ(vcd.watched(), 2u);
}

TEST(Vcd, OnlyChangesAreDumped) {
  Simulation sim;
  Wire& w = sim.wire("w");
  std::ostringstream os;
  VcdWriter vcd(os);
  vcd.watch(w);
  w.set(true);
  vcd.sample(0);
  vcd.sample(1);  // unchanged: no #1 section
  const std::string out = os.str();
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_EQ(out.find("#1"), std::string::npos);
}

}  // namespace
}  // namespace casbus::sim
