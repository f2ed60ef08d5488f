// P1500 wrapper tests: instruction loading, bypass, preload/extest,
// serial and parallel intest, BIST control and core clock gating.

#include <gtest/gtest.h>

#include "p1500/wrapper.hpp"
#include "sim/simulation.hpp"

namespace casbus::p1500 {
namespace {

/// Minimal deterministic core: 3-bit state pipeline with one scan chain.
/// Functional next-state: s0 <= fin0, s1 <= s0 ^ fin1, s2 <= s1.
/// Outputs: fout0 = s2, fout1 = s0 & s1. Scan order: si -> s0 -> s1 -> s2.
class ToyCore : public sim::Module {
 public:
  ToyCore(sim::Simulation& sim, const std::string& name)
      : sim::Module(name),
        fin0(&sim.wire(name + ".fin0", Logic4::Zero)),
        fin1(&sim.wire(name + ".fin1", Logic4::Zero)),
        fout0(&sim.wire(name + ".fout0", Logic4::Zero)),
        fout1(&sim.wire(name + ".fout1", Logic4::Zero)),
        scan_en(&sim.wire(name + ".scan_en", Logic4::Zero)),
        clk_en(&sim.wire(name + ".clk_en", Logic4::One)),
        si(&sim.wire(name + ".si", Logic4::Zero)),
        so(&sim.wire(name + ".so", Logic4::Zero)) {
    sim.add(this);
  }

  void evaluate() override {
    fout0->set(s_[2]);
    fout1->set(s_[0] && s_[1]);
    so->set(s_[2]);
  }

  void tick() override {
    if (clk_en->get() != Logic4::One) return;  // gated clock
    bool n0, n1, n2;
    if (scan_en->get() == Logic4::One) {
      n0 = si->get() == Logic4::One;
      n1 = s_[0];
      n2 = s_[1];
    } else {
      n0 = fin0->get() == Logic4::One;
      n1 = s_[0] != (fin1->get() == Logic4::One);
      n2 = s_[1];
    }
    s_[0] = n0;
    s_[1] = n1;
    s_[2] = n2;
    wake();  // the outputs show the new state
  }

  void reset() override { s_[0] = s_[1] = s_[2] = false; }

  [[nodiscard]] bool state(int i) const { return s_[i]; }
  void set_state(bool a, bool b, bool c) {
    s_[0] = a;
    s_[1] = b;
    s_[2] = c;
    wake();
  }

  sim::Wire *fin0, *fin1, *fout0, *fout1;
  sim::Wire *scan_en, *clk_en, *si, *so;

 private:
  bool s_[3] = {false, false, false};
};

/// Full wrapped-core fixture with controller-side wires.
class WrapperFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    core = std::make_unique<ToyCore>(sim, "core");

    // System-side functional wires.
    sys_in0 = &sim.wire("sys_in0", Logic4::Zero);
    sys_in1 = &sim.wire("sys_in1", Logic4::Zero);
    sys_out0 = &sim.wire("sys_out0", Logic4::Zero);
    sys_out1 = &sim.wire("sys_out1", Logic4::Zero);

    wsi = &sim.wire("wsi", Logic4::Zero);
    wso = &sim.wire("wso", Logic4::Zero);
    wpi0 = &sim.wire("wpi0", Logic4::Zero);
    wpo0 = &sim.wire("wpo0", Logic4::Zero);

    sel = &sim.wire("sel_wir", Logic4::Zero);
    shift = &sim.wire("shift", Logic4::Zero);
    capture = &sim.wire("capture", Logic4::Zero);
    update = &sim.wire("update", Logic4::Zero);

    FunctionalPorts func;
    func.sys_in = {sys_in0, sys_in1};
    func.core_in = {core->fin0, core->fin1};
    func.core_out = {core->fout0, core->fout1};
    func.sys_out = {sys_out0, sys_out1};

    CoreTestPorts ct;
    ct.scan_en = core->scan_en;
    ct.core_clk_en = core->clk_en;
    ct.scan_in = {core->si};
    ct.scan_out = {core->so};
    ct.chain_lengths = {3};

    TamPorts tam;
    tam.wsi = wsi;
    tam.wso = wso;
    tam.wpi = {wpi0};
    tam.wpo = {wpo0};

    WscWires wsc{sel, shift, capture, update};
    wrapper = std::make_unique<Wrapper>(sim, "wrap", func, ct, tam, wsc);
    sim.add(wrapper.get());
    sim.reset();
    sim.settle();
  }

  /// Loads a wrapper instruction through the WIR.
  void load_instr(WrapperInstr instr) {
    sel->set(true);
    shift->set(true);
    const auto code = static_cast<unsigned>(instr);
    for (unsigned b = kWirBits; b-- > 0;) {
      wsi->set(((code >> b) & 1u) != 0);
      sim.step();
    }
    shift->set(false);
    update->set(true);
    sim.step();
    update->set(false);
    sel->set(false);
    sim.settle();
  }

  /// Shifts `bits` serially (LSB of the vector first), returning what came
  /// out of WSO at each of those cycles.
  std::vector<bool> shift_serial(const std::vector<bool>& bits) {
    std::vector<bool> out;
    shift->set(true);
    for (const bool b : bits) {
      wsi->set(b);
      sim.settle();
      out.push_back(wso->get() == Logic4::One);
      sim.step();
    }
    shift->set(false);
    sim.settle();
    return out;
  }

  sim::Simulation sim;
  std::unique_ptr<ToyCore> core;
  std::unique_ptr<Wrapper> wrapper;
  sim::Wire *sys_in0, *sys_in1, *sys_out0, *sys_out1;
  sim::Wire *wsi, *wso, *wpi0, *wpo0;
  sim::Wire *sel, *shift, *capture, *update;
};

TEST_F(WrapperFixture, ResetsToBypassAndIsTransparent) {
  EXPECT_EQ(wrapper->instruction(), WrapperInstr::Bypass);
  sys_in0->set(true);
  sys_in1->set(true);
  sim.step(3);  // s0<=1, s1<=s0^1, s2<=s1 ...
  sim.settle();
  // After 3 functional cycles: s0=1, s1 = 1^1 = 0... trace:
  // t1: s=(1,0^1=1? no: s1 <= s0(0)^fin1(1)=1, s2<=0) -> (1,1,0)
  // t2: s0<=1, s1<=1^1=0, s2<=1 -> (1,0,1)
  // t3: (1, 1^1=0 ... s1<=s0(1)^1=0, s2<=0) -> (1,0,0)
  EXPECT_EQ(core->state(0), true);
  // Transparency: sys_out mirrors core outputs.
  EXPECT_EQ(sys_out0->get(), to_logic(core->state(2)));
  EXPECT_EQ(sys_out1->get(),
            to_logic(core->state(0) && core->state(1)));
}

TEST_F(WrapperFixture, WirLoadsEveryInstruction) {
  for (const WrapperInstr instr :
       {WrapperInstr::Preload, WrapperInstr::Extest,
        WrapperInstr::IntestSerial, WrapperInstr::IntestParallel,
        WrapperInstr::Bist, WrapperInstr::Bypass}) {
    load_instr(instr);
    EXPECT_EQ(wrapper->instruction(), instr);
  }
}

TEST_F(WrapperFixture, BypassRegisterDelaysByOneCycle) {
  // WSI -> WBY -> WSO: a pulse appears exactly one shift later.
  const auto out = shift_serial({true, false, false, true, false});
  const std::vector<bool> expect = {false, true, false, false, true};
  EXPECT_EQ(out, expect);
}

TEST_F(WrapperFixture, SerialLengthsMatchStructure) {
  EXPECT_EQ(wrapper->serial_length(WrapperInstr::Bypass), 1u);
  EXPECT_EQ(wrapper->serial_length(WrapperInstr::Preload), 4u);   // 2 in + 2 out
  EXPECT_EQ(wrapper->serial_length(WrapperInstr::IntestSerial), 7u);
  EXPECT_EQ(wrapper->chain_count(), 1u);
}

TEST_F(WrapperFixture, PreloadAndIntestDriveCoreInputsFromCells) {
  load_instr(WrapperInstr::Preload);
  // Shift 1,1,0,0: boundary order in0,in1,out0,out1 -> after 4 shifts the
  // first bits land in the far cells. Stream s.t. in-cells end with (1,1):
  // shift order: out1_val, out0_val, in1_val, in0_val? The path is
  // wsi->in0->in1->out0->out1, so after 4 shifts: in0 = last bit shifted.
  shift_serial({true, true, false, false});  // in0=0? trace below
  // Path: each shift moves wsi into in0, in0 into in1, etc. After shifting
  // [1,1,0,0]: in0=0 (last), in1=0? No: in1 holds the bit shifted at t2.
  // t0: in0=1. t1: in0=1,in1=1. t2: in0=0,in1=1,out0=1.
  // t3: in0=0,in1=0,out0=1,out1=1.
  update->set(true);
  sim.step();
  update->set(false);
  load_instr(WrapperInstr::IntestSerial);
  sim.settle();
  // core_in now driven from update latches: in0=0, in1=0; sys_out from
  // out cells: out0=1, out1=1.
  EXPECT_EQ(core->fin0->get(), Logic4::Zero);
  EXPECT_EQ(core->fin1->get(), Logic4::Zero);
  EXPECT_EQ(sys_out0->get(), Logic4::One);
  EXPECT_EQ(sys_out1->get(), Logic4::One);
}

TEST_F(WrapperFixture, IntestSerialLoadsChainCapturesAndUnloads) {
  load_instr(WrapperInstr::IntestSerial);

  // Serial path: wsi -> in0 -> in1 -> chain(s0,s1,s2) -> out0 -> out1 -> wso.
  // Load 7 bits: want core state (s0,s1,s2) = (1,0,1) and in-cells = (1,0)
  // so that the capture computes s0<=in0=1... wait: core inputs come from
  // *update* latches; update them after shifting.
  // Shift stream (first bit ends farthest = out1): plan final layout
  // in0=1,in1=0, s0=1,s1=0,s2=1, out0=x,out1=x. The chain shifts s0->s1->s2,
  // entering at s0 from in1's shift stage; so bits for s2 go in first.
  shift_serial({false, false, true, false, true, false, true});
  // Trace landing: 7 shifts; positions (in0,in1,s0,s1,s2,out0,out1) get the
  // stream reversed: in0 = bit6=1, in1 = bit5=0, s0 = bit4=1, s1 = bit3=0,
  // s2 = bit2=1, out0 = bit1=0, out1 = bit0=0.
  EXPECT_EQ(core->state(0), true);
  EXPECT_EQ(core->state(1), false);
  EXPECT_EQ(core->state(2), true);

  // Apply the in-cell values to the core's functional inputs.
  update->set(true);
  sim.step();
  update->set(false);
  sim.settle();
  EXPECT_EQ(core->fin0->get(), Logic4::One);
  EXPECT_EQ(core->fin1->get(), Logic4::Zero);

  // Capture one functional cycle: s0<=fin0=1, s1<=s0^fin1=1^0=1, s2<=s1=0.
  // Output cells capture core_out pre-capture: fout0=s2=1, fout1=s0&&s1=0.
  capture->set(true);
  sim.step();
  capture->set(false);
  sim.settle();
  EXPECT_EQ(core->state(0), true);
  EXPECT_EQ(core->state(1), true);
  EXPECT_EQ(core->state(2), false);

  // Unload: 7 more shifts; wso sequence reads out1 first.
  const auto out = shift_serial(
      {false, false, false, false, false, false, false});
  // Expected unload order (wso = tail = out1): out1(fout1=0), out0(fout0=1),
  // s2(0), s1(1), s0(1), in1(0), in0(1) — the in-cells still hold the
  // stimulus bits (1,0) loaded before capture.
  const std::vector<bool> expect = {false, true, false, true,
                                    true,  false, true};
  EXPECT_EQ(out, expect);
}

TEST_F(WrapperFixture, IntestParallelUsesWpiWpo) {
  load_instr(WrapperInstr::IntestParallel);
  // Shift 3 bits into the chain through WPI0: scan_en must assert only
  // while shift_wr is high.
  shift->set(true);
  sim.settle();
  EXPECT_EQ(core->scan_en->get(), Logic4::One);
  for (const bool b : {true, true, false}) {
    wpi0->set(b);
    sim.step();
  }
  shift->set(false);
  sim.settle();
  EXPECT_EQ(core->scan_en->get(), Logic4::Zero);
  // Chain contents: s0=0 (last), s1=1, s2=1; WPO0 mirrors so = s2.
  EXPECT_EQ(core->state(2), true);
  EXPECT_EQ(wpo0->get(), Logic4::One);
}

TEST_F(WrapperFixture, ExtestCapturesSystemInputs) {
  load_instr(WrapperInstr::Extest);
  sys_in0->set(true);
  sys_in1->set(false);
  capture->set(true);
  sim.step();
  capture->set(false);
  sim.settle();
  // Unload 4 bits: path in0,in1,out0,out1; wso = out1 first. Captured
  // values sit in the in-cells; out cells kept their previous (0) state.
  const auto out = shift_serial({false, false, false, false});
  const std::vector<bool> expect = {false, false, false, true};
  EXPECT_EQ(out, expect);
}

TEST_F(WrapperFixture, CoreClockGatesOffWhenIdleInIntest) {
  load_instr(WrapperInstr::IntestSerial);
  core->set_state(true, true, false);
  // Neither shift nor capture: the core must hold its state.
  sim.step(5);
  EXPECT_EQ(core->state(0), true);
  EXPECT_EQ(core->state(1), true);
  EXPECT_EQ(core->state(2), false);
  // Extest also freezes the core clock.
  load_instr(WrapperInstr::Extest);
  sim.step(3);
  EXPECT_EQ(core->state(0), true);
}

TEST_F(WrapperFixture, BistInstructionRoutesStartAndResult) {
  // Attach BIST wires to a fresh wrapper? The fixture core has none, so
  // emulate: wire bist signals into a second wrapper around the same core.
  sim::Wire& bstart = sim.wire("bist_start", Logic4::Zero);
  sim::Wire& bdone = sim.wire("bist_done", Logic4::Zero);
  sim::Wire& bpass = sim.wire("bist_pass", Logic4::Zero);
  sim::Wire& wsi2 = sim.wire("wsi2", Logic4::Zero);
  sim::Wire& wso2 = sim.wire("wso2", Logic4::Zero);
  sim::Wire& wpi2 = sim.wire("wpi2", Logic4::Zero);
  sim::Wire& wpo2 = sim.wire("wpo2", Logic4::Zero);

  FunctionalPorts func;  // no functional terminals
  CoreTestPorts ct;
  ct.bist_start = &bstart;
  ct.bist_done = &bdone;
  ct.bist_pass = &bpass;
  TamPorts tam;
  tam.wsi = &wsi2;
  tam.wso = &wso2;
  tam.wpi = {&wpi2};
  tam.wpo = {&wpo2};
  WscWires wsc{sel, shift, capture, update};
  Wrapper bist_wrap(sim, "bwrap", func, ct, tam, wsc);
  sim.add(&bist_wrap);
  bist_wrap.reset();

  // Load Bist instruction into this wrapper (it shares WSC with the
  // fixture wrapper; both shift, which is fine for this check).
  sel->set(true);
  shift->set(true);
  const auto code = static_cast<unsigned>(WrapperInstr::Bist);
  for (unsigned b = kWirBits; b-- > 0;) {
    wsi2.set(((code >> b) & 1u) != 0);
    wsi->set(false);
    sim.step();
  }
  shift->set(false);
  update->set(true);
  sim.step();
  update->set(false);
  sel->set(false);
  sim.settle();
  ASSERT_EQ(bist_wrap.instruction(), WrapperInstr::Bist);

  // WPI0 drives bist_start; result (done && pass) appears on WPO0.
  wpi2.set(true);
  sim.settle();
  EXPECT_EQ(bstart.get(), Logic4::One);
  EXPECT_EQ(wpo2.get(), Logic4::Zero);  // not done yet
  bdone.set(true);
  bpass.set(true);
  sim.settle();
  EXPECT_EQ(wpo2.get(), Logic4::One);
  bpass.set(false);
  sim.settle();
  EXPECT_EQ(wpo2.get(), Logic4::Zero);  // done but failing
}

TEST_F(WrapperFixture, UnknownWirCodeFallsBackToBypass) {
  sel->set(true);
  shift->set(true);
  for (const bool b : {true, true, true}) {  // code 7: undefined
    wsi->set(b);
    sim.step();
  }
  shift->set(false);
  update->set(true);
  sim.step();
  update->set(false);
  sel->set(false);
  sim.settle();
  EXPECT_EQ(wrapper->instruction(), WrapperInstr::Bypass);
}

}  // namespace
}  // namespace casbus::p1500
