// HDL emitter tests: structural completeness, identifier hygiene, and
// determinism of the generated VHDL/Verilog.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/cas_generator.hpp"
#include "netlist/builder.hpp"
#include "netlist/emit.hpp"
#include "tpg/synthcore.hpp"

namespace casbus::netlist {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0, pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

Netlist sample_design() {
  NetlistBuilder b("sample");
  const NetId a = b.input("a");
  const NetId c = b.input("b_in");
  const NetId x = b.xor2(a, c);
  const NetId q = b.dff(x, "state[0]");
  const NetId en = b.input("en");
  b.tribuf(en, q);  // dangling tri output is fine pre-output
  b.output("y", b.mux2(en, x, q));
  b.output("q_out", q);
  return b.take();
}

TEST(EmitVhdl, DeclaresEveryInternalSignal) {
  const Netlist nl = sample_design();
  const std::string vhdl = emit_vhdl(nl);
  // Every non-input net must be declared exactly once as a signal.
  std::set<NetId> inputs;
  for (const auto& p : nl.inputs()) inputs.insert(p.net);
  std::size_t expected = 0;
  for (NetId n = 0; n < nl.net_count(); ++n)
    if (inputs.count(n) == 0) ++expected;
  EXPECT_EQ(count_occurrences(vhdl, "  signal "), expected);
}

TEST(EmitVhdl, SanitizesBracketedNames) {
  const Netlist nl = sample_design();
  const std::string vhdl = emit_vhdl(nl);
  EXPECT_EQ(vhdl.find("state[0]"), std::string::npos)
      << "brackets must not survive into VHDL identifiers";
  EXPECT_NE(vhdl.find("state_0"), std::string::npos);
}

TEST(EmitVhdl, SequentialProcessOnlyWhenNeeded) {
  const Netlist nl = sample_design();
  EXPECT_NE(emit_vhdl(nl).find("rising_edge(clk)"), std::string::npos);

  NetlistBuilder comb("comb_only");
  const NetId a = comb.input("a");
  comb.output("y", comb.not_(a));
  const std::string v = emit_vhdl(comb.take());
  EXPECT_EQ(v.find("clk"), std::string::npos);
  EXPECT_EQ(v.find("process"), std::string::npos);
}

TEST(EmitVhdl, Deterministic) {
  const Netlist nl = sample_design();
  EXPECT_EQ(emit_vhdl(nl), emit_vhdl(nl));
  EXPECT_EQ(emit_verilog(nl), emit_verilog(nl));
}

TEST(EmitVerilog, OneAssignPerCombinationalCell) {
  const Netlist nl = sample_design();
  const std::string v = emit_verilog(nl);
  std::size_t comb_cells = 0;
  for (const Cell& c : nl.cells())
    if (!is_sequential(c.kind)) ++comb_cells;
  // assigns: one per comb cell + one per output port.
  EXPECT_EQ(count_occurrences(v, "  assign "),
            comb_cells + nl.outputs().size());
}

TEST(EmitVerilog, SequentialNetsAreRegs) {
  const Netlist nl = sample_design();
  const std::string v = emit_verilog(nl);
  EXPECT_NE(v.find("reg  state_0"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
}

TEST(SanitizeIdentifier, Rules) {
  EXPECT_EQ(sanitize_identifier("ir[3]"), "ir_3");
  EXPECT_EQ(sanitize_identifier("bus.cas0.s"), "bus_cas0_s");
  EXPECT_EQ(sanitize_identifier("0weird"), "n0weird");
  EXPECT_EQ(sanitize_identifier(""), "n");
  EXPECT_EQ(sanitize_identifier("ok_name"), "ok_name");
}

TEST(Emit, UniqueNamesUnderCollision) {
  // Two nets whose sanitized names collide must get distinct identifiers.
  NetlistBuilder b("coll");
  const NetId a = b.input("sig[0]");
  const NetId n1 = b.net("sig_0");  // sanitizes to the same string
  b.copy_cell(CellKind::Not, a, kNoNet, kNoNet, n1);
  b.output("y", n1);
  const std::string v = emit_verilog(b.take());
  // Both names must appear and be distinguishable.
  EXPECT_NE(v.find("sig_0"), std::string::npos);
  EXPECT_NE(v.find("sig_0_1"), std::string::npos);
}

TEST(Emit, GeneratedCoreEmitsCleanly) {
  tpg::SyntheticCoreSpec spec;
  spec.seed = 3;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  const std::string vhdl = emit_vhdl(core.netlist());
  const std::string verilog = emit_verilog(core.netlist());
  EXPECT_NE(vhdl.find("entity "), std::string::npos);
  EXPECT_NE(verilog.find("module "), std::string::npos);
  // Scan interface survives by name.
  EXPECT_NE(vhdl.find("scan_en"), std::string::npos);
  EXPECT_NE(verilog.find("si0"), std::string::npos);
}

TEST(Emit, CasVerilogHasAllPorts) {
  const tam::GeneratedCas cas = tam::generate_cas(4, 2);
  const std::string v = emit_verilog(cas.netlist);
  for (const std::string port :
       {"e0", "e1", "e2", "e3", "i0", "i1", "config", "update", "s0", "s1",
        "s2", "s3", "o0", "o1"})
    EXPECT_NE(v.find(port), std::string::npos) << port;
}

}  // namespace
}  // namespace casbus::netlist
