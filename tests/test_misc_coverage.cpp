// Consolidated edge-path coverage: kernel knobs, bundle errors, table
// separators, netlist validation via RawNetlist, width-explorer with the
// generic CAS implementation, and result aggregation rules.

#include <gtest/gtest.h>

#include <sstream>

#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "sched/width_explorer.hpp"
#include "soc/schedule_runner.hpp"
#include "sim/simulation.hpp"
#include "soc/tester.hpp"
#include "util/table.hpp"

namespace casbus {
namespace {

TEST(SimulationKnobs, MaxDeltaCyclesIsConfigurable) {
  sim::Simulation sim;
  EXPECT_EQ(sim.max_delta_cycles(), 1000u);
  sim.set_max_delta_cycles(3);
  EXPECT_EQ(sim.max_delta_cycles(), 3u);
  // An empty simulation has nothing scheduled: it settles in no pass.
  sim.settle();
  EXPECT_EQ(sim.last_settle_passes(), 0u);
}

TEST(SimulationKnobs, WireCountTracksCreation) {
  sim::Simulation sim;
  (void)sim.wire("a");
  (void)sim.bundle("b", 5);
  EXPECT_EQ(sim.wire_count(), 6u);
}

TEST(WireBundleErrors, ToUintRejectsUndrivenBits) {
  sim::Simulation sim;
  sim::WireBundle b = sim.bundle("b", 3);  // X at init
  EXPECT_THROW((void)b.to_uint(), PreconditionError);
  b.set_uint(0b101);
  EXPECT_EQ(b.to_uint(), 0b101u);
}

TEST(TableRendering, SeparatorsAndAlignment) {
  Table t({"left", "right"}, {Align::Left, Align::Right});
  t.add_row({"a", "1"});
  t.add_separator();
  t.add_row({"bb", "22"});
  const std::string s = t.to_string();
  // Left column padded right, right column padded left.
  EXPECT_NE(s.find("| a    |"), std::string::npos);
  EXPECT_NE(s.find("|     1 |"), std::string::npos);
  // Separator row drawn between data rows: 2 data rows + separator →
  // 4 total '+--' border lines plus the inner one.
  EXPECT_EQ(t.rows(), 2u);
}

TEST(RawNetlistValidation, RejectsStructuralIllegalities) {
  using namespace netlist;
  // Dangling input pin.
  {
    RawNetlist raw;
    raw.name = "bad";
    raw.n_nets = 2;
    raw.inputs.push_back(Port{"a", 0});
    raw.cells.push_back(Cell{CellKind::Not, {kNoNet, kNoNet, kNoNet}, 1});
    raw.outputs.push_back(Port{"y", 1});
    EXPECT_THROW((void)Netlist::from_raw(std::move(raw)), InvariantError);
  }
  // Two plain drivers on one net.
  {
    RawNetlist raw;
    raw.name = "bad2";
    raw.n_nets = 2;
    raw.inputs.push_back(Port{"a", 0});
    raw.cells.push_back(Cell{CellKind::Not, {0, kNoNet, kNoNet}, 1});
    raw.cells.push_back(Cell{CellKind::Buf, {0, kNoNet, kNoNet}, 1});
    raw.outputs.push_back(Port{"y", 1});
    EXPECT_THROW((void)Netlist::from_raw(std::move(raw)), InvariantError);
  }
  // Extra connected pin beyond the kind's fan-in.
  {
    RawNetlist raw;
    raw.name = "bad3";
    raw.n_nets = 2;
    raw.inputs.push_back(Port{"a", 0});
    raw.cells.push_back(Cell{CellKind::Not, {0, 0, kNoNet}, 1});
    raw.outputs.push_back(Port{"y", 1});
    EXPECT_THROW((void)Netlist::from_raw(std::move(raw)), InvariantError);
  }
}

TEST(NetlistQueries, DriversAndNames) {
  netlist::NetlistBuilder b("q");
  const auto a = b.input("a");
  const auto en1 = b.input("en1");
  const auto en2 = b.input("en2");
  const auto bus = b.tribuf(en1, a);
  b.tribuf(en2, a, bus);
  b.output("y", bus);
  const netlist::Netlist nl = b.take();
  EXPECT_EQ(nl.drivers_of(bus).size(), 2u);
  EXPECT_EQ(nl.net_name(a), "a");
  // Unnamed nets render as n<id>.
  EXPECT_EQ(nl.net_name(bus)[0], 'n');
}

TEST(WidthExplorer, GenericImplementationWorksOnNarrowRange) {
  std::vector<sched::CoreTestSpec> cores = {
      sched::CoreTestSpec{"a", {20, 20}, 30, 0},
      sched::CoreTestSpec{"b", {15}, 20, 0},
  };
  const auto points = sched::explore_widths(
      cores, 2, 4, tam::CasImplementation::Generic);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& pt : points) EXPECT_GT(pt.cas_area_ge, 0.0);
}

TEST(ResultAggregation, AllPassIncludesBistVerdicts) {
  soc::ScanSessionResult r;
  EXPECT_TRUE(r.all_pass());
  r.targets.push_back(soc::ScanTargetResult{});
  EXPECT_TRUE(r.all_pass());
  r.bist_pass.push_back(true);
  EXPECT_TRUE(r.all_pass());
  r.bist_pass.push_back(false);
  EXPECT_FALSE(r.all_pass());
  r.bist_pass.back() = true;
  r.targets[0].mismatches = 1;
  EXPECT_FALSE(r.all_pass());
}

TEST(ResultAggregation, ExtestAndScheduleHelpers) {
  soc::ExtestResult e;
  EXPECT_TRUE(e.all_pass());
  e.failing.push_back(2);
  EXPECT_FALSE(e.all_pass());

  soc::ScheduleRunReport rep;
  rep.predicted_cycles = 100;
  rep.measured_cycles = 105;
  EXPECT_NEAR(rep.deviation(), 0.05, 1e-9);
  rep.measured_cycles = 95;
  EXPECT_NEAR(rep.deviation(), 0.05, 1e-9);
}

}  // namespace
}  // namespace casbus
