/// \file bench_fig1_soc.cpp
/// Experiment F1 — the paper's Figure 1 reference SoC, end to end.
///
/// Builds the figure's architecture — six wrapped cores (two scannable,
/// one BISTed, one externally tested, one embedded memory, one
/// hierarchical core embedding two sub-cores) on an 8-wire CAS-BUS — and
/// runs a complete test program through the chip pins: serial CAS
/// configuration, wrapper instruction loading, parallel scan sessions,
/// logic BIST and MARCH memory BIST, reporting per-core verdicts and cycle
/// budgets.

#include <iostream>

#include "bench_util.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "tpg/atpg.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace casbus;
  using namespace casbus::bench;
  using namespace casbus::soc;

  banner("F1", "Figure 1 SoC: full test program over an 8-wire CAS-BUS");

  JsonReporter rep("fig1_soc");

  const auto spec1 = small_spec(101, 2, 16, 64);  // CORE1: scan, 2 chains
  const auto spec2 = small_spec(102, 4, 20, 80);  // CORE2: scan, 4 chains
  const auto spec4 = small_spec(104, 1, 12, 48);  // CORE4: external, P=1
  const auto spec6a = small_spec(106, 1, 8, 32);  // CORE6a (child)
  const auto spec6b = small_spec(107, 1, 10, 40); // CORE6b (child)

  SocBuilder builder(8);
  builder.add_scan_core("core1", spec1);
  builder.add_scan_core("core2", spec2);
  builder.add_bist_core("core3", small_spec(103, 1, 12, 56), 256);
  builder.add_external_core("core4", spec4);
  builder.add_memory_core("core5", 32, 8);
  builder.add_hierarchical_core("core6", 2,
                                {{"sub_a", spec6a}, {"sub_b", spec6b}});
  // The Figure-1 system bus: functional wires between the cores, testable
  // via wrapper EXTEST. The graph is kept acyclic — the synthetic cores'
  // clouds are combinational, so a cycle through two cores would be a
  // real combinational loop.
  builder.connect("core1", 0, "core2", 0);
  builder.connect("core1", 1, "core4", 1);
  builder.connect("core1", 2, "core2", 3);
  builder.connect("core4", 0, "core2", 2);
  auto soc_ptr = builder.build();
  Soc& soc = *soc_ptr;
  SocTester tester(soc);

  std::cout << "SoC: " << soc.core_count() << " top-level cores, "
            << soc.wrapper_ring().size() << " P1500 wrappers, bus width "
            << soc.bus().width() << ", configuration chain "
            << soc.bus().total_ir_bits() << " instruction bits\n\n";

  Table table({"core", "test type", "patterns/cycles", "cycles used",
               "verdict"},
              {Align::Left, Align::Left, Align::Right, Align::Right,
               Align::Left});

  // ATPG-quality patterns for the scan cores (functional inputs held low
  // by the wrapper update cells during intest).
  const auto make_patterns = [](const tpg::SyntheticCoreSpec& spec) {
    tpg::AtpgOptions opts;
    opts.seed = spec.seed;
    opts.target_coverage = 0.95;
    opts.max_patterns = 48;
    opts.pinned_inputs.emplace_back("scan_en", false);
    for (std::size_t i = 0; i < spec.n_inputs; ++i)
      opts.pinned_inputs.emplace_back("pi" + std::to_string(i), false);
    for (std::size_t c = 0; c < spec.n_chains; ++c)
      opts.pinned_inputs.emplace_back("si" + std::to_string(c), false);
    const auto core = tpg::make_synthetic_core(spec);
    return tpg::generate_patterns(core.netlist(), opts);
  };

  // --- Session 1: CORE1 + CORE2 in parallel on 6 wires ---------------------
  {
    const auto atpg1 = make_patterns(spec1);
    const auto atpg2 = make_patterns(spec2);
    ScanSession s;
    s.targets.push_back(ScanTarget{CoreRef{0, std::nullopt}, {0, 1},
                                   atpg1.patterns});
    s.targets.push_back(ScanTarget{CoreRef{1, std::nullopt}, {2, 3, 4, 5},
                                   atpg2.patterns});
    const ScanSessionResult r = tester.run_scan_session(s);
    table.add_row({"core1", "scan (Fig 2a)",
                   std::to_string(atpg1.patterns.size()) + " pat (" +
                       format_double(100 * atpg1.coverage(), 1) + "% cov)",
                   std::to_string(r.total_cycles()),
                   r.targets[0].mismatches == 0 ? "PASS" : "FAIL"});
    table.add_row({"core2", "scan (Fig 2a)",
                   std::to_string(atpg2.patterns.size()) + " pat (" +
                       format_double(100 * atpg2.coverage(), 1) + "% cov)",
                   "(same session)",
                   r.targets[1].mismatches == 0 ? "PASS" : "FAIL"});
    rep.record("session", {{"session", "1"}, {"cores", "core1+core2"}},
               "cycles", r.total_cycles());
    rep.record("session", {{"session", "1"}, {"cores", "core1+core2"}},
               "pass",
               std::uint64_t{r.all_pass() ? 1u : 0u});
    rep.record("session", {{"session", "1"}, {"cores", "core1"}},
               "coverage", atpg1.coverage());
    rep.record("session", {{"session", "1"}, {"cores", "core2"}},
               "coverage", atpg2.coverage());
  }

  // --- Session 2: logic BIST of CORE3 --------------------------------------
  {
    const BistRunResult r = tester.run_bist(2, 0, 256);
    table.add_row({"core3", "BIST (Fig 2b)", "256 cycles",
                   std::to_string(r.configure_cycles + r.test_cycles),
                   r.pass ? "PASS" : "FAIL"});
    rep.record("session", {{"session", "2"}, {"cores", "core3"}}, "cycles",
               r.configure_cycles + r.test_cycles);
    rep.record("session", {{"session", "2"}, {"cores", "core3"}}, "pass",
               std::uint64_t{r.pass ? 1u : 0u});
  }

  // --- Session 3: CORE4 via external source/sink (P = 1) -------------------
  {
    // Off-chip tester: LFSR-derived patterns, P=1 serial access.
    tpg::Lfsr lfsr = tpg::Lfsr::standard(16, 0xACE1);
    tpg::PatternSet lfsr_patterns(spec4.n_flipflops);
    for (int p = 0; p < 24; ++p) {
      BitVector pat(spec4.n_flipflops);
      for (std::size_t b = 0; b < pat.size(); ++b) pat.set(b, lfsr.step());
      lfsr_patterns.add(std::move(pat));
    }
    ScanSession s;
    s.targets.push_back(
        ScanTarget{CoreRef{3, std::nullopt}, {6}, lfsr_patterns});
    const ScanSessionResult r = tester.run_scan_session(s);
    table.add_row({"core4", "external LFSR->MISR (Fig 2c)",
                   "24 pat on 1 wire", std::to_string(r.total_cycles()),
                   r.targets[0].mismatches == 0 ? "PASS" : "FAIL"});
    rep.record("session", {{"session", "3"}, {"cores", "core4"}}, "cycles",
               r.total_cycles());
    rep.record("session", {{"session", "3"}, {"cores", "core4"}}, "pass",
               std::uint64_t{r.all_pass() ? 1u : 0u});
  }

  // --- Session 4: MARCH C- on the embedded memory --------------------------
  {
    MemoryCore& ram = soc.cores()[4].as_memory();
    const BistRunResult r = tester.run_bist(4, 1, ram.mbist_cycles());
    table.add_row({"core5", "memory MARCH C-",
                   std::to_string(ram.mbist_cycles()) + " cycles",
                   std::to_string(r.configure_cycles + r.test_cycles),
                   r.pass ? "PASS" : "FAIL"});
    rep.record("session", {{"session", "4"}, {"cores", "core5"}}, "cycles",
               r.configure_cycles + r.test_cycles);
    rep.record("session", {{"session", "4"}, {"cores", "core5"}}, "pass",
               std::uint64_t{r.pass ? 1u : 0u});
  }

  // --- Session 5: hierarchical core, both children in parallel -------------
  {
    const auto atpg_a = make_patterns(spec6a);
    const auto atpg_b = make_patterns(spec6b);
    ScanSession s;
    s.routes.push_back(HierarchyRoute{5, {2, 5}});
    s.targets.push_back(ScanTarget{CoreRef{5, 0}, {2}, atpg_a.patterns});
    s.targets.push_back(ScanTarget{CoreRef{5, 1}, {5}, atpg_b.patterns});
    const ScanSessionResult r = tester.run_scan_session(s);
    table.add_row({"core6.sub_a", "hierarchical (Fig 2d)",
                   std::to_string(atpg_a.patterns.size()) + " pat",
                   std::to_string(r.total_cycles()),
                   r.targets[0].mismatches == 0 ? "PASS" : "FAIL"});
    table.add_row({"core6.sub_b", "hierarchical (Fig 2d)",
                   std::to_string(atpg_b.patterns.size()) + " pat",
                   "(same session)",
                   r.targets[1].mismatches == 0 ? "PASS" : "FAIL"});
    rep.record("session", {{"session", "5"}, {"cores", "core6"}}, "cycles",
               r.total_cycles());
    rep.record("session", {{"session", "5"}, {"cores", "core6"}}, "pass",
               std::uint64_t{r.all_pass() ? 1u : 0u});
  }

  // --- Session 6: system-bus interconnect EXTEST ----------------------------
  {
    const ExtestResult r = tester.run_extest(6, 2000);
    table.add_row({"system bus", "interconnect EXTEST",
                   std::to_string(r.connections) + " nets x " +
                       std::to_string(r.vectors) + " vec",
                   std::to_string(r.cycles),
                   r.all_pass() ? "PASS" : "FAIL"});
    rep.record("session", {{"session", "6"}, {"cores", "system_bus"}},
               "cycles", r.cycles);
    rep.record("session", {{"session", "6"}, {"cores", "system_bus"}},
               "pass", std::uint64_t{r.all_pass() ? 1u : 0u});
  }

  table.print(std::cout);
  std::cout << "\ntotal chip-level test program: " << tester.cycles()
            << " cycles\n";
  rep.record("summary", {{"bus_width", "8"}}, "total_cycles",
             tester.cycles());
  return 0;
}
