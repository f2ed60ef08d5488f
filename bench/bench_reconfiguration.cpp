/// \file bench_reconfiguration.cpp
/// Experiment C3 — paper §4/§5: dynamic reconfiguration between sessions.
/// "Different TAM architectures can be addressed, in sequential order,
/// within the same test program, in order to optimize test performances.
/// This represents the main advantage of the proposed reconfigurable
/// CAS-BUS architecture."

#include <iostream>

#include "bench_util.hpp"
#include "sched/scheduler.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace casbus;
  using namespace casbus::bench;

  banner("C3", "Static configuration vs dynamic reconfiguration");

  JsonReporter rep("reconfiguration");

  // --- analytic comparison on the reference SoC across widths --------------
  {
    Table table({"N", "static", "per-core", "greedy", "phased",
                 "best (incl. rails)", "gain vs static"},
                {Align::Right, Align::Right, Align::Right, Align::Right,
                 Align::Right, Align::Right, Align::Right});
    for (const unsigned n : {2u, 4u, 6u, 8u, 12u, 16u}) {
      sched::SessionScheduler s(reference_soc_cores(), n);
      const auto stat = s.single_session().total_cycles;
      const auto per_core = s.per_core_sessions().total_cycles;
      const auto greedy = s.greedy().total_cycles;
      const auto phased = s.phased().total_cycles;
      const auto best = s.best().total_cycles;
      table.add_row(
          {std::to_string(n), std::to_string(stat),
           std::to_string(per_core), std::to_string(greedy),
           std::to_string(phased), std::to_string(best),
           format_double(100.0 * (1.0 - static_cast<double>(best) /
                                            static_cast<double>(stat)),
                         1) +
               "%"});
      const JsonReporter::Params pt = {{"n", std::to_string(n)}};
      rep.record("strategy", pt, "static_cycles", stat);
      rep.record("strategy", pt, "per_core_cycles", per_core);
      rep.record("strategy", pt, "greedy_cycles", greedy);
      rep.record("strategy", pt, "phased_cycles", phased);
      rep.record("strategy", pt, "best_cycles", best);
    }
    table.print(std::cout);
    std::cout
        << "\nThe static program drags every core through the largest "
           "pattern budget; reconfiguring between sessions groups cores "
           "with similar budgets (greedy), rebalances freed wires as "
           "cores retire (phased), or re-partitions rail-style (best); "
           "each reconfiguration costs only the IR chain shift, counted "
           "above.\n";
  }

  // --- cycle-accurate two-session demonstration -----------------------------
  std::cout << "\nCycle-accurate reconfiguration (2-wire bus, one SoC, two "
               "sessions with different switch schemes):\n\n";
  {
    const auto sa = small_spec(601, 2, 14);
    const auto sb = small_spec(602, 1, 10);
    auto soc = soc::SocBuilder(2)
                   .add_scan_core("wide", sa)
                   .add_scan_core("narrow", sb)
                   .build();
    soc::SocTester tester(*soc);
    Rng rng(3);

    // Session 1: the wide core uses both wires (its 2 chains in parallel).
    soc::ScanSession s1;
    s1.targets.push_back(soc::ScanTarget{
        soc::CoreRef{0, std::nullopt}, {0, 1},
        tpg::PatternSet::random(14, 10, rng)});
    const auto r1 = tester.run_scan_session(s1);

    // Session 2 (bus reconfigured): the narrow core gets wire 1.
    soc::ScanSession s2;
    s2.targets.push_back(soc::ScanTarget{
        soc::CoreRef{1, std::nullopt}, {1},
        tpg::PatternSet::random(10, 4, rng)});
    const auto r2 = tester.run_scan_session(s2);

    Table table({"session", "configuration", "config cycles", "test cycles",
                 "verdict"},
                {Align::Left, Align::Left, Align::Right, Align::Right,
                 Align::Left});
    table.add_row({"1", "wide: chains -> wires {0,1}; narrow: BYPASS",
                   std::to_string(r1.configure_cycles),
                   std::to_string(r1.test_cycles),
                   r1.all_pass() ? "PASS" : "FAIL"});
    table.add_row({"2", "wide: BYPASS; narrow: chain -> wire {1}",
                   std::to_string(r2.configure_cycles),
                   std::to_string(r2.test_cycles),
                   r2.all_pass() ? "PASS" : "FAIL"});
    table.print(std::cout);
    rep.record("cycle_accurate", {{"session", "1"}}, "configure_cycles",
               r1.configure_cycles);
    rep.record("cycle_accurate", {{"session", "1"}}, "test_cycles",
               r1.test_cycles);
    rep.record("cycle_accurate", {{"session", "1"}}, "pass",
               std::uint64_t{r1.all_pass() ? 1u : 0u});
    rep.record("cycle_accurate", {{"session", "2"}}, "configure_cycles",
               r2.configure_cycles);
    rep.record("cycle_accurate", {{"session", "2"}}, "test_cycles",
               r2.test_cycles);
    rep.record("cycle_accurate", {{"session", "2"}}, "pass",
               std::uint64_t{r2.all_pass() ? 1u : 0u});
    std::cout << "\nSame silicon, two TAM shapes inside one test program — "
               "the switch schemes were reloaded through the wire-0 "
               "instruction chain between sessions.\n";
  }

  // --- heuristic quality vs the proven optimum (small instances) -----------
  std::cout << "\nHeuristic quality vs the unbudgeted branch-and-bound "
               "(random 5-7 core instances):\n\n";
  {
    Table table({"instance", "scan cores", "leaves priced", "optimal",
                 "greedy", "gap", "best()", "gap"},
                {Align::Left, Align::Right, Align::Right, Align::Right,
                 Align::Right, Align::Right, Align::Right, Align::Right});
    Rng rng(99);
    for (int t = 0; t < 5; ++t) {
      std::vector<sched::CoreTestSpec> cores;
      const std::size_t n = 5 + rng.below(3);
      for (std::size_t i = 0; i < n; ++i) {
        sched::CoreTestSpec c;
        c.name = "c" + std::to_string(i);
        const std::size_t chains = 1 + rng.below(3);
        for (std::size_t k = 0; k < chains; ++k)
          c.chains.push_back(15 + rng.below(120));
        c.patterns = 20 + rng.below(250);
        cores.push_back(std::move(c));
      }
      sched::SessionScheduler s(cores, 4);
      sched::ScheduleStats stats;
      const std::uint64_t optimal =
          s.schedule_with(sched::Strategy::Exact, &stats).total_cycles;
      const auto greedy = s.greedy().total_cycles;
      const auto best = s.best().total_cycles;
      const auto gap = [&](std::uint64_t v) {
        return format_double(
                   100.0 * (static_cast<double>(v) /
                                static_cast<double>(optimal) -
                            1.0),
                   1) +
               "%";
      };
      table.add_row({"rand" + std::to_string(t), std::to_string(n),
                     std::to_string(stats.leaves_priced),
                     std::to_string(optimal),
                     std::to_string(greedy), gap(greedy),
                     std::to_string(best), gap(best)});
      const JsonReporter::Params pt = {{"instance",
                                        "rand" + std::to_string(t)}};
      rep.record("heuristic_quality", pt, "optimal_cycles", optimal);
      rep.record("heuristic_quality", pt, "greedy_cycles", greedy);
      rep.record("heuristic_quality", pt, "best_cycles", best);
    }
    table.print(std::cout);
    std::cout << "\n(best() may beat the partition optimum: rail emulation "
                 "and phased retirement are outside the partition space.)\n";
  }
  return 0;
}
