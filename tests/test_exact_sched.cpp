// Strategy::Exact (the branch-and-bound search with no node budget):
// optimality against the unpruned reference enumerator, pruning soundness,
// search-effort bounds, and the instance-size precondition.

#include <gtest/gtest.h>

#include <set>

#include "explore/soc_generator.hpp"
#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"
#include "util/rng.hpp"
#include "verify/schedule_lint.hpp"

namespace casbus::sched {
namespace {

std::vector<CoreTestSpec> random_instance(Rng& rng, std::size_t min_cores,
                                          std::size_t extra) {
  std::vector<CoreTestSpec> cores;
  const std::size_t n = min_cores + rng.below(extra);
  for (std::size_t i = 0; i < n; ++i) {
    CoreTestSpec c;
    c.name = "c" + std::to_string(i);
    const std::size_t chains = 1 + rng.below(3);
    for (std::size_t k = 0; k < chains; ++k)
      c.chains.push_back(10 + rng.below(120));
    c.patterns = 10 + rng.below(200);
    cores.push_back(std::move(c));
  }
  return cores;
}

/// Strategy::Exact's schedule together with its search-effort counters.
Schedule exact(const SessionScheduler& s, ScheduleStats* stats = nullptr) {
  return s.schedule_with(Strategy::Exact, stats);
}

TEST(ReferenceEnumerator, VisitsEveryPartitionOnce) {
  // Bell numbers B(1..6), each partition distinct and covering every item.
  const std::size_t bell[] = {1, 2, 5, 15, 52, 203};
  for (std::size_t n = 1; n <= 6; ++n) {
    std::vector<std::size_t> items;
    for (std::size_t i = 0; i < n; ++i) items.push_back(10 + i);
    std::set<PartitionGroups> seen;
    for_each_partition(items, [&](const PartitionGroups& groups) {
      std::size_t covered = 0;
      for (const auto& g : groups) covered += g.size();
      EXPECT_EQ(covered, n);
      seen.insert(groups);
    });
    EXPECT_EQ(seen.size(), bell[n - 1]) << n << " items";
  }
}

TEST(ExactScheduler, NeverWorseThanAnyHeuristic) {
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<CoreTestSpec> cores = random_instance(rng, 3, 4);
    if (rng.coin()) cores.push_back(CoreTestSpec{"b", {}, 0, 500});

    const auto width = static_cast<unsigned>(2 + rng.below(5));
    SessionScheduler s(cores, width);
    const Schedule optimum = exact(s);

    EXPECT_LE(optimum.total_cycles, s.single_session().total_cycles)
        << "trial " << trial;
    EXPECT_LE(optimum.total_cycles, s.per_core_sessions().total_cycles)
        << "trial " << trial;
    EXPECT_LE(optimum.total_cycles, s.greedy().total_cycles)
        << "trial " << trial;
  }
}

TEST(ExactScheduler, PruningPreservesOptimality) {
  // The lower-bound pruning must never cut the optimum: compare against a
  // full unpruned enumeration on random instances.
  Rng rng(41);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<CoreTestSpec> cores = random_instance(rng, 3, 4);
    if (rng.coin()) cores.push_back(CoreTestSpec{"b", {}, 0, 2000});
    SessionScheduler s(cores, static_cast<unsigned>(2 + rng.below(4)));
    EXPECT_EQ(exact(s).total_cycles,
              reference_optimal_schedule(s).total_cycles)
        << "trial " << trial;
  }
}

TEST(ExactScheduler, MatchesReferenceOnSeededSweep) {
  // 240 random instances with up to 9 scan cores: scan-only, scan with
  // BIST riders (some wide enough to overflow the rider slots), and pure
  // BIST. Every Exact schedule must cost exactly the enumerated optimum
  // and pass the static schedule linter.
  Rng rng(2024);
  for (int trial = 0; trial < 240; ++trial) {
    const int kind = trial % 3;  // 0 scan-only, 1 with riders, 2 pure BIST
    std::vector<CoreTestSpec> cores;
    if (kind != 2) cores = random_instance(rng, 1, 9);
    if (kind != 0) {
      const std::size_t engines = 1 + rng.below(kind == 2 ? 8 : 4);
      for (std::size_t e = 0; e < engines; ++e)
        cores.push_back(CoreTestSpec{"b" + std::to_string(e), {}, 0,
                                     50 + rng.below(3000)});
    }
    const auto width = static_cast<unsigned>(2 + rng.below(5));
    const SessionScheduler s(cores, width);

    const Schedule optimum = exact(s);
    EXPECT_EQ(optimum.total_cycles,
              reference_optimal_schedule(s).total_cycles)
        << "trial " << trial << " (" << cores.size() << " cores, width "
        << width << ")";
    const verify::LintReport lint =
        verify::lint_schedule(optimum, cores, width);
    EXPECT_TRUE(lint.clean()) << "trial " << trial << ":\n"
                              << lint.to_string();
  }
}

TEST(ExactScheduler, GreedyStaysWithinModestGapOnSmallInstances) {
  // Quality check for the polynomial heuristic: on random small
  // instances, the grouped-partition optimum is at most ~25% better.
  Rng rng(23);
  double worst_gap = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<CoreTestSpec> cores;
    const std::size_t n = 4 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i) {
      CoreTestSpec c;
      c.name = "c" + std::to_string(i);
      c.chains.push_back(20 + rng.below(100));
      c.patterns = 20 + rng.below(150);
      cores.push_back(std::move(c));
    }
    SessionScheduler s(cores, 3);
    const double gap = static_cast<double>(s.greedy().total_cycles) /
                           static_cast<double>(exact(s).total_cycles) -
                       1.0;
    worst_gap = std::max(worst_gap, gap);
  }
  EXPECT_LT(worst_gap, 0.25) << "greedy strayed too far from optimal";
}

TEST(ExactScheduler, SingleCoreIsTrivial) {
  std::vector<CoreTestSpec> cores = {CoreTestSpec{"only", {30, 30}, 50, 0}};
  SessionScheduler s(cores, 4);
  ScheduleStats stats;
  const Schedule optimum = exact(s, &stats);
  // The incumbent seed already is the only partition; the search may
  // prune everything.
  EXPECT_LE(stats.leaves_priced, 1u);
  EXPECT_EQ(optimum.total_cycles, s.per_core_sessions().total_cycles);
}

TEST(ExactScheduler, RefusesOversizedInstances) {
  std::vector<CoreTestSpec> cores;
  for (std::size_t i = 0; i <= kExactMaxScanCores; ++i)
    cores.push_back(CoreTestSpec{"c" + std::to_string(i), {10}, 10, 0});
  SessionScheduler s(cores, 4);
  EXPECT_THROW((void)exact(s), PreconditionError);
  EXPECT_THROW((void)reference_optimal_schedule(s), PreconditionError);
  // BIST engines do not count against the limit.
  cores.pop_back();
  cores.push_back(CoreTestSpec{"b", {}, 0, 100});
  EXPECT_NO_THROW((void)exact(SessionScheduler(cores, 4)));
}

TEST(ExactScheduler, PruningCutsTheBellSearchSpace) {
  // 4 scan cores -> B(4) = 15 partitions; the bound + greedy incumbent
  // must price at most that many leaves (usually far fewer).
  std::vector<CoreTestSpec> cores;
  for (int i = 0; i < 4; ++i)
    cores.push_back(CoreTestSpec{"c" + std::to_string(i), {10}, 10, 0});
  SessionScheduler s(cores, 4);
  ScheduleStats stats;
  const Schedule optimum = exact(s, &stats);
  EXPECT_LE(stats.leaves_priced, 15u);
  EXPECT_EQ(optimum.total_cycles,
            reference_optimal_schedule(s).total_cycles);
  // Identical cores: the greedy seed already meets the root bound, so the
  // search may stop before pricing or pruning anything. On this unequal
  // instance greedy is not optimal, so the search has to do real work.
  Rng rng(12);
  SessionScheduler u(random_instance(rng, 4, 1), 4);
  ScheduleStats searched;
  const Schedule u_optimum = exact(u, &searched);
  EXPECT_LE(searched.leaves_priced, 15u);
  EXPECT_GT(searched.leaves_priced + searched.prunes, 0u);
  EXPECT_LT(u_optimum.total_cycles, u.greedy().total_cycles);
  EXPECT_EQ(u_optimum.total_cycles,
            reference_optimal_schedule(u).total_cycles);
}

TEST(ExactScheduler, PrunedSearchHandlesTenCoresQuickly) {
  // B(10) = 115975 partitions; with the balance bound the search prices a
  // tiny fraction — this is what raised the practical core limit.
  Rng rng(31);
  std::vector<CoreTestSpec> cores;
  for (int i = 0; i < 10; ++i) {
    CoreTestSpec c;
    c.name = "c" + std::to_string(i);
    c.chains.push_back(20 + rng.below(150));
    c.patterns = 20 + rng.below(200);
    cores.push_back(std::move(c));
  }
  SessionScheduler s(cores, 4);
  ScheduleStats stats;
  const Schedule optimum = exact(s, &stats);
  EXPECT_GT(stats.prunes, 0u);
  EXPECT_LT(stats.leaves_priced, 115975u);
  EXPECT_LE(optimum.total_cycles, s.greedy().total_cycles);
  EXPECT_GE(optimum.total_cycles,
            schedule_lower_bound(cores, 4, s.reconfig_cost()));
  EXPECT_EQ(optimum.total_cycles,
            reference_optimal_schedule(s).total_cycles);
}

TEST(ExactScheduler, CanBeatTheReferenceOnAPresentationTie) {
  // price_scan_partition depends on how a partition is presented (LPT and
  // BIST-slotting tie-breaks), and the search also prices greedy's seed in
  // greedy's own session order. On this known 10-core instance that beats
  // every canonically presented partition by 38%. Pinned so the gap stays
  // visible: once pricing is canonical this becomes an equality.
  const explore::GeneratedSoc soc =
      explore::SocGenerator(1).generate(10, explore::SocProfile::BistHeavy,
                                        27);
  SessionScheduler s(soc.cores, soc.suggested_width);
  const Schedule optimum = exact(s);
  EXPECT_EQ(optimum.total_cycles, 1451932u);
  EXPECT_EQ(reference_optimal_schedule(s).total_cycles, 2352259u);
  EXPECT_GE(optimum.total_cycles,
            schedule_lower_bound(soc.cores, soc.suggested_width,
                                 s.reconfig_cost()));
  EXPECT_TRUE(
      verify::lint_schedule(optimum, soc.cores, soc.suggested_width).clean());
}

}  // namespace
}  // namespace casbus::sched
