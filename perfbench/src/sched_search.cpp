/// \file sched_search.cpp
/// sched-search: scheduling called directly on SocGenerator populations,
/// 4 profiles x {10, 100, 1000} cores, with greedy, phased and
/// branch-and-bound on every instance and the exact search on the 10-core
/// ones. Schedule is 0.4% of floor-cold, so the sched and explore layers
/// need a workload of their own; the 1000-core instances are the scale
/// the paper's scalability claim is about.
///
/// Branch-and-bound runs through explore::BranchBoundScheduler with the
/// default configuration (one thread, default node budget) — the same
/// search sched::schedule_with(Strategy::BranchBound) dispatches to — so
/// the certified lower bound and optimality verdict are visible.
#include <array>
#include <fstream>
#include <string>
#include <vector>

#include "explore/branch_bound.hpp"
#include "explore/soc_generator.hpp"
#include "sched/scheduler.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "verify/schedule_lint.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using casbus::explore::BranchBoundResult;
using casbus::explore::BranchBoundScheduler;
using casbus::explore::GeneratedSoc;
using casbus::explore::SocGenerator;
using casbus::explore::SocProfile;
using casbus::sched::Strategy;

constexpr std::array<std::size_t, 3> kSizes = {10, 100, 1000};
constexpr std::size_t kLargeCores = 1000;
constexpr std::size_t kExactMaxCores = 10;
/// Pass contents cycle through this many distinct draws.
constexpr std::size_t kDraws = 16;
/// Each pass schedules the 1000-core instances of one population draw
/// and the 10- and 100-core instances of this many draws: the small ones
/// cost ~1/4 of a pass but carry most of the draw-to-draw variation
/// (B&B on a 100-core hierarchical SoC takes 0.15 s to 1.6 s), so their
/// per-class medians need more samples.
constexpr std::size_t kSmallDrawsPerPass = 3;
constexpr std::size_t kMinPasses = 1;
constexpr const char* kPassSpan = "pass";
constexpr const char* kLintSpan = "verify.lint";

/// Strategies in class order; B&B runs through BranchBoundScheduler.
constexpr std::size_t kStrategyCount = 4;
constexpr std::size_t kBranchBound = 3;
constexpr std::array<Strategy, 3> kHeuristics = {
    Strategy::Greedy, Strategy::Phased, Strategy::Exact};
constexpr std::array<const char*, kStrategyCount> kStrategySpans = {
    "sched.greedy", "sched.phased", "sched.exact", "sched.bb"};

using Population = std::vector<GeneratedSoc>;

/// The instances of draw \p draw whose core count passes \p keep.
template <typename Keep>
Population make_population(const SocGenerator& generator, std::size_t draw,
                           Keep keep) {
  Population population;
  for (const std::size_t cores : kSizes) {
    if (!keep(cores)) continue;
    for (std::size_t p = 0; p < casbus::explore::kProfileCount; ++p)
      population.push_back(
          generator.generate(cores, static_cast<SocProfile>(p), draw));
  }
  return population;
}

/// An instance class: one (size, profile, strategy) combination.
std::size_t class_of(const GeneratedSoc& soc, std::size_t strategy) {
  std::size_t size = 0;
  while (kSizes[size] != soc.requested_cores) ++size;
  return (size * casbus::explore::kProfileCount +
          static_cast<std::size_t>(soc.profile)) *
             kStrategyCount +
         strategy;
}
constexpr std::size_t kClassCount =
    kSizes.size() * casbus::explore::kProfileCount * kStrategyCount;

/// Everything measured over one half (untraced or traced) of a run.
struct Half {
  std::size_t passes = 0;
  /// Latency (call + lint) of every schedule, by instance class.
  std::array<std::vector<double>, kClassCount> class_s;
  std::vector<double> latency_s;  ///< every schedule: call + lint
  std::uint64_t schedules = 0;
  double seconds = 0.0;           ///< summed pass time
  std::uint64_t bb_nodes = 0;     ///< B&B expansions over every pass

  /// Schedules per second of a population holding one instance of every
  /// class, each at its class's median cost over the half. Medians over
  /// classes sampled on several draws keep out both heavy-tailed
  /// instances and bursts of host slowdown that a mean would absorb.
  [[nodiscard]] double throughput() const {
    double seconds_per_population = 0.0;
    std::size_t classes = 0;
    for (const std::vector<double>& samples : class_s) {
      if (samples.empty()) continue;
      seconds_per_population += median(samples);
      ++classes;
    }
    return static_cast<double>(classes) / seconds_per_population;
  }
};

}  // namespace

Outcome run_sched_search(const Options& options) {
  Outcome out;
  const SocGenerator generator(options.seed);

  // Set-up: generate every population draw. It is repeated before each
  // pass, so setup_s is a median of samples spread over the whole run
  // rather than of a few taken in one noisy instant.
  std::vector<Population> large, small;
  std::vector<double> setup_s;
  auto set_up = [&] {
    const auto start = Clock::now();
    large.clear();
    small.clear();
    for (std::size_t d = 0; d < kDraws; ++d)
      large.push_back(make_population(
          generator, d, [](std::size_t c) { return c == kLargeCores; }));
    for (std::size_t d = 0; d < kDraws * kSmallDrawsPerPass; ++d)
      small.push_back(make_population(
          generator, d, [](std::size_t c) { return c != kLargeCores; }));
    setup_s.push_back(since(start));
  };
  set_up();

  Tracer tracer;
  // Schedule costs of each pass content as first produced; a content
  // scheduled again (the traced half restarts at content 0) must
  // reproduce them.
  std::vector<std::vector<std::uint64_t>> costs(kDraws);
  // Deterministic figures of pass content 0.
  std::uint64_t planned_cycles = 0, bb_nodes = 0, bb_prunes = 0,
                bb_leaves = 0;
  double gap_sum = 0.0;
  std::size_t bb_runs = 0;

  auto pass = [&](bool traced, Half& half) {
    set_up();
    Tracer* t = traced ? &tracer : nullptr;
    const std::size_t content = half.passes % kDraws;
    std::vector<const GeneratedSoc*> instances;
    for (std::size_t k = 0; k < kSmallDrawsPerPass; ++k)
      for (const GeneratedSoc& soc : small[content * kSmallDrawsPerPass + k])
        instances.push_back(&soc);
    for (const GeneratedSoc& soc : large[content]) instances.push_back(&soc);

    std::vector<std::uint64_t>& cost = costs[content];
    const bool first = cost.empty();
    std::size_t slot = 0;
    auto record = [&](const GeneratedSoc& soc, std::size_t strategy,
                      std::uint64_t cycles, double latency_s) {
      ++out.attempted;
      half.latency_s.push_back(latency_s);
      half.class_s[class_of(soc, strategy)].push_back(latency_s);
      if (first) {
        cost.push_back(cycles);
        if (content == 0) planned_cycles += cycles;
      } else if (cost.at(slot) != cycles) {
        out.fail_check("pass content " + std::to_string(content) +
                       " schedule " + std::to_string(slot) +
                       " changed cost between passes");
      }
      ++slot;
    };
    auto lint = [&](const casbus::verify::LintReport& report,
                    const GeneratedSoc& soc, const char* strategy) {
      if (report.error_count() != 0)
        out.fail_check(soc.name + " " + strategy + ": " + report.summary());
    };

    const auto start = Clock::now();
    {
      const Scope pass_span(t, kPassSpan);
      for (const GeneratedSoc* instance : instances) {
        const GeneratedSoc& soc = *instance;
        const unsigned width = soc.suggested_width;
        std::uint64_t exact_cycles = 0;
        for (std::size_t k = 0; k < kHeuristics.size(); ++k) {
          const Strategy s = kHeuristics[k];
          if (s == Strategy::Exact && soc.requested_cores > kExactMaxCores)
            continue;
          const auto call_start = Clock::now();
          casbus::sched::Schedule schedule;
          {
            const Scope call_span(t, kStrategySpans[k]);
            schedule = casbus::sched::schedule_with(soc.cores, width, s);
          }
          {
            const Scope lint_span(t, kLintSpan);
            lint(casbus::verify::lint_schedule(schedule, soc.cores, width),
                 soc, kStrategySpans[k]);
          }
          record(soc, k, schedule.total_cycles, since(call_start));
          if (s == Strategy::Exact) exact_cycles = schedule.total_cycles;
        }

        const auto call_start = Clock::now();
        BranchBoundResult bb;
        {
          const Scope call_span(t, kStrategySpans[kBranchBound]);
          const casbus::sched::SessionScheduler scheduler(soc.cores, width);
          bb = BranchBoundScheduler(scheduler).run();
        }
        {
          const Scope lint_span(t, kLintSpan);
          lint(casbus::verify::lint_branch_bound(bb, soc.cores, width), soc,
               kStrategySpans[kBranchBound]);
        }
        record(soc, kBranchBound, bb.best_cost, since(call_start));
        if (bb.lower_bound > bb.best_cost)
          out.fail_check(soc.name + ": lower bound above the B&B cost");
        if (bb.optimal && exact_cycles != 0 && exact_cycles != bb.best_cost)
          out.fail_check(soc.name + ": exact " + std::to_string(exact_cycles) +
                         " != proven-optimal B&B " +
                         std::to_string(bb.best_cost));
        half.bb_nodes += bb.nodes_expanded;
        if (first && content == 0) {
          gap_sum += bb.gap();
          ++bb_runs;
          bb_nodes += bb.nodes_expanded;
          bb_prunes += bb.prunes;
          bb_leaves += bb.leaves_priced;
        }
      }
    }
    half.seconds += since(start);
    half.schedules += slot;
    ++half.passes;
  };

  auto run_half = [&](bool traced, double budget) {
    Half half;
    const auto start = Clock::now();
    while (half.passes < kMinPasses || since(start) < budget)
      pass(traced, half);
    return half;
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  Half plain = run_half(false, budget);

  out.metric("setup_s", median(setup_s));
  out.metric("programs_per_s", plain.throughput());
  out.note("programs_per_s_time_averaged",
           static_cast<double>(plain.schedules) / plain.seconds);
  out.note("passes", static_cast<double>(plain.passes));
  out.note("schedules_per_pass", static_cast<double>(costs[0].size()));

  if (options.trace) {
    Half traced = run_half(true, budget);

    Tail p50 = percentile(plain.latency_s, 50.0);
    Tail p99 = percentile(plain.latency_s, 99.0);
    out.metric("job_ms_p50", p50.value * 1e3);
    out.metric("job_ms_p99", p99.value * 1e3);
    out.metric("job_samples", static_cast<double>(p99.samples));
    out.metric("job_p99_beyond", static_cast<double>(p99.beyond));
    out.metric("sim_cycles_per_s", 0.0);
    out.metric("sim_cycles", 0.0);
    out.metric("cycle_dev_max", 0.0);
    out.metric("schedules_per_s", plain.throughput());
    out.metric("planned_cycles", static_cast<double>(planned_cycles));
    out.metric("bound_gap_mean", gap_sum / static_cast<double>(bb_runs));
    out.metric("trace.overhead_frac",
               1.0 - traced.throughput() / plain.throughput());

    const double wall = tracer.totals(kPassSpan).total_s;
    auto share = [&](const char* name) {
      return tracer.totals(name).total_s / wall;
    };
    for (const char* zero :
         {"floor.submit_block_frac", "floor.poll_frac", "floor.queue_frac",
          "floor.hit_serves_per_s", "floor.cache_hit_frac",
          "floor.worker_busy_frac", "build_frac", "schedule_frac",
          "compile_frac", "simulate_frac", "verdict_frac",
          "simulate.scan_frac", "simulate.bist_frac", "simulate.hier_frac",
          "simulate.maint_frac", "simulate.self_frac",
          "simulate.precompute_frac", "simulate.cycles_per_s",
          "simulate.memo_hit_frac", "netlist.cell_evals",
          "netlist.eval_passes", "netlist.event_skip_frac"})
      out.metric(zero, 0.0);
    out.metric("unattributed_frac", tracer.totals(kPassSpan).self_s / wall);
    out.metric("verify_frac", share(kLintSpan));
    out.metric("sched.greedy_frac", share("sched.greedy"));
    out.metric("sched.phased_frac", share("sched.phased"));
    out.metric("sched.exact_frac", share("sched.exact"));
    out.metric("sched.bb_frac", share("sched.bb"));
    out.metric("sched.bb_nodes", static_cast<double>(bb_nodes));
    out.metric("sched.bb_prunes", static_cast<double>(bb_prunes));
    out.metric("sched.bb_leaves", static_cast<double>(bb_leaves));
    out.metric("sched.bb_prune_frac",
               bb_prunes + bb_nodes == 0
                   ? 0.0
                   : static_cast<double>(bb_prunes) /
                         static_cast<double>(bb_prunes + bb_nodes));
    const auto bb_totals = tracer.totals("sched.bb");
    out.metric("sched.bb_nodes_per_s",
               static_cast<double>(traced.bb_nodes) / bb_totals.total_s);
    out.note("trace_spans_dropped", static_cast<double>(tracer.dropped()));
    std::ofstream spans(options.out_dir + "/spans.json");
    tracer.write_json(spans);
  }

  out.metric("fail_frac", out.fail_frac());
  out.metric("peak_rss_mb", peak_rss_mb());
  return out;
}

}  // namespace perfbench
