/// \file floor_cold.cpp
/// floor-cold: the ROADMAP reference mix through TestFloor::run, one
/// worker, default cache settings. JobFactory recipes are all distinct
/// and each repetition opens a fresh session (fresh caches), so every job
/// runs Build -> Schedule -> Compile -> Verify -> Simulate -> Verdict cold
/// and Simulate dominates: the workload for the soc, netlist, sim, core
/// and tpg layers.
#include <array>
#include <fstream>
#include <string>
#include <vector>

#include "floor/job_factory.hpp"
#include "floor/test_floor.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using casbus::floor::FloorConfig;
using casbus::floor::FloorReport;
using casbus::floor::JobFactory;
using casbus::floor::JobResult;
using casbus::floor::JobSpec;
using casbus::floor::ScenarioKind;
using casbus::floor::Stage;
using casbus::floor::TestFloor;

/// Jobs per repetition: large enough that the batch's scenario mix, and
/// so its throughput, varies little from seed to seed.
constexpr std::size_t kBatchJobs = 400;
constexpr std::size_t kWarmupJobs = 16;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinReps = 2;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;
constexpr const char* kRunSpan = "TestFloor::run";

FloorConfig floor_config(bool traced) {
  FloorConfig config;
  config.workers = 1;
  if (traced) {
    config.metrics = true;
    config.trace_capacity = kTraceCapacity;
  }
  return config;
}

const char* strategy_span(casbus::sched::Strategy s) {
  using casbus::sched::Strategy;
  switch (s) {
    case Strategy::Greedy: return "sched.greedy";
    case Strategy::Phased: return "sched.phased";
    case Strategy::Exact: return "sched.exact";
    case Strategy::BranchBound: return "sched.bb";
    default: return "sched.other";
  }
}

constexpr std::array<const char*, casbus::floor::kScenarioCount>
    kScenarioSimulate = {"simulate.scan", "simulate.bist", "simulate.hier",
                         "simulate.maint"};

/// Everything measured over one half (untraced or traced) of a run.
struct Half {
  std::vector<double> programs_per_s;  ///< per repetition
  std::vector<double> job_wall_s;      ///< every job of every repetition
  double seconds = 0.0;                ///< summed TestFloor::run time
  std::size_t jobs = 0;
  std::size_t cache_hits = 0;
  double job_wall_sum_s = 0.0;
  std::uint64_t sim_cycles = 0;  ///< summed over repetitions

  /// Jobs completed per second of the timed region.
  [[nodiscard]] double throughput() const {
    return static_cast<double>(jobs) / seconds;
  }
  std::uint64_t bb_nodes = 0;    ///< summed over repetitions
  std::array<double, casbus::floor::kScenarioCount> simulate_s{};
};

}  // namespace

Outcome run_floor_cold(const Options& options) {
  Outcome out;
  const JobFactory factory(options.seed);

  // Set-up: generate the batch and warm the process up on a few jobs.
  // Repeated so setup_s is a median, not one noisy sample.
  std::vector<JobSpec> jobs;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto start = Clock::now();
    jobs = factory.make_jobs(kBatchJobs);
    const std::vector<JobSpec> warm(jobs.begin(),
                                    jobs.begin() + kWarmupJobs);
    (void)TestFloor(floor_config(false)).run(warm);
    setup_s.push_back(since(start));
  }

  std::string reference_summary;
  FloorReport first;  // first repetition: deterministic totals and counters
  Tracer tracer;

  // One repetition: time TestFloor::run, then check its outputs.
  auto repetition = [&](bool traced, Half& half) {
    Tracer* t = traced ? &tracer : nullptr;
    const TestFloor floor(floor_config(traced));
    const auto start = Clock::now();
    FloorReport report;
    {
      const Scope span(t, kRunSpan);
      report = floor.run(jobs);
    }
    const double seconds = since(start);

    half.programs_per_s.push_back(static_cast<double>(jobs.size()) /
                                  seconds);
    half.seconds += seconds;
    half.sim_cycles += report.total.sim_cycles;

    const std::string summary = report.deterministic_summary();
    if (reference_summary.empty()) {
      reference_summary = summary;
      first = report;
    } else if (summary != reference_summary) {
      out.fail_check(std::string("deterministic_summary differs from the "
                                 "first repetition (") +
                     (traced ? "traced" : "untraced") + ")");
    }
    if (report.results.size() != jobs.size())
      out.fail_check("TestFloor::run returned " +
                     std::to_string(report.results.size()) + " of " +
                     std::to_string(jobs.size()) + " results");

    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const JobResult& r = report.results[i];
      out.job(r.error, r.pass);
      if (r.scenario == ScenarioKind::ScanOnly &&
          r.predicted_cycles != r.measured_cycles)
        out.fail_check("scan job " + std::to_string(r.id) +
                       ": predicted " + std::to_string(r.predicted_cycles) +
                       " != measured " + std::to_string(r.measured_cycles));
      half.job_wall_s.push_back(r.wall_seconds);
      half.job_wall_sum_s += r.wall_seconds;
      ++half.jobs;
      if (r.cache_hit()) ++half.cache_hits;
      const std::size_t sim = static_cast<std::size_t>(Stage::Simulate);
      half.simulate_s[static_cast<std::size_t>(r.scenario)] +=
          r.stage_seconds[sim];
      if (t == nullptr) continue;
      // Library-timed stages are the children of the TestFloor::run span;
      // with one worker they never overlap.
      for (std::size_t s = 0; s < casbus::floor::kStageCount; ++s)
        t->attribute(kRunSpan,
                     casbus::floor::stage_name(static_cast<Stage>(s)),
                     r.stage_seconds[s]);
      t->attribute("simulate", "simulate.precompute",
                   r.engine.precompute_seconds);
      const std::size_t sched = static_cast<std::size_t>(Stage::Schedule);
      t->attribute("schedule", strategy_span(jobs[i].strategy),
                   r.stage_seconds[sched]);
      half.bb_nodes += r.engine.sched_nodes_expanded;
    }
  };

  auto run_half = [&](bool traced, double budget) {
    Half half;
    const auto start = Clock::now();
    while (half.programs_per_s.size() < kMinReps || since(start) < budget)
      repetition(traced, half);
    return half;
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  Half plain = run_half(false, budget);

  out.metric("setup_s", median(setup_s));
  out.metric("programs_per_s", plain.throughput());
  out.note("programs_per_s_each", plain.programs_per_s);
  out.note("repetitions", static_cast<double>(plain.programs_per_s.size()));
  out.note("batch_jobs", static_cast<double>(kBatchJobs));
  const Quartiles pps = quartiles(plain.programs_per_s);
  out.note("programs_per_s_spread", pps.relative_spread());
  out.note("setup_s_spread", quartiles(setup_s).relative_spread());

  if (options.trace) {
    Half traced = run_half(true, budget);

    const Tail p50 = percentile(plain.job_wall_s, 50.0);
    const Tail p99 = percentile(plain.job_wall_s, 99.0);
    out.metric("job_ms_p50", p50.value * 1e3);
    out.metric("job_ms_p99", p99.value * 1e3);
    out.metric("job_samples", static_cast<double>(p99.samples));
    out.metric("job_p99_beyond", static_cast<double>(p99.beyond));
    out.metric("sim_cycles_per_s",
               static_cast<double>(plain.sim_cycles) / plain.seconds);
    out.metric("sim_cycles", static_cast<double>(first.total.sim_cycles));
    out.metric("cycle_dev_max", first.total.worst_deviation);
    out.metric("schedules_per_s", 0.0);
    out.metric("planned_cycles", 0.0);
    out.metric("bound_gap_mean", 0.0);
    out.metric("trace.overhead_frac",
               1.0 - traced.throughput() / plain.throughput());

    // Per-layer shares of the traced wall time.
    const double wall = tracer.totals(kRunSpan).total_s;
    auto share = [&](const char* name) {
      return tracer.totals(name).total_s / wall;
    };
    out.metric("floor.submit_block_frac", 0.0);
    out.metric("floor.poll_frac", 0.0);
    out.metric("floor.queue_frac", 0.0);
    out.metric("floor.hit_serves_per_s", 0.0);
    out.metric("floor.cache_hit_frac",
               static_cast<double>(traced.cache_hits) /
                   static_cast<double>(traced.jobs));
    out.metric("floor.worker_busy_frac", traced.job_wall_sum_s / wall);
    out.metric("unattributed_frac", tracer.totals(kRunSpan).self_s / wall);
    out.metric("build_frac", share("build"));
    out.metric("schedule_frac", share("schedule"));
    out.metric("compile_frac", share("compile"));
    out.metric("verify_frac", share("verify"));
    out.metric("simulate_frac", share("simulate"));
    out.metric("verdict_frac", share("verdict"));
    for (std::size_t k = 0; k < kScenarioSimulate.size(); ++k)
      out.metric(std::string(kScenarioSimulate[k]) + "_frac",
                 traced.simulate_s[k] / wall);
    out.metric("simulate.self_frac", tracer.totals("simulate").self_s / wall);
    out.metric("simulate.precompute_frac", share("simulate.precompute"));
    out.metric("simulate.cycles_per_s",
               static_cast<double>(traced.sim_cycles) /
                   tracer.totals("simulate").total_s);

    // Engine counters of one repetition: deterministic for a seed.
    std::uint64_t memo_lookups = 0, memo_hits = 0, cell_evals = 0,
                  sweep_evals = 0, passes = 0, nodes = 0, prunes = 0,
                  leaves = 0;
    for (const JobResult& r : first.results) {
      memo_lookups += r.engine.sim_memo_lookups;
      memo_hits += r.engine.sim_memo_hits;
      cell_evals += r.engine.sim_cell_evals;
      sweep_evals += r.engine.sim_sweep_cell_evals;
      passes += r.engine.sim_eval_passes;
      nodes += r.engine.sched_nodes_expanded;
      prunes += r.engine.sched_prunes;
      leaves += r.engine.sched_leaves_priced;
    }
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    out.metric("simulate.memo_hit_frac", ratio(memo_hits, memo_lookups));
    out.metric("netlist.cell_evals", static_cast<double>(cell_evals));
    out.metric("netlist.eval_passes", static_cast<double>(passes));
    out.metric("netlist.event_skip_frac",
               sweep_evals == 0 ? 0.0 : 1.0 - ratio(cell_evals, sweep_evals));
    out.metric("sched.greedy_frac", share("sched.greedy"));
    out.metric("sched.phased_frac", share("sched.phased"));
    out.metric("sched.exact_frac", share("sched.exact"));
    out.metric("sched.bb_frac", share("sched.bb"));
    out.metric("sched.bb_nodes", static_cast<double>(nodes));
    out.metric("sched.bb_prunes", static_cast<double>(prunes));
    out.metric("sched.bb_leaves", static_cast<double>(leaves));
    out.metric("sched.bb_prune_frac", ratio(prunes, prunes + nodes));
    const double bb_s = tracer.totals("sched.bb").total_s;
    out.metric("sched.bb_nodes_per_s",
               bb_s > 0.0 ? static_cast<double>(traced.bb_nodes) / bb_s : 0.0);
    out.note("trace_spans_dropped", static_cast<double>(tracer.dropped()));
    std::ofstream spans(options.out_dir + "/spans.json");
    tracer.write_json(spans);
  }

  out.metric("fail_frac", out.fail_frac());
  out.metric("peak_rss_mb", peak_rss_mb());
  return out;
}

}  // namespace perfbench
