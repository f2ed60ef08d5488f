/// \file bench_obs.cpp
/// O1 — Cost of the telemetry layer: the observability contract is that
/// instrumentation is effectively free — near-zero when disabled (a null
/// pointer test per site) and within a few percent of the uninstrumented
/// floor when fully on. This harness measures both halves:
///
///   - registry micro-costs: ns per add()/observe() against a live
///     Registry, and ns per site when telemetry is disabled (the
///     null-`Registry*` path every floor instrument site compiles to),
///     plus the cold-path snapshot() cost,
///   - floor overhead: an identical job mix of cold and verdict-cached
///     jobs run through FloorSession with telemetry fully off and fully on
///     (metrics + tracing) in alternating repetitions, reporting both
///     throughputs and the median paired overhead fraction that the CI
///     gate caps at 5% (tools/check_perf_gates.py --obs, bound in
///     tools/bench_floors.json),
///   - health-engine costs: µs per TimeSeriesSampler tick over the full
///     floor metric catalogue (gated at obs.max_sampler_tick_us — the
///     budget one background tick may spend inside the registry) and µs
///     per HealthMonitor::evaluate over the whole rule catalogue (gated
///     at obs.max_health_eval_us).
///
/// Artifact: BENCH_obs.json (validated in CI by check_bench_json.py --obs).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "floor/health.hpp"
#include "floor/job_factory.hpp"
#include "floor/session.hpp"
#include "floor/telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace casbus;
using bench::JsonReporter;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// ns per iteration of \p fn over \p iters repetitions.
template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  return seconds_since(start) * 1e9 / static_cast<double>(iters);
}

/// Wall seconds for one full floor run over \p specs.
double floor_run_seconds(const floor::FloorConfig& config,
                         const std::vector<floor::JobSpec>& specs) {
  const auto start = std::chrono::steady_clock::now();
  floor::FloorSession session(config);
  for (const floor::JobSpec& spec : specs) {
    const bool accepted = session.submit(spec);
    CASBUS_ASSERT(accepted, "bench_obs: session closed early");
  }
  const floor::FloorReport report = session.drain();
  CASBUS_ASSERT(report.total.jobs == specs.size(),
                "bench_obs: job count mismatch");
  return seconds_since(start);
}

}  // namespace

int main() {
  bench::banner("O1", "Telemetry layer overhead");
  JsonReporter rep("obs");

  // --- Head 1: registry micro-costs --------------------------------------
  constexpr std::size_t kOps = 2'000'000;
  Table micro({"operation", "ns/op"}, {Align::Left, Align::Right});

  obs::Registry registry;
  const obs::MetricId counter = registry.counter("bench.counter");
  const obs::MetricId hist =
      registry.histogram("bench.hist", obs::Registry::latency_buckets_us());

  const double add_ns =
      ns_per_op(kOps, [&](std::size_t) { registry.add(counter); });
  const double observe_ns = ns_per_op(kOps, [&](std::size_t i) {
    registry.observe(hist, static_cast<double>(i % 1000));
  });

  // The disabled path as the floor compiles it: every instrument site
  // holds a Registry* that is null when telemetry is off. volatile keeps
  // the compiler from folding the loop away.
  obs::Registry* volatile disabled = nullptr;
  const double disabled_ns = ns_per_op(kOps, [&](std::size_t) {
    obs::Registry* r = disabled;
    if (r != nullptr) r->add(counter);
  });

  obs::TraceRecorder recorder(kOps);
  const double record_ns = ns_per_op(kOps / 4, [&](std::size_t i) {
    obs::TraceSpan span;
    span.name = "bench";
    span.ts_us = i;
    span.dur_us = 1;
    (void)recorder.record(span);
  });

  const auto snap_start = std::chrono::steady_clock::now();
  const obs::Snapshot snap = registry.snapshot();
  const double snapshot_us = seconds_since(snap_start) * 1e6;
  CASBUS_ASSERT(snap.counter("bench.counter") == kOps,
                "bench_obs: counter lost updates");

  micro.add_row({"Registry::add", format_double(add_ns, 2)});
  micro.add_row({"Registry::observe", format_double(observe_ns, 2)});
  micro.add_row({"disabled site (null check)",
                 format_double(disabled_ns, 2)});
  micro.add_row({"TraceRecorder::record", format_double(record_ns, 2)});
  micro.add_row({"Registry::snapshot (us)", format_double(snapshot_us, 1)});
  micro.print(std::cout);

  rep.record("registry", {{"op", "add"}}, "ns_per_op", add_ns);
  rep.record("registry", {{"op", "observe"}}, "ns_per_op", observe_ns);
  rep.record("registry", {{"op", "disabled"}}, "ns_per_op", disabled_ns);
  rep.record("registry", {{"op", "record"}}, "ns_per_op", record_ns);
  rep.record("registry", {{"op", "snapshot"}}, "us", snapshot_us);

  // --- Head 2: whole-floor overhead --------------------------------------
  // kDistinct cold recipes, each submitted twice (the repeat is a
  // verdict-cache hit), on one worker: the jobs dominate the wall time of
  // a run (tens of milliseconds, not a few), and every instrument site
  // fires (lookups, verdict hits, stage timers, spans).
  const floor::JobFactory factory(97);
  std::vector<floor::JobSpec> specs;
  constexpr std::size_t kDistinct = 48;
  constexpr std::size_t kJobs = 2 * kDistinct;
  for (std::size_t i = 0; i < kJobs; ++i) {
    floor::JobSpec spec = factory.make_job(i % kDistinct);
    spec.id = i;
    specs.push_back(spec);
  }

  floor::FloorConfig off;
  off.workers = 1;
  floor::FloorConfig on = off;
  on.metrics = true;
  on.trace_capacity = kJobs * (floor::kStageCount + 1);

  // Warm-up runs (first-touch allocations, code paging), then kPairs
  // off/on pairs, alternating which half runs first. The gate reads the
  // median of the per-pair on/off ratios: runs are short, so a change in
  // the host's load mostly hits both halves of a pair alike, and the
  // median drops the pairs a burst of interference split. (A best-of-3 of
  // 24 mostly cached jobs, the previous form, timed ~4 ms of work and
  // swung past the cap on a busy host.)
  (void)floor_run_seconds(off, specs);
  (void)floor_run_seconds(on, specs);
  constexpr std::size_t kPairs = 31;
  std::vector<double> off_runs, on_runs, ratios;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double off_pair = 0.0, on_pair = 0.0;
    if (pair % 2 == 0) {
      off_pair = floor_run_seconds(off, specs);
      on_pair = floor_run_seconds(on, specs);
    } else {
      on_pair = floor_run_seconds(on, specs);
      off_pair = floor_run_seconds(off, specs);
    }
    off_runs.push_back(off_pair);
    on_runs.push_back(on_pair);
    ratios.push_back(on_pair / off_pair);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double off_s = median(off_runs);
  const double on_s = median(on_runs);
  const double overhead = median(ratios) - 1.0;

  std::cout << "\nfloor overhead (" << kJobs << " jobs, 1 worker, median of "
            << kPairs << " off/on pairs):\n"
            << "  telemetry off: " << format_double(off_s, 4) << " s ("
            << format_double(kJobs / off_s, 1) << " jobs/s)\n"
            << "  telemetry on:  " << format_double(on_s, 4) << " s ("
            << format_double(kJobs / on_s, 1) << " jobs/s)\n"
            << "  overhead: " << format_double(overhead * 100.0, 2)
            << "% (CI gate: <= 5%)\n";

  const JsonReporter::Params params = {
      {"jobs", std::to_string(kJobs)},
      {"workers", "1"},
      {"pairs", std::to_string(kPairs)}};
  rep.record("floor_overhead", params, "off_seconds", off_s);
  rep.record("floor_overhead", params, "on_seconds", on_s);
  rep.record("floor_overhead", params, "jobs_per_sec_off", kJobs / off_s);
  rep.record("floor_overhead", params, "jobs_per_sec_on", kJobs / on_s);
  rep.record("floor_overhead", params, "overhead_frac", overhead);

  // --- Head 3: health-engine costs ----------------------------------------
  // One sampler tick = one Registry::snapshot() of the full floor
  // catalogue plus O(series) ring stores. Populate every metric first so
  // the histograms flatten through their real percentile path.
  obs::Registry floor_registry;
  const floor::FloorMetricIds ids =
      floor::register_floor_metrics(floor_registry);
  for (std::size_t i = 0; i < 4096; ++i) {
    floor_registry.add(ids.jobs_executed);
    floor_registry.add(ids.cache_lookups);
    for (const obs::MetricId stage : ids.stage_us)
      floor_registry.observe(stage, static_cast<double>(i % 2000));
  }
  obs::TimeSeriesSampler sampler(floor_registry, {1000, 240});
  constexpr std::size_t kTicks = 4096;
  const double tick_us =
      ns_per_op(kTicks, [&](std::size_t) { sampler.sample_now(); }) / 1e3;
  const std::size_t series = sampler.series_names().size();

  // One health evaluation over the whole catalogue, every rule armed so
  // each one pays its full comparison + message path.
  floor::HealthConfig hconfig;
  hconfig.enabled = true;
  hconfig.cache_hit_floor = 0.5;
  hconfig.watchdog_ms = 100;
  hconfig.stage_p99_ceiling_us.fill(1000.0);
  floor::HealthMonitor monitor(hconfig);
  floor::FloorStats stats;
  stats.metrics_enabled = true;
  stats.queue.capacity = 64;
  stats.queue.depth = 60;  // warn-level: the message branch runs too
  stats.worker_inflight_age_seconds = {0.0, 0.06, 0.0, 0.0};
  stats.worker_heartbeats = {1, 1, 1, 1};
  constexpr std::size_t kEvals = 65536;
  const double eval_us = ns_per_op(kEvals, [&](std::size_t i) {
    stats.completed = i;
    (void)monitor.evaluate(stats, static_cast<double>(i) * 0.25);
  }) / 1e3;

  std::cout << "\nhealth engine:\n"
            << "  sampler tick (" << series << " series): "
            << format_double(tick_us, 2)
            << " us (CI gate: <= 50 us)\n"
            << "  rule evaluation (7 rules): " << format_double(eval_us, 2)
            << " us (CI gate: <= 50 us)\n";

  rep.record("sampler", {{"series", std::to_string(series)}}, "us_per_tick",
             tick_us);
  rep.record("health", {{"rules", "7"}}, "us_per_eval", eval_us);

  std::cout << "\nwrote " << rep.path() << " (" << rep.size()
            << " records)\n";
  return 0;
}
