// The observability layer: the sharded metrics registry (cross-thread
// aggregation, histogram percentiles, gauges), the bounded trace recorder
// (drop accounting, Chrome-trace JSON shape), the floor's metric binding,
// and the layer's load-bearing guarantee — telemetry on vs off cannot
// change a deterministic floor result.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "floor/job_factory.hpp"
#include "floor/session.hpp"
#include "floor/telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace casbus::obs {
namespace {

// --- Registry: counters across threads --------------------------------------

TEST(Registry, CountersAggregateAcrossThreads) {
  Registry registry;
  const MetricId jobs = registry.counter("test.jobs");
  const MetricId bytes = registry.counter("test.bytes");

  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.add(jobs);
        registry.add(bytes, 3);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("test.jobs"), kThreads * kPerThread);
  EXPECT_EQ(snap.counter("test.bytes"), kThreads * kPerThread * 3);
  // One shard per touching thread (this thread has not touched it).
  EXPECT_EQ(registry.shard_count(), kThreads);
}

TEST(Registry, RegisteringTheSameNameReturnsTheSameId) {
  Registry registry;
  const MetricId a = registry.counter("dup");
  const MetricId b = registry.counter("dup");
  EXPECT_EQ(a, b);
  registry.add(a);
  registry.add(b);
  EXPECT_EQ(registry.snapshot().counter("dup"), 2u);
}

TEST(Registry, AbsentCounterReadsZero) {
  Registry registry;
  (void)registry.counter("present");
  EXPECT_EQ(registry.snapshot().counter("absent"), 0u);
}

TEST(Registry, GaugesAreSampledAtSnapshot) {
  Registry registry;
  std::atomic<int> level{7};
  registry.gauge("test.level",
                 [&] { return static_cast<double>(level.load()); });
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("test.level"), 7.0);
  level = 42;
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("test.level"), 42.0);
}

// --- Registry: histograms ---------------------------------------------------

TEST(Registry, HistogramPercentilesInterpolateWithinBuckets) {
  Registry registry;
  const MetricId h = registry.histogram("lat", {10.0, 20.0, 50.0});
  // 100 observations spread uniformly through (0, 10]: every quantile
  // lands in the first bucket and interpolates linearly across it.
  for (int i = 1; i <= 100; ++i) registry.observe(h, i * 0.1);
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* hist = snap.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 100u);
  EXPECT_NEAR(hist->sum, 505.0, 1e-9);
  EXPECT_NEAR(hist->p50(), 5.0, 0.2);
  EXPECT_NEAR(hist->p90(), 9.0, 0.2);
  EXPECT_NEAR(hist->p99(), 9.9, 0.2);
}

TEST(Registry, HistogramSpreadAcrossBucketsAndThreads) {
  Registry registry;
  const MetricId h = registry.histogram("lat", {1.0, 10.0, 100.0});
  std::thread low([&] {
    for (int i = 0; i < 90; ++i) registry.observe(h, 0.5);
  });
  std::thread high([&] {
    for (int i = 0; i < 10; ++i) registry.observe(h, 50.0);
  });
  low.join();
  high.join();
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* hist = snap.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 100u);
  ASSERT_EQ(hist->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hist->counts[0], 90u);     // (0, 1]
  EXPECT_EQ(hist->counts[2], 10u);     // (10, 100]
  // p50 sits in the low bucket, p99 in the high one.
  EXPECT_LE(hist->p50(), 1.0);
  EXPECT_GT(hist->p99(), 10.0);
}

TEST(Registry, HistogramOverflowReportsLastBound) {
  Registry registry;
  const MetricId h = registry.histogram("lat", {1.0, 2.0});
  registry.observe(h, 1000.0);  // lands in the +inf overflow bucket
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* hist = snap.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_DOUBLE_EQ(hist->p99(), 2.0);  // clamped to the last finite bound
}

// --- Registry: histogram percentile edge cases ------------------------------
// The health engine divides and compares these values, so the contract is
// "never NaN, never negative, always clamped" at every degenerate input.

TEST(Registry, EmptyHistogramPercentilesAreZeroNotNaN) {
  HistogramSnapshot empty;
  empty.bounds = {1.0, 10.0};
  empty.counts = {0, 0, 0};
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double p = empty.percentile(q);
    EXPECT_TRUE(std::isfinite(p)) << "q=" << q;
    EXPECT_DOUBLE_EQ(p, 0.0) << "q=" << q;
  }
}

TEST(Registry, AllOverflowSamplesClampToLastBound) {
  Registry registry;
  const MetricId h = registry.histogram("lat", {1.0, 5.0, 25.0});
  for (int i = 0; i < 64; ++i) registry.observe(h, 1e9);
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* hist = snap.histogram("lat");
  ASSERT_NE(hist, nullptr);
  // Every quantile of an all-overflow population reports the overflow
  // bucket's (finite) lower bound — monotone, finite, never 1e9.
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hist->percentile(q), 25.0) << "q=" << q;
  }
}

TEST(Registry, SingleSamplePercentilesStayFiniteAndClamped) {
  Registry registry;
  const MetricId h = registry.histogram("lat", {10.0, 100.0});
  registry.observe(h, 3.0);  // one sample in the first bucket
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* hist = snap.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double p = hist->percentile(q);
    EXPECT_TRUE(std::isfinite(p)) << "q=" << q;
    EXPECT_GE(p, 0.0) << "q=" << q;
    EXPECT_LE(p, 10.0) << "q=" << q;  // never past the bucket it sits in
  }
  // Out-of-range quantiles clamp instead of extrapolating.
  EXPECT_GE(hist->percentile(-1.0), 0.0);
  EXPECT_LE(hist->percentile(2.0), 10.0);
}

TEST(Registry, BoundlessHistogramPercentileIsZero) {
  // Every observation of a bounds-free histogram lands in the overflow
  // bucket, which has no finite lower bound to report.
  HistogramSnapshot hist;
  hist.counts = {5};
  hist.count = 5;
  hist.sum = 50.0;
  EXPECT_DOUBLE_EQ(hist.percentile(0.99), 0.0);
  EXPECT_TRUE(std::isfinite(hist.percentile(0.5)));
}

// --- Prometheus exposition --------------------------------------------------

TEST(Prometheus, NameMappingSanitizesAndPrefixes) {
  EXPECT_EQ(prometheus_name("floor.jobs.executed"),
            "casbus_floor_jobs_executed");
  EXPECT_EQ(prometheus_name("floor.stage.simulate.us"),
            "casbus_floor_stage_simulate_us");
  EXPECT_EQ(prometheus_name("weird-name!", "p_"), "p_weird_name_");
}

TEST(Prometheus, CountersGaugesAndHistogramsSerialize) {
  Registry registry;
  // Register everything before the first write: this thread's shard is
  // sized at its first add/observe, so metrics registered later would
  // have no cells here (the documented late-registration semantic).
  const MetricId c = registry.counter("floor.jobs.executed");
  registry.gauge("floor.queue.depth", [] { return 3.5; });
  const MetricId h = registry.histogram("floor.stage.build.us", {1.0, 10.0});
  registry.add(c, 42);
  registry.observe(h, 0.5);
  registry.observe(h, 5.0);
  registry.observe(h, 100.0);  // overflow

  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE casbus_floor_jobs_executed_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("casbus_floor_jobs_executed_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE casbus_floor_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("casbus_floor_queue_depth 3.5\n"), std::string::npos);
  // Histogram buckets are cumulative and end in +Inf == _count.
  EXPECT_NE(text.find("casbus_floor_stage_build_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("casbus_floor_stage_build_us_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("casbus_floor_stage_build_us_bucket{le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("casbus_floor_stage_build_us_count 3\n"),
            std::string::npos);
  // Every HELP line precedes its TYPE line, and the body ends in a
  // newline (the exposition format requires it).
  EXPECT_LT(text.find("# HELP casbus_floor_jobs_executed_total"),
            text.find("# TYPE casbus_floor_jobs_executed_total"));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Prometheus, EmptySnapshotSerializesToEmptyBody) {
  Registry registry;
  EXPECT_TRUE(to_prometheus(registry.snapshot()).empty());
}

TEST(Registry, LatencyLadderIsAscending) {
  const std::vector<double> ladder = Registry::latency_buckets_us();
  ASSERT_GE(ladder.size(), 2u);
  for (std::size_t i = 1; i < ladder.size(); ++i)
    EXPECT_LT(ladder[i - 1], ladder[i]);
}

TEST(Registry, SnapshotJsonIsOneLineWithStableKeys) {
  Registry registry;
  // Register everything before the first write: the thread's shard is
  // sized and its layout frozen on first touch, so a metric registered
  // after that would (by design) drop this thread's writes.
  const MetricId c = registry.counter("a.count");
  const MetricId h = registry.histogram("b.lat", {1.0, 10.0});
  registry.add(c, 5);
  registry.observe(h, 3.0);
  const std::string json = registry.snapshot().to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":5"), std::string::npos);
  EXPECT_NE(json.find("\"b.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// --- TraceRecorder ----------------------------------------------------------

TEST(TraceRecorder, RecordsUpToCapacityThenCountsDrops) {
  TraceRecorder recorder(8);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&recorder, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        TraceSpan span;
        span.name = "work";
        span.tid = static_cast<std::uint32_t>(t);
        (void)recorder.record(span);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(recorder.recorded(), 8u);
  EXPECT_EQ(recorder.dropped(), kThreads * kPerThread - 8);
  // Drop-safe, never lossy about the accounting: every record() call is
  // either stored or counted.
  EXPECT_EQ(recorder.recorded() + recorder.dropped(),
            kThreads * kPerThread);
}

TEST(TraceRecorder, ChromeTraceJsonShape) {
  TraceRecorder recorder(4);
  TraceSpan span;
  span.name = "Simulate";
  span.category = "stage";
  span.scenario = "scan";
  span.cache_tier = "none";
  span.tid = 2;
  span.slot = 7;
  span.ts_us = 10;
  span.dur_us = 30;
  ASSERT_TRUE(recorder.record(span));

  std::ostringstream os;
  recorder.write_chrome_trace(os);
  const std::string json = os.str();
  // The Chrome trace-event envelope Perfetto loads.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Simulate\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":30"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"slot\":7"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"scan\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy (CI runs a
  // real JSON parse over floor_service --trace output).
  std::size_t braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0u);
  EXPECT_EQ(brackets, 0u);
}

TEST(TraceRecorder, EscapesQuotesInNames) {
  TraceRecorder recorder(1);
  TraceSpan span;
  span.name = "we\"ird";
  ASSERT_TRUE(recorder.record(span));
  std::ostringstream os;
  recorder.write_chrome_trace(os);
  EXPECT_NE(os.str().find("we\\\"ird"), std::string::npos);
}

}  // namespace
}  // namespace casbus::obs

namespace casbus::floor {
namespace {

std::vector<JobSpec> small_batch(std::uint64_t seed, std::size_t count) {
  const JobFactory factory(seed);
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < count; ++i) jobs.push_back(factory.make_job(i));
  return jobs;
}

FloorReport run_session(FloorConfig config,
                        const std::vector<JobSpec>& jobs) {
  FloorSession session(config);
  for (const JobSpec& spec : jobs) EXPECT_TRUE(session.submit(spec));
  return session.drain();
}

// --- The determinism contract (the layer's acceptance bar) ------------------

TEST(FloorTelemetry, DeterministicSummaryIdenticalWithTelemetryOnOrOff) {
  const auto jobs = small_batch(77, 8);
  FloorConfig off;
  off.workers = 1;
  const std::string reference = run_session(off, jobs).deterministic_summary();

  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    FloorConfig on;
    on.workers = workers;
    on.metrics = true;
    on.trace_capacity = 256;
    EXPECT_EQ(run_session(on, jobs).deterministic_summary(), reference)
        << "telemetry changed a deterministic result at workers="
        << workers;
  }
}

// --- FloorStats -------------------------------------------------------------

TEST(FloorTelemetry, StatsSnapshotCountsTheRun) {
  const auto jobs = small_batch(78, 6);
  FloorConfig config;
  config.workers = 2;
  config.metrics = true;
  config.trace_capacity = 1024;
  FloorSession session(config);
  for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
  const FloorReport report = session.drain();
  const FloorStats stats = session.stats_snapshot();

  EXPECT_TRUE(stats.metrics_enabled);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.completed, jobs.size());
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.errored, 0u);
  // Queue flow balances after drain.
  EXPECT_EQ(stats.queue.pushed, jobs.size());
  EXPECT_EQ(stats.queue.popped, jobs.size());
  EXPECT_EQ(stats.queue.depth, 0u);
  EXPECT_LE(stats.queue.high_water, jobs.size());
  // Cache counters agree with the report's tier accounting.
  EXPECT_EQ(stats.cache_lookups, jobs.size());
  EXPECT_EQ(stats.cache_verdict_hits, report.cache_hits);
  // Every job that executed recorded one Build-stage observation (only a
  // verdict-cache hit skips Build).
  const auto& build = stats.stages[static_cast<std::size_t>(Stage::Build)];
  EXPECT_EQ(build.count, jobs.size() - report.cache_hits);
  EXPECT_GE(build.total_seconds, 0.0);
  // Workers accumulated busy time; a trace was recorded without drops.
  EXPECT_EQ(stats.worker_busy_seconds.size(), 2u);
  EXPECT_GT(stats.worker_busy_seconds[0] + stats.worker_busy_seconds[1],
            0.0);
  EXPECT_GT(stats.trace_recorded, 0u);
  EXPECT_EQ(stats.trace_dropped, 0u);
  // Simulation happened and the engines reported effort.
  EXPECT_GT(stats.sim_memo_lookups, 0u);
  EXPECT_GT(stats.sim_eval_passes + stats.sim_sweep_cell_evals, 0u);
  // The behavioural kernel evaluated modules in its settle passes.
  EXPECT_GT(stats.sim_kernel_passes, 0u);
  EXPECT_GE(stats.sim_kernel_evals, stats.sim_kernel_passes);

  // The wire format round-trips the headline numbers.
  const std::string json = stats.to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"kernel_evals\":" +
                      std::to_string(stats.sim_kernel_evals)),
            std::string::npos);
  EXPECT_NE(json.find("\"kernel_passes\":" +
                      std::to_string(stats.sim_kernel_passes)),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"submitted\":6"), std::string::npos);
}

TEST(FloorTelemetry, StatsSnapshotWithTelemetryOffStaysLive) {
  const auto jobs = small_batch(79, 4);
  FloorConfig config;
  config.workers = 1;  // telemetry off: metrics=false, trace_capacity=0
  FloorSession session(config);
  for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
  (void)session.drain();
  const FloorStats stats = session.stats_snapshot();
  EXPECT_FALSE(stats.metrics_enabled);
  // Flow and queue numbers do not depend on the registry.
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.completed, jobs.size());
  EXPECT_EQ(stats.queue.popped, jobs.size());
  // Registry-backed counters read zero, by contract.
  EXPECT_EQ(stats.cache_lookups, 0u);
  EXPECT_EQ(stats.sim_memo_lookups, 0u);
  EXPECT_EQ(stats.trace_recorded, 0u);
}

TEST(FloorTelemetry, VerdictReuseLandsInTheVerdictTierCounter) {
  // One recipe repeated: every job after the first is a verdict serve.
  const JobFactory factory(80);
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    JobSpec spec = factory.make_job(0);
    spec.id = i;
    jobs.push_back(spec);
  }
  FloorConfig config;
  config.workers = 1;
  config.metrics = true;
  FloorSession session(config);
  for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
  const FloorReport report = session.drain();
  const FloorStats stats = session.stats_snapshot();
  EXPECT_EQ(report.cache_hits, 4u);
  EXPECT_EQ(stats.cache_verdict_hits, 4u);
  EXPECT_EQ(stats.cache_lookups, 5u);
  EXPECT_NEAR(stats.cache_hit_rate(), 0.8, 1e-9);
}

TEST(FloorTelemetry, WriteTraceProducesAFile) {
  const auto jobs = small_batch(81, 3);
  FloorConfig config;
  config.workers = 1;
  config.trace_capacity = 256;
  FloorSession session(config);
  for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
  (void)session.drain();
  const std::string path =
      testing::TempDir() + "/casbus_test_trace.json";
  ASSERT_TRUE(session.write_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
  // One job-level span per executed job plus its stage spans.
  ASSERT_NE(session.trace(), nullptr);
  EXPECT_GE(session.trace()->recorded(), jobs.size());
}

}  // namespace
}  // namespace casbus::floor
