/// \file floor_repeat.cpp
/// floor-repeat: a FloorSession with two workers and one closed-loop
/// producer (this thread) that submits into a bounded queue, blocks at
/// capacity, and polls results as they appear. The stream repeats recipes
/// from a pool small enough for every worker's verdict cache to hold all
/// of it, so after the pool fill nearly every job is a verdict-tier hit
/// and the floor's queue, cache-hit and delivery path does the work.
///
/// FloorSession keeps every JobResult until drain(), so the stream is cut
/// into rounds of bounded length, each a fresh session with its own pool
/// fill; that keeps peak memory independent of the run length.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "floor/job_factory.hpp"
#include "floor/session.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using casbus::floor::CacheTier;
using casbus::floor::FloorConfig;
using casbus::floor::FloorReport;
using casbus::floor::FloorSession;
using casbus::floor::FloorStats;
using casbus::floor::JobFactory;
using casbus::floor::JobResult;
using casbus::floor::JobSpec;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueCapacity = 64;
/// Recipes in the pool. The session's LRU caches hold 16 entries per
/// worker, so 16 recipes fit each worker's cache even when work stealing
/// sends every recipe to both workers. At 32 (= workers x entries) the
/// affinity split overflows one cache and the LRU thrashes.
constexpr std::size_t kPoolSize = 16;
constexpr std::size_t kWarmupJobs = 20000;
/// Timed jobs per round: bounds the results a session holds until drain.
constexpr std::size_t kRoundJobs = 200000;
/// A round never stops for the deadline before this many timed jobs, so
/// the last round of a run is not a noisy sliver.
constexpr std::size_t kMinRoundJobs = 50000;
constexpr std::size_t kPollEvery = 16;
/// Latency samples are kept for every 16th timed job: over a million per
/// run, far more than a p99 needs, while memory stays flat in run length.
constexpr std::size_t kSampleEvery = 16;
constexpr std::size_t kMinRounds = 2;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;
constexpr const char* kStreamSpan = "stream";
constexpr const char* kSubmitSpan = "FloorSession::submit";
constexpr const char* kPollSpan = "FloorSession::poll_results";
constexpr const char* kDrainSpan = "FloorSession::drain";

FloorConfig floor_config(bool traced) {
  FloorConfig config;
  config.workers = kWorkers;
  config.queue_capacity = kQueueCapacity;
  if (traced) {
    config.metrics = true;
    config.trace_capacity = kTraceCapacity;
  }
  return config;
}

/// splitmix64: expands the workload seed into the recipe-choice stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

double busy_seconds(const FloorStats& stats) {
  double total = 0.0;
  for (const double s : stats.worker_busy_seconds) total += s;
  return total;
}

/// One session's submit/poll bookkeeping, indexed by arrival slot (the
/// single producer makes the slot equal to the submission count).
class Stream {
 public:
  Stream(FloorSession& session, std::size_t capacity) : session_(session) {
    submit_at.resize(capacity);
    recipe_of.resize(capacity);
    delivered.resize(capacity);
    latency_s.resize(capacity);
    wall_s.resize(capacity);
    tier.resize(capacity);
  }

  [[nodiscard]] std::size_t submitted() const { return next_slot_; }

  /// Spans for submit() and poll_results() go to \p tracer from now on
  /// (null: no spans).
  void trace_into(Tracer* tracer) { tracer_ = tracer; }

  /// Submits pool[recipe] and polls every kPollEvery submissions.
  /// Returns false if the session refused the job.
  bool submit(const std::vector<JobSpec>& pool, std::size_t recipe) {
    const std::size_t slot = next_slot_;
    JobSpec spec = pool[recipe];
    spec.id = slot;
    recipe_of[slot] = static_cast<std::uint8_t>(recipe);
    submit_at[slot] = Clock::now();
    bool accepted = false;
    {
      const Scope span(tracer_, kSubmitSpan);
      accepted = session_.submit(spec);
    }
    if (!accepted) return false;
    ++next_slot_;
    if (next_slot_ % kPollEvery == 0) poll();
    return true;
  }

  /// Delivers whatever poll_results() hands out now.
  void poll() {
    std::vector<JobResult> results;
    {
      const Scope span(tracer_, kPollSpan);
      results = session_.poll_results();
    }
    const auto now = Clock::now();
    for (JobResult& r : results) {
      if (r.id >= next_slot_) {
        ++foreign;
        continue;
      }
      if (delivered[r.id]++ != 0) {
        ++duplicates;
        continue;
      }
      ++delivered_count;
      last_delivery = now;
      latency_s[r.id] = static_cast<float>(
          std::chrono::duration<double>(now - submit_at[r.id]).count());
      wall_s[r.id] = static_cast<float>(r.wall_seconds);
      tier[r.id] = r.cache_tier;
    }
  }

  /// Polls until every submitted job has been delivered.
  void wait_all() {
    while (delivered_count < next_slot_) {
      poll();
      if (delivered_count < next_slot_) std::this_thread::yield();
    }
  }

  std::vector<Clock::time_point> submit_at;
  std::vector<std::uint8_t> recipe_of;   ///< pool index of each slot
  std::vector<std::uint8_t> delivered;  ///< times each slot was polled
  std::vector<float> latency_s;         ///< submit -> first poll
  std::vector<float> wall_s;            ///< JobResult::wall_seconds
  std::vector<CacheTier> tier;
  std::size_t delivered_count = 0;
  std::size_t duplicates = 0;
  std::size_t foreign = 0;  ///< results for slots never submitted
  Clock::time_point last_delivery{};

 private:
  FloorSession& session_;
  Tracer* tracer_ = nullptr;
  std::size_t next_slot_ = 0;
};

/// Everything measured over one half (untraced or traced) of a run.
struct Half {
  std::vector<double> setup_s;         ///< per round: session + fill + warm-up
  std::vector<double> programs_per_s;  ///< per round
  double seconds = 0.0;                ///< summed timed regions
  // Sampled timed jobs (every kSampleEvery-th):
  std::vector<float> latency_s;   ///< submit -> first poll
  std::vector<float> queue_frac;  ///< (latency - wall) / latency
  std::vector<float> hit_wall_s;  ///< wall time, verdict-tier hits only
  std::size_t timed_jobs = 0;

  /// Jobs completed per second of the timed regions.
  [[nodiscard]] double throughput() const {
    return static_cast<double>(timed_jobs) / seconds;
  }
  std::size_t cache_hits = 0;
  double busy_s = 0.0;
  std::uint64_t library_trace_dropped = 0;  ///< spans past trace_capacity
  std::array<double, casbus::floor::kStageCount> stage_s{};
};

}  // namespace

Outcome run_floor_repeat(const Options& options) {
  Outcome out;
  const std::vector<JobSpec> pool =
      JobFactory(options.seed).make_jobs(kPoolSize);

  // Reference outcomes: one cold, cache-less run_job per recipe. Every
  // served result must match its recipe's reference.
  const auto reference_start = Clock::now();
  std::vector<JobResult> reference;
  for (const JobSpec& spec : pool)
    reference.push_back(casbus::floor::run_job(spec));
  out.note("reference_s", since(reference_start));

  const std::size_t cache_capacity = FloorConfig{}.cache_capacity;
  out.note("pool_size", static_cast<double>(kPoolSize));
  out.note("workers", static_cast<double>(kWorkers));
  out.note("cache_capacity", static_cast<double>(cache_capacity));
  out.note("pool_vs_cache_entries",
           static_cast<double>(kPoolSize) /
               static_cast<double>(kWorkers * cache_capacity));

  Rng rng(options.seed);
  Tracer tracer;

  auto round = [&](bool traced, double deadline_s, Half& half) {
    Tracer* t = traced ? &tracer : nullptr;
    const auto round_start = Clock::now();
    FloorSession session(floor_config(traced));
    Stream stream(session, kPoolSize + kWarmupJobs + kRoundJobs);

    // Set-up: fill the pool (each recipe runs cold once on its affinity
    // worker), then warm both caches up with a stretch of the stream.
    for (std::size_t k = 0; k < kPoolSize; ++k)
      if (!stream.submit(pool, k)) out.fail_check("pool fill refused");
    stream.wait_all();
    for (std::size_t k = 0; k < kWarmupJobs; ++k)
      if (!stream.submit(pool, rng.next() % kPoolSize))
        out.fail_check("warm-up submit refused");
    stream.wait_all();
    half.setup_s.push_back(since(round_start));

    // Timed region: first timed submit to last timed delivery.
    const FloorStats before = session.stats_snapshot();
    const std::size_t first_slot = stream.submitted();
    const auto start = Clock::now();
    stream.trace_into(t);
    {
      const Scope span(t, kStreamSpan);
      for (std::size_t k = 0; k < kRoundJobs; ++k) {
        if (!stream.submit(pool, rng.next() % kPoolSize)) {
          out.fail_check("timed submit refused");
          break;
        }
        if (k >= kMinRoundJobs && k % 1024 == 1023 &&
            std::chrono::duration<double>(Clock::now() - round_start)
                    .count() > deadline_s)
          break;
      }
      stream.wait_all();
    }
    stream.trace_into(nullptr);
    const double seconds =
        std::chrono::duration<double>(stream.last_delivery - start).count();
    const FloorStats after = session.stats_snapshot();
    const std::size_t timed = stream.submitted() - first_slot;
    half.programs_per_s.push_back(static_cast<double>(timed) / seconds);
    half.seconds += seconds;
    half.busy_s += busy_seconds(after) - busy_seconds(before);
    half.timed_jobs += timed;

    FloorReport report;
    {
      const Scope span(t, kDrainSpan);
      report = session.drain();
    }

    // Output checks: exactly-once delivery, and every result equal to its
    // recipe's cold reference.
    if (stream.duplicates != 0 || stream.foreign != 0)
      out.fail_check("poll_results delivered " +
                     std::to_string(stream.duplicates) + " duplicates and " +
                     std::to_string(stream.foreign) + " unknown slots");
    if (report.results.size() != stream.submitted())
      out.fail_check("drain returned " + std::to_string(report.results.size()) +
                     " results for " + std::to_string(stream.submitted()) +
                     " submitted jobs");
    for (std::size_t slot = 0; slot < report.results.size(); ++slot) {
      const JobResult& r = report.results[slot];
      if (r.id != slot || stream.delivered[slot] != 1) {
        out.fail_check("slot " + std::to_string(slot) +
                       " not delivered exactly once");
        continue;
      }
      const JobResult& ref = reference[stream.recipe_of[slot]];
      if (!same_outcome(r, ref))
        out.fail_check("slot " + std::to_string(slot) +
                       " differs from the cold run of recipe " +
                       std::to_string(stream.recipe_of[slot]));
      if (slot < first_slot) continue;
      out.job(r.error, r.pass);
      if (stream.tier[slot] != CacheTier::None) ++half.cache_hits;
      if ((slot - first_slot) % kSampleEvery == 0) {
        const float latency = stream.latency_s[slot];
        const float wall = stream.wall_s[slot];
        half.latency_s.push_back(latency);
        half.queue_frac.push_back(latency > 0.0f ? (latency - wall) / latency
                                                 : 0.0f);
        if (stream.tier[slot] == CacheTier::Verdict)
          half.hit_wall_s.push_back(wall);
      }
      for (std::size_t s = 0; s < casbus::floor::kStageCount; ++s)
        half.stage_s[s] += r.stage_seconds[s];
    }
    if (traced) {
      half.library_trace_dropped += after.trace_dropped;
      if (!session.write_trace(options.out_dir + "/floor_trace.json"))
        out.fail_check("could not write the library trace");
    }
  };

  auto run_half = [&](bool traced, double budget) {
    Half half;
    const auto start = Clock::now();
    while (half.programs_per_s.size() < kMinRounds || since(start) < budget)
      round(traced, budget - since(start), half);
    return half;
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  Half plain = run_half(false, budget);

  out.metric("setup_s", median(plain.setup_s));
  out.metric("programs_per_s", plain.throughput());
  out.note("programs_per_s_each", plain.programs_per_s);
  out.note("rounds", static_cast<double>(plain.programs_per_s.size()));
  out.note("programs_per_s_spread",
           quartiles(plain.programs_per_s).relative_spread());
  out.note("cache_hit_frac_untraced",
           static_cast<double>(plain.cache_hits) /
               static_cast<double>(plain.timed_jobs));

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
    out.metric("schedules_per_s", 0.0);
    out.metric("planned_cycles", 0.0);
    out.metric("bound_gap_mean", 0.0);
    out.metric("trace.overhead_frac",
               1.0 - traced.throughput() / plain.throughput());

    const double wall = tracer.totals(kStreamSpan).total_s;
    const double worker_time = wall * static_cast<double>(kWorkers);
    out.metric("floor.submit_block_frac",
               tracer.totals(kSubmitSpan).total_s / wall);
    out.metric("floor.poll_frac", tracer.totals(kPollSpan).total_s / wall);
    out.metric("floor.queue_frac", percentile(traced.queue_frac, 50.0).value);
    out.metric("floor.hit_serves_per_s",
               traced.hit_wall_s.empty()
                   ? 0.0
                   : 1.0 / std::max(percentile(traced.hit_wall_s, 50.0).value,
                                    1e-9));
    out.metric("floor.cache_hit_frac",
               static_cast<double>(traced.cache_hits) /
                   static_cast<double>(traced.timed_jobs));
    out.metric("floor.worker_busy_frac", traced.busy_s / worker_time);
    out.metric("unattributed_frac", tracer.totals(kStreamSpan).self_s / wall);
    const char* stage_metric[] = {"build_frac",  "schedule_frac",
                                  "compile_frac", "verify_frac",
                                  "simulate_frac", "verdict_frac"};
    for (std::size_t s = 0; s < casbus::floor::kStageCount; ++s)
      out.metric(stage_metric[s], traced.stage_s[s] / worker_time);
    for (const char* zero :
         {"simulate.scan_frac", "simulate.bist_frac", "simulate.hier_frac",
          "simulate.maint_frac", "simulate.self_frac",
          "simulate.precompute_frac", "simulate.cycles_per_s",
          "simulate.memo_hit_frac", "netlist.cell_evals",
          "netlist.eval_passes", "netlist.event_skip_frac",
          "sched.greedy_frac", "sched.phased_frac", "sched.exact_frac",
          "sched.bb_frac", "sched.bb_nodes", "sched.bb_prunes",
          "sched.bb_leaves", "sched.bb_prune_frac", "sched.bb_nodes_per_s"})
      out.metric(zero, 0.0);
    out.note("drain_s", tracer.totals(kDrainSpan).total_s);
    out.note("library_trace_dropped",
             static_cast<double>(traced.library_trace_dropped));
    out.note("trace_spans_dropped", static_cast<double>(tracer.dropped()));
    std::ofstream spans(options.out_dir + "/spans.json");
    tracer.write_json(spans);
  }

  out.metric("fail_frac", out.fail_frac());
  out.metric("peak_rss_mb", peak_rss_mb());
  return out;
}

}  // namespace perfbench
