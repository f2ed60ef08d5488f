#include "floor/session.hpp"

#include <chrono>
#include <utility>

#include "floor/verdict_cache.hpp"

namespace casbus::floor {

namespace {

/// Sentinel in job_start_us_: this worker has no job in flight.
constexpr std::uint64_t kWorkerIdle = ~std::uint64_t{0};

}  // namespace

FloorSession::FloorSession(FloorConfig config)
    : config_(std::move(config)),
      workers_(effective_workers(config_.workers)),
      queue_(workers_, config_.queue_capacity),
      start_(std::chrono::steady_clock::now()) {
  // Health implies metrics: the rule catalogue reads registry-backed
  // counters (cache tiers, stage p99s), so enabling the monitor without
  // the registry would judge zeros.
  if (config_.metrics || config_.health.enabled) {
    registry_ = std::make_unique<obs::Registry>();
    ids_ = register_floor_metrics(*registry_);
    // Pull-based gauges: sampled only at snapshot() time, so the hot
    // path pays nothing for them. Samplers read this session's own
    // thread-safe counters and are torn down with the registry, which
    // this session outlives.
    registry_->gauge("floor.queue.depth", [this] {
      return static_cast<double>(queue_.size());
    });
    registry_->gauge("floor.jobs.in_flight", [this] {
      return static_cast<double>(
          in_flight_.load(std::memory_order_relaxed));
    });
  }
  if (config_.trace_capacity > 0)
    trace_ = std::make_unique<obs::TraceRecorder>(config_.trace_capacity);
  busy_us_ = std::make_unique<std::atomic<std::uint64_t>[]>(workers_);
  job_start_us_ = std::make_unique<std::atomic<std::uint64_t>[]>(workers_);
  heartbeats_ = std::make_unique<std::atomic<std::uint64_t>[]>(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    busy_us_[w].store(0);
    job_start_us_[w].store(kWorkerIdle);
    heartbeats_[w].store(0);
  }
  pool_.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w)
    pool_.emplace_back([this, w] { worker_main(w); });
  if (config_.health.enabled) {
    health_ = std::make_unique<HealthMonitor>(config_.health);
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(
        *registry_, obs::SamplerConfig{config_.health.interval_ms,
                                       config_.health.window});
    // One thread drives the whole sample -> evaluate -> alarm loop.
    sampler_->start([this] { health_tick(); });
  }
}

FloorSession::~FloorSession() {
  // Stop the health loop before tearing the floor down: a tick mid-join
  // is safe (stats_snapshot() is), but pointless.
  if (sampler_ != nullptr) sampler_->stop();
  queue_.close();
  for (std::thread& t : pool_)
    if (t.joinable()) t.join();
}

std::size_t FloorSession::submit_batch(const std::vector<JobSpec>& specs) {
  std::size_t accepted = 0;
  for (const JobSpec& spec : specs) {
    if (!submit(spec)) break;
    ++accepted;
  }
  return accepted;
}

std::size_t FloorSession::completed() const {
  const std::lock_guard<std::mutex> lock(results_mu_);
  return completed_;
}

std::vector<JobResult> FloorSession::poll_results() {
  const std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<JobResult> out;
  if (harvested_) return out;  // drain() owns the results now
  while (next_poll_ < done_.size() && done_[next_poll_])
    out.push_back(results_[next_poll_++]);
  return out;
}

FloorReport FloorSession::drain() {
  CASBUS_REQUIRE(!drained_, "FloorSession: drain() may be called once");
  drained_ = true;
  queue_.close();
  for (std::thread& t : pool_)
    if (t.joinable()) t.join();

  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  const std::lock_guard<std::mutex> lock(results_mu_);
  // Every accepted slot has been executed (the queue delivers all jobs
  // before signalling shutdown), so the results vector is dense.
  CASBUS_ASSERT(completed_ == queue_.pushed(),
                "FloorSession: joined with unexecuted jobs");
  harvested_ = true;
  return aggregate_results(std::move(results_), workers_, wall);
}

FloorStats FloorSession::stats_snapshot() const {
  FloorStats stats;
  stats.uptime_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  stats.workers = workers_;
  stats.metrics_enabled = registry_ != nullptr;
  stats.queue = queue_.stats();
  stats.submitted = stats.queue.pushed;
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(results_mu_);
    stats.completed = completed_;
    stats.errored = errored_;
  }
  stats.worker_busy_seconds.resize(workers_, 0.0);
  stats.worker_inflight_age_seconds.resize(workers_, 0.0);
  stats.worker_heartbeats.resize(workers_, 0);
  const std::uint64_t now_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  for (std::size_t w = 0; w < workers_; ++w) {
    stats.worker_busy_seconds[w] =
        static_cast<double>(busy_us_[w].load(std::memory_order_relaxed)) *
        1e-6;
    stats.worker_heartbeats[w] =
        heartbeats_[w].load(std::memory_order_relaxed);
    const std::uint64_t started =
        job_start_us_[w].load(std::memory_order_relaxed);
    if (started != kWorkerIdle && now_us > started)
      stats.worker_inflight_age_seconds[w] =
          static_cast<double>(now_us - started) * 1e-6;
  }
  if (trace_ != nullptr) {
    stats.trace_recorded = trace_->recorded();
    stats.trace_dropped = trace_->dropped();
  }
  if (registry_ == nullptr) return stats;

  const obs::Snapshot snap = registry_->snapshot();
  stats.cache_lookups = snap.counter("floor.cache.lookups");
  stats.cache_verdict_hits = snap.counter("floor.cache.hits.verdict");
  stats.cache_insertions = snap.counter("floor.cache.insertions");
  stats.cache_evictions = snap.counter("floor.cache.evictions");
  stats.sim_memo_lookups = snap.counter("floor.sim.memo.lookups");
  stats.sim_memo_hits = snap.counter("floor.sim.memo.hits");
  stats.sim_precompute_seconds =
      static_cast<double>(snap.counter("floor.sim.precompute.us")) * 1e-6;
  stats.sim_eval_passes = snap.counter("floor.sim.eval_passes");
  stats.sim_cell_evals = snap.counter("floor.sim.cell_evals");
  stats.sim_sweep_cell_evals = snap.counter("floor.sim.sweep_cell_evals");
  stats.sim_core_sweeps = snap.counter("floor.sim.core.sweeps");
  stats.sim_core_sweeps_skipped =
      snap.counter("floor.sim.core.sweeps_skipped");
  stats.sim_kernel_evals = snap.counter("floor.sim.kernel.evals");
  stats.sim_kernel_passes = snap.counter("floor.sim.kernel.passes");
  stats.sched_nodes_expanded = snap.counter("floor.sched.nodes_expanded");
  stats.sched_prunes = snap.counter("floor.sched.prunes");
  stats.sched_improvements = snap.counter("floor.sched.improvements");
  stats.sched_leaves_priced = snap.counter("floor.sched.leaves_priced");
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const obs::HistogramSnapshot* h = snap.histogram(
        std::string("floor.stage.") + stage_name(static_cast<Stage>(s)) +
        ".us");
    if (h == nullptr) continue;
    StageDigest& d = stats.stages[s];
    d.count = h->count;
    d.total_seconds = h->sum * 1e-6;  // histogram records µs
    d.p50_us = h->p50();
    d.p90_us = h->p90();
    d.p99_us = h->p99();
  }
  return stats;
}

void FloorSession::worker_main(std::size_t worker) {
  // The worker's private verdict cache: equal-keyed jobs are routed here
  // by the queue's affinity sharding, so repeated specs skip the whole
  // pipeline without any cross-thread sharing.
  VerdictCache cache(config_.cache_capacity);
  VerdictCache* cache_ptr = config_.cache_capacity ? &cache : nullptr;
  if (registry_ != nullptr) {
    cache.set_telemetry(CacheTelemetry{
        registry_.get(), ids_.cache_lookups, ids_.cache_verdict_hits,
        ids_.cache_insertions, ids_.cache_evictions});
  }

  JobTelemetry obs;
  obs.registry = registry_.get();
  obs.ids = registry_ != nullptr ? &ids_ : nullptr;
  obs.trace = trace_.get();
  obs.worker = static_cast<std::uint32_t>(worker);

  while (std::optional<SlottedJob> job = queue_.pop(worker)) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    heartbeats_[worker].fetch_add(1, std::memory_order_relaxed);
    obs.slot = job->slot;
    const auto start = std::chrono::steady_clock::now();
    job_start_us_[worker].store(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                                  start_)
                .count()),
        std::memory_order_relaxed);
    JobResult result =
        run_job(job->spec, cache_ptr, config_.verify,
                JobSimOptions{config_.event_sim, config_.sim_threads,
                              config_.sched_threads},
                obs);
    const auto end = std::chrono::steady_clock::now();
    job_start_us_[worker].store(kWorkerIdle, std::memory_order_relaxed);
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    busy_us_[worker].fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(end -
                                                                  start)
                .count()),
        std::memory_order_relaxed);

    const bool errored = !result.error.empty();
    const std::lock_guard<std::mutex> lock(results_mu_);
    if (job->slot >= results_.size()) {
      results_.resize(job->slot + 1);
      done_.resize(job->slot + 1, 0);
    }
    results_[job->slot] = std::move(result);
    done_[job->slot] = 1;
    ++completed_;
    if (errored) ++errored_;
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FloorSession::health_tick() {
  const std::lock_guard<std::mutex> lock(health_tick_mu_);
  if (health_ == nullptr) return;
  const FloorStats stats = stats_snapshot();
  const HealthReport report = health_->evaluate(stats, stats.uptime_seconds);

  // Flight recorder: one bundle per new critical transition, capped at
  // max_incidents (evidence, not a log stream).
  std::uint64_t written = 0;
  if (!config_.health.incident_dir.empty()) {
    for (const HealthEvent& ev : report.events) {
      if (ev.sample <= handled_sample_) continue;
      if (ev.to != HealthLevel::kCritical) continue;
      if (incidents_written_ >= config_.health.max_incidents) break;
      IncidentInputs inputs;
      inputs.rule_id = health_rule_id(ev.rule);
      inputs.t_seconds = ev.t_seconds;
      inputs.stats_json = stats.to_json();
      inputs.health_json = report.to_json();
      inputs.timeseries_json = sampler_->window_json();
      inputs.trace = trace_.get();
      if (write_incident_bundle(config_.health.incident_dir,
                                incidents_written_, inputs)) {
        ++incidents_written_;
        ++written;
      }
    }
  }
  handled_sample_ = report.samples;
  if (written > 0) health_->record_incidents(written);
}

HealthReport FloorSession::health_report() {
  if (health_ == nullptr) return HealthReport{};
  sampler_->sample_now();
  health_tick();
  return health_->last_report();
}

}  // namespace casbus::floor
