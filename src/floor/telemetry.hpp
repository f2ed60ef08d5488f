/// \file telemetry.hpp
/// The floor's metric catalogue and its live stats surface.
///
/// This is the binding layer between the generic obs subsystem and the
/// floor: register_floor_metrics() claims every floor metric under its
/// stable name (the catalogue below — docs/OBSERVABILITY.md documents
/// each), FloorMetricIds carries the resulting handles to the instrument
/// sites, and FloorStats is the structured snapshot FloorSession hands
/// out while running (stats_snapshot()) — the thing `floor_service
/// --stats-json` serializes and `tools/floorstat.py` pretty-prints.
///
/// ## Stable metric names
/// Names are part of the observable API: dashboards and the floorstat
/// tool key on them. Never rename one — add a new name and retire the old
/// one in docs/OBSERVABILITY.md instead.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "floor/job.hpp"
#include "floor/job_queue.hpp"
#include "obs/metrics.hpp"

namespace casbus::floor {

/// Handles of every registered floor metric, in catalogue order. One
/// instance per FloorSession, shared read-only by its workers.
struct FloorMetricIds {
  // Job outcomes.
  obs::MetricId jobs_executed{};   ///< floor.jobs.executed
  obs::MetricId jobs_errored{};    ///< floor.jobs.errored
  // Verdict cache (per run_job consultation; see verdict_cache.hpp).
  obs::MetricId cache_lookups{};        ///< floor.cache.lookups
  obs::MetricId cache_verdict_hits{};   ///< floor.cache.hits.verdict
  obs::MetricId cache_insertions{};     ///< floor.cache.insertions
  obs::MetricId cache_evictions{};      ///< floor.cache.evictions
  // Simulation engines (SocTester memo + packed-sim work, core-model
  // GateSim sweeps, behavioural-kernel evaluations).
  obs::MetricId sim_memo_lookups{};     ///< floor.sim.memo.lookups
  obs::MetricId sim_memo_hits{};        ///< floor.sim.memo.hits
  obs::MetricId sim_precompute_us{};    ///< floor.sim.precompute.us
  obs::MetricId sim_eval_passes{};      ///< floor.sim.eval_passes
  obs::MetricId sim_cell_evals{};       ///< floor.sim.cell_evals
  obs::MetricId sim_sweep_cell_evals{}; ///< floor.sim.sweep_cell_evals
  obs::MetricId sim_core_sweeps{};      ///< floor.sim.core.sweeps
  obs::MetricId sim_core_sweeps_skipped{};  ///< floor.sim.core.sweeps_skipped
  obs::MetricId sim_kernel_evals{};     ///< floor.sim.kernel.evals
  obs::MetricId sim_kernel_passes{};    ///< floor.sim.kernel.passes
  // Branch-and-bound scheduling effort. Per-thread-sharded like every
  // registry counter: B&B worker threads aggregate into the same stable
  // names regardless of JobSimOptions::sched_threads.
  obs::MetricId sched_nodes{};          ///< floor.sched.nodes_expanded
  obs::MetricId sched_prunes{};         ///< floor.sched.prunes
  obs::MetricId sched_improvements{};   ///< floor.sched.improvements
  obs::MetricId sched_leaves{};         ///< floor.sched.leaves_priced
  // Per-stage latency histograms (µs), indexed by Stage.
  std::array<obs::MetricId, kStageCount> stage_us{};  ///< floor.stage.*.us
};

/// Registers the whole floor catalogue in \p registry (idempotent — the
/// registry deduplicates by name) and returns the handles.
[[nodiscard]] FloorMetricIds register_floor_metrics(obs::Registry& registry);

/// Latency digest of one pipeline stage, pulled from its histogram.
struct StageDigest {
  std::uint64_t count = 0;      ///< stage executions observed
  double total_seconds = 0.0;   ///< summed stage time
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

/// A consistent-enough live snapshot of one FloorSession — every number a
/// fleet scheduler, an admission controller, or a human tailing
/// `--stats-json` needs. Produced by FloorSession::stats_snapshot() at
/// any point in the session's life (including after drain()).
struct FloorStats {
  double uptime_seconds = 0.0;
  std::size_t workers = 0;
  bool metrics_enabled = false;   ///< counters below are live (vs all-zero)

  // Job flow.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;    ///< popped but not yet deposited
  std::uint64_t errored = 0;

  // Queue (always live — tracked by the queue itself, not the registry).
  QueueStats queue;

  // Verdict cache, summed over every worker's private cache.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_verdict_hits = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;

  // Simulation engines.
  std::uint64_t sim_memo_lookups = 0;
  std::uint64_t sim_memo_hits = 0;
  double sim_precompute_seconds = 0.0;
  std::uint64_t sim_eval_passes = 0;
  std::uint64_t sim_cell_evals = 0;
  std::uint64_t sim_sweep_cell_evals = 0;
  std::uint64_t sim_core_sweeps = 0;
  std::uint64_t sim_core_sweeps_skipped = 0;
  std::uint64_t sim_kernel_evals = 0;
  std::uint64_t sim_kernel_passes = 0;

  // Scheduling search effort.
  std::uint64_t sched_nodes_expanded = 0;
  std::uint64_t sched_prunes = 0;
  std::uint64_t sched_improvements = 0;
  std::uint64_t sched_leaves_priced = 0;

  // Per-stage latency digests, indexed by Stage.
  std::array<StageDigest, kStageCount> stages{};

  // Worker utilization: seconds each worker spent executing jobs.
  std::vector<double> worker_busy_seconds;

  // Watchdog inputs (always live, like the queue — tracked by the session
  // itself, not the registry). Age of each worker's current in-flight job
  // in seconds, 0.0 when idle; and each worker's loop heartbeat counter
  // (one tick per job popped — stagnant + in-flight means stuck).
  std::vector<double> worker_inflight_age_seconds;
  std::vector<std::uint64_t> worker_heartbeats;

  // Tracing.
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;

  /// Jobs served from the cache / cache lookups (0 when no lookups).
  [[nodiscard]] double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_verdict_hits) /
                     static_cast<double>(cache_lookups);
  }

  /// Mean worker utilization over the session's uptime, in [0, 1].
  [[nodiscard]] double utilization() const;

  /// One-line JSON object with stable keys — the `--stats-json` /
  /// `--stats-interval-ms` wire format tools/floorstat.py consumes.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace casbus::floor
