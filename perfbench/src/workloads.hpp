/// \file workloads.hpp
/// The benchmark's workloads and the helpers they share.
#pragma once

#include <sys/resource.h>

#include <chrono>

#include "floor/job.hpp"
#include "outcome.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p start.
inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident memory of this process so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// True when \p a and \p b agree in every deterministic JobResult field
/// (all but id and the execution records: timing, cache tier, engine
/// counters).
inline bool same_outcome(const casbus::floor::JobResult& a,
                         const casbus::floor::JobResult& b) {
  return a.scenario == b.scenario && a.pass == b.pass &&
         a.error == b.error && a.cores == b.cores &&
         a.sessions == b.sessions && a.patterns == b.patterns &&
         a.predicted_cycles == b.predicted_cycles &&
         a.measured_cycles == b.measured_cycles &&
         a.sim_cycles == b.sim_cycles;
}

/// TestFloor batches with one worker over JobFactory(seed) jobs; every
/// recipe is distinct, so every job runs the whole pipeline cold.
Outcome run_floor_cold(const Options& options);

/// A FloorSession with two workers fed by one closed-loop producer that
/// repeats recipes from a pool held by the verdict caches.
Outcome run_floor_repeat(const Options& options);

/// Direct scheduler calls over SocGenerator populations.
Outcome run_sched_search(const Options& options);

}  // namespace perfbench
