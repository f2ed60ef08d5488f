/// \file verdict_cache.hpp
/// Per-worker LRU cache of qualified job results.
///
/// A test floor re-running a spec it has already run is doing work whose
/// outcome it provably knows: run_job is a pure function of the JobSpec
/// (see job.hpp). A recipe that has already executed cleanly is therefore
/// served its qualified JobResult, re-stamped with the new job id,
/// skipping the whole pipeline. This is the production-floor "program
/// qualification" pattern: the first run of a program is validated
/// cycle-accurately, repeats reuse the qualification record. It is what
/// makes a repeated-spec mix measurably faster, since simulation
/// dominates job cost. Results that errored are never qualified (an error
/// may be environmental, e.g. bad_alloc, and so is not provably pure).
///
/// Entries are keyed by the canonical recipe (JobSpec::cache_key()) and
/// verified field-by-field, so a hash collision degrades to a miss, never
/// to a wrong answer. A served verdict cannot change a deterministic
/// result field — cache-on and cache-off floors produce byte-identical
/// deterministic_summary() text, which tests/test_floor_session.cpp
/// enforces.
///
/// ## Thread-safety
/// None, by design. Each floor worker owns one VerdictCache; entries never
/// cross threads. The JobQueue's affinity sharding routes equal-keyed jobs
/// to the same worker precisely so these private caches stay hot without
/// any synchronization.

#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "floor/job.hpp"
#include "obs/metrics.hpp"

namespace casbus::floor {

/// Registry binding for one worker's cache: when `registry` is non-null,
/// every cache event is mirrored into these counters (the add() lands on
/// the owning worker's shard, so the hot path stays contention-free).
/// The plain accessors below (lookups()/hits()/...) work either way.
struct CacheTelemetry {
  obs::Registry* registry = nullptr;
  obs::MetricId lookups{};
  obs::MetricId verdict_hits{};
  obs::MetricId insertions{};
  obs::MetricId evictions{};
};

class VerdictCache {
 public:
  /// \p capacity is the recipe-entry bound; 0 disables the cache entirely
  /// (every lookup misses, every store is a no-op).
  explicit VerdictCache(std::size_t capacity) : capacity_(capacity) {}

  /// Binds the worker's metric registry (see CacheTelemetry). Call before
  /// the first lookup; events before binding only reach the plain
  /// counters.
  void set_telemetry(const CacheTelemetry& telemetry) {
    telemetry_ = telemetry;
  }

  /// The qualified result of a recipe that already ran cleanly,
  /// re-stamped as a CacheTier::Verdict serve with this execution's
  /// timing and engine counters zeroed (nothing ran — the zeros are the
  /// explicit record of that, paired with the tier tag) — or nullopt.
  /// Counts one lookup (and, when served, one hit).
  [[nodiscard]] std::optional<JobResult> reuse(const JobSpec& spec) {
    ++lookups_;
    count(telemetry_.lookups);
    Entry* entry = touch(spec);
    if (entry == nullptr) return std::nullopt;
    ++hits_;
    count(telemetry_.verdict_hits);
    JobResult result = entry->verdict;
    result.cache_tier = CacheTier::Verdict;
    result.stage_seconds.fill(0.0);
    result.wall_seconds = 0.0;
    result.engine = JobEngineCounters{};
    return result;
  }

  /// Qualifies \p result as the recipe's known outcome, evicting the
  /// least recently used entry when over capacity. Callers must only pass
  /// clean (error-free) results.
  void qualify(const JobSpec& spec, const JobResult& result) {
    if (capacity_ == 0) return;
    const std::uint64_t key = spec.cache_key();
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // A colliding different recipe is evicted rather than shared.
      if (!it->second->recipe.same_recipe(spec)) {
        it->second->recipe = spec;
        ++evictions_;
        count(telemetry_.evictions);
        ++insertions_;
        count(telemetry_.insertions);
      }
      it->second->verdict = result;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{spec, result});
    index_[key] = lru_.begin();
    ++insertions_;
    count(telemetry_.insertions);
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().recipe.cache_key());
      lru_.pop_back();
      ++evictions_;
      count(telemetry_.evictions);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// run_job consultations / consultations served.
  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  /// Recipe entries created / entries displaced (LRU or key collision).
  [[nodiscard]] std::size_t insertions() const noexcept {
    return insertions_;
  }
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    JobSpec recipe;  ///< canonical fields; id is meaningless here
    JobResult verdict;
  };

  /// Finds the recipe's entry (collision-checked) and refreshes its
  /// recency; null on miss.
  [[nodiscard]] Entry* touch(const JobSpec& spec) {
    if (capacity_ == 0) return nullptr;
    const auto it = index_.find(spec.cache_key());
    if (it == index_.end() || !it->second->recipe.same_recipe(spec))
      return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // most recent to front
    return &*it->second;
  }

  /// Mirrors one event into the bound registry, if any.
  void count(obs::MetricId id) {
    if (telemetry_.registry != nullptr) telemetry_.registry->add(id);
  }

  std::size_t capacity_;
  CacheTelemetry telemetry_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t lookups_ = 0;
  std::size_t hits_ = 0;
  std::size_t insertions_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace casbus::floor
