/// \file job.hpp
/// One unit of test-floor work: a self-contained recipe for synthesizing an
/// SoC, compiling its test program, and running it through a private
/// cycle-accurate tester — executed as an explicit staged pipeline
/// (Build -> Schedule -> Compile -> Simulate -> Verdict) with per-stage
/// accounting.
///
/// ## Determinism & thread-safety contract
/// A job is *pure*: run_job() constructs every object it touches (Soc,
/// SocTester, Rng, compiled schedules) from the JobSpec alone and shares no
/// mutable state with other jobs. Two calls with equal specs produce equal
/// results in every deterministic field, regardless of which thread runs
/// them or what runs concurrently. All of a job's randomness flows from its
/// private seed — the floor derives it as Rng::derive_stream(floor_seed,
/// job id) (see util/rng.hpp), which is what makes a whole floor run's
/// aggregates byte-identical for 1 and N workers. An optional per-worker
/// VerdictCache may serve a repeated spec's qualified result; because the
/// job is pure, a cache hit reproduces the cold path's result and the
/// contract is unchanged.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sched/scheduler.hpp"

namespace casbus::obs {
class Registry;
class TraceRecorder;
}  // namespace casbus::obs

namespace casbus::floor {

struct FloorMetricIds;

/// The test-program shapes a floor job can exercise — one per access type
/// the CAS-BUS serves (paper Fig. 2 plus the §4 maintenance scenario).
enum class ScenarioKind {
  ScanOnly,      ///< scan cores only, scheduled + executed (Fig. 2a)
  BistJoin,      ///< scan cores with BIST/memory engines joining (Fig. 2b)
  Hierarchical,  ///< child cores tunneled through a parent CAS (Fig. 2d)
  Maintenance,   ///< MBIST under live functional memory traffic (§4)
};

inline constexpr std::size_t kScenarioCount = 4;

/// Stable short name ("scan", "bist", "hier", "maint") — used by the
/// --scenario-mix CLI syntax and the report breakdowns.
[[nodiscard]] const char* scenario_name(ScenarioKind kind) noexcept;

/// Inverse of scenario_name(); throws PreconditionError on unknown names.
[[nodiscard]] ScenarioKind scenario_from_name(std::string_view name);

/// The named stages of the run_job pipeline, in execution order. Every job
/// flows Build -> Schedule -> Compile -> Verify -> Simulate -> Verdict
/// (all skipped on a verdict-cache hit); scenarios the analytic scheduler
/// cannot express (Hierarchical/Maintenance) charge their hand-assembled
/// session setup to Compile and leave Schedule at zero. Verify is the
/// static admission gate (src/verify/): it lints every generated netlist
/// and the compiled schedule in microseconds, so a malformed design fails
/// fast instead of burning the Simulate stage; FloorConfig::verify (or
/// the run_job parameter) skips it.
enum class Stage {
  Build,     ///< synthesize the SoC (cores, wrappers, CAS-BUS)
  Schedule,  ///< analytic scheduling (sched::schedule_with)
  Compile,   ///< bundle the executable program / assemble sessions
  Verify,    ///< static lint of netlists + schedule (verify/)
  Simulate,  ///< cycle-accurate execution through the tester
  Verdict,   ///< harvest pass/fail and cycle accounting
};

inline constexpr std::size_t kStageCount = 6;

/// Stable short name ("build", "schedule", "compile", "verify",
/// "simulate", "verdict") — the report/bench vocabulary for stage
/// breakdowns.
[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// Everything a worker needs to run one job. Plain value object; copying
/// it into a queue is the only hand-off between producer and workers.
struct JobSpec {
  std::size_t id = 0;             ///< slot in the floor run (and RNG stream)
  ScenarioKind scenario = ScenarioKind::ScanOnly;
  std::uint64_t seed = 1;         ///< private stream seed for *all* job RNG
  sched::Strategy strategy = sched::Strategy::Greedy;
  std::size_t cores = 3;          ///< top-level core count (clamped >= 2)
  unsigned bus_width = 4;         ///< CAS-BUS wires (must be >= 2)
  std::size_t patterns_per_ff = 1;///< scan-pattern budget scale

  /// Canonical signature of every field that determines the job's SoC,
  /// schedule, and compiled program — everything except id (two jobs that
  /// differ only in id are reruns of the same recipe). Stable across
  /// platforms and runs (util/hash.hpp). Equal keys mean byte-identical
  /// deterministic results, which is what makes the per-worker verdict
  /// caches and the JobQueue's affinity sharding sound.
  [[nodiscard]] std::uint64_t cache_key() const noexcept;

  /// True when \p other is the same recipe: every field except id equal.
  /// The cache compares recipes on every key match, so a hash collision
  /// degrades to a miss instead of serving the wrong result.
  [[nodiscard]] bool same_recipe(const JobSpec& other) const noexcept;
};

/// Which cache tier served a job, if any (see verdict_cache.hpp). Not
/// deterministic: it depends on job interleaving and worker count, so it
/// is excluded from digests like all timing.
enum class CacheTier : std::uint8_t {
  None,     ///< executed cold (or cache disabled)
  Verdict,  ///< whole pipeline skipped (qualified result reused)
};

/// Stable short name ("none", "verdict") — the vocabulary of
/// report breakdowns, trace args, and metric names.
[[nodiscard]] const char* cache_tier_name(CacheTier tier) noexcept;

/// Work counters harvested from the engines a job ran — scheduler search
/// effort, golden-model memoisation, packed-simulation evaluation. All
/// observability payload: they never feed back into any computation, are
/// excluded from digests (a verdict-tier hit legitimately reports zeros),
/// and cost nothing to carry when telemetry is off.
struct JobEngineCounters {
  std::uint64_t sim_memo_lookups = 0;   ///< tester golden-response probes
  std::uint64_t sim_memo_hits = 0;      ///< ... served from the memo
  double precompute_seconds = 0.0;      ///< golden-response precompute time
  std::uint64_t sim_eval_passes = 0;    ///< netlist::SimStats::eval_passes
  std::uint64_t sim_cell_evals = 0;     ///< netlist::SimStats::cell_evals
  std::uint64_t sim_sweep_cell_evals = 0;  ///< full-sweep-equivalent work
  std::uint64_t core_sweeps_run = 0;      ///< core-model GateSim sweeps run
  std::uint64_t core_sweeps_skipped = 0;  ///< ... skipped (no source changed)
  std::uint64_t kernel_evals = 0;   ///< sim::Simulation module evaluations
  std::uint64_t kernel_passes = 0;  ///< ... settle passes
  std::uint64_t sched_nodes_expanded = 0;  ///< B&B expansions (0 otherwise)
  std::uint64_t sched_prunes = 0;          ///< B&B children cut by bound
  std::uint64_t sched_improvements = 0;    ///< B&B incumbent adoptions
  std::uint64_t sched_leaves_priced = 0;   ///< B&B full partitions priced
};

/// Outcome of one job. Every field except wall_seconds, stage_seconds,
/// cache_tier, and engine is a deterministic function of the JobSpec
/// (FloorReport::deterministic_summary() relies on that); those four are
/// execution records filled in by the executing worker.
struct JobResult {
  std::size_t id = 0;
  ScenarioKind scenario = ScenarioKind::ScanOnly;
  bool pass = false;
  std::string error;              ///< non-empty when the job threw
  std::size_t cores = 0;          ///< cores actually built
  std::size_t sessions = 0;       ///< test sessions executed
  std::size_t patterns = 0;       ///< scan patterns applied
  std::uint64_t predicted_cycles = 0;  ///< analytic time-model prediction
  std::uint64_t measured_cycles = 0;   ///< simulator cycles for the same span
  std::uint64_t sim_cycles = 0;   ///< total tester cycles, incl. config
  double wall_seconds = 0.0;      ///< NOT deterministic; excluded from digests
  /// Per-stage wall time, indexed by Stage. NOT deterministic (timing),
  /// excluded from digests like wall_seconds.
  std::array<double, kStageCount> stage_seconds{};
  /// The cache tier that served this job (None = executed cold). NOT
  /// deterministic (depends on job interleaving and worker count),
  /// excluded from digests.
  CacheTier cache_tier = CacheTier::None;
  /// Engine work counters (see JobEngineCounters). NOT deterministic in
  /// aggregate — a cache-served job reports zeros — excluded from digests.
  JobEngineCounters engine;

  /// True when any cache tier served this job.
  [[nodiscard]] bool cache_hit() const noexcept {
    return cache_tier != CacheTier::None;
  }

  /// |measured − predicted| / predicted (0 when nothing was predicted).
  [[nodiscard]] double deviation() const {
    if (predicted_cycles == 0) return 0.0;
    const auto diff = measured_cycles > predicted_cycles
                          ? measured_cycles - predicted_cycles
                          : predicted_cycles - measured_cycles;
    return static_cast<double>(diff) /
           static_cast<double>(predicted_cycles);
  }
};

class VerdictCache;

/// Simulation-engine options forwarded to a job's private SocTester
/// (soc::TesterOptions carries the full contract). Both knobs are pure
/// optimisations: every deterministic JobResult field is byte-identical
/// for any combination, so they are excluded from JobSpec::cache_key —
/// a cached verdict is valid under any engine configuration.
struct JobSimOptions {
  /// Event-driven golden-model evaluation (netlist::EvalMode::EventDriven)
  /// instead of full sweeps. Exact by construction (packed_gatesim.hpp).
  bool event_sim = true;
  /// Threads for precomputing a session's golden responses (1 = inline,
  /// 0 = one per hardware thread). Responses depend only on (core,
  /// pattern), so the thread count cannot change any result.
  std::size_t sim_threads = 1;
  /// Threads for the Schedule stage's branch-and-bound search when the
  /// spec selects Strategy::BranchBound or Strategy::Exact (1 = serial,
  /// 0 = one per hardware thread; other strategies ignore it). The search runs in
  /// deterministic mode, so the schedule is byte-identical at any thread
  /// count — which is what keeps this knob out of JobSpec::cache_key.
  std::size_t sched_threads = 1;
};

/// Observability hooks handed to run_job by the floor (all optional —
/// value-default means "telemetry off", and every instrument site guards
/// on the null pointers, so the disabled cost is a pointer test).
/// Everything here is strictly *write-only* from the job's perspective:
/// counters and spans flow out, nothing flows back in, which is how the
/// telemetry-on == telemetry-off determinism guarantee holds by
/// construction.
struct JobTelemetry {
  obs::Registry* registry = nullptr;      ///< floor metric sink
  const FloorMetricIds* ids = nullptr;    ///< ids registered in *registry
  obs::TraceRecorder* trace = nullptr;    ///< per-stage span sink
  std::uint32_t worker = 0;               ///< executing worker (trace row)
  std::uint64_t slot = 0;                 ///< arrival slot (trace args)
};

/// Executes \p spec end to end through the staged pipeline (Build ->
/// Schedule -> Compile -> Verify -> Simulate -> Verdict) and reports, with
/// per-stage wall time in JobResult::stage_seconds. Never throws: scenario
/// failures and precondition violations come back as JobResult::error.
///
/// When \p verify is true (the default), the Verify stage lints every
/// generated core netlist and the compiled schedule (src/verify/); an
/// error-grade finding fails the job with the lint summary in
/// JobResult::error and Simulate never runs. The lint functions are pure,
/// so verify-on and verify-off runs of an admissible spec produce equal
/// deterministic result fields.
///
/// When \p cache is non-null (see verdict_cache.hpp), a recipe that
/// already ran cleanly skips the whole pipeline and returns its qualified
/// result re-stamped with this job's id. That cannot change any
/// deterministic result field, because run_job is pure: a cached verdict
/// is byte-identical to what a cold run would recompute, so cache-on and
/// cache-off runs produce equal deterministic_summary() text. The cache
/// must be private to the calling thread (the floor gives each worker its
/// own).
///
/// \p obs carries the floor's telemetry sinks (JobTelemetry); the default
/// runs with telemetry off. Spans and counters are emitted per executed
/// stage — a verdict-tier hit emits none (no stage ran).
[[nodiscard]] JobResult run_job(const JobSpec& spec, VerdictCache* cache,
                                bool verify = true, JobSimOptions sim = {},
                                const JobTelemetry& obs = {}) noexcept;

/// Cache-less convenience overload.
[[nodiscard]] JobResult run_job(const JobSpec& spec) noexcept;

}  // namespace casbus::floor
