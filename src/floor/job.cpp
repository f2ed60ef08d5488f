#include "floor/job.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "floor/verdict_cache.hpp"
#include "floor/telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/time_model.hpp"
#include "soc/schedule_runner.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "soc/traffic.hpp"
#include "tpg/patterns.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "verify/netlist_lint.hpp"
#include "verify/schedule_lint.hpp"

namespace casbus::floor {
namespace {

/// Charges wall time to the pipeline stages: each finish(stage) call
/// attributes the time since the previous boundary to that stage — and,
/// when the job carries telemetry sinks, feeds the stage's latency
/// histogram and emits its trace span. Both sinks are write-only and
/// null-guarded, so the telemetry-off cost is one pointer test per stage.
class StageTimer {
 public:
  StageTimer(JobResult& result, const JobTelemetry& obs)
      : result_(result), obs_(obs),
        last_(std::chrono::steady_clock::now()) {}

  void finish(Stage stage) {
    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(now - last_).count();
    result_.stage_seconds[static_cast<std::size_t>(stage)] += seconds;
    last_ = now;

    const double us = seconds * 1e6;
    if (obs_.registry != nullptr && obs_.ids != nullptr)
      obs_.registry->observe(
          obs_.ids->stage_us[static_cast<std::size_t>(stage)], us);
    if (obs_.trace != nullptr) {
      obs::TraceSpan span;
      span.name = stage_name(stage);
      span.scenario = scenario_name(result_.scenario);
      span.tid = obs_.worker;
      span.slot = obs_.slot;
      span.dur_us = static_cast<std::uint64_t>(us);
      const std::uint64_t end = obs_.trace->now_us();
      span.ts_us = end > span.dur_us ? end - span.dur_us : 0;
      obs_.trace->record(span);
    }
  }

 private:
  JobResult& result_;
  const JobTelemetry& obs_;
  std::chrono::steady_clock::time_point last_;
};

/// Copies a tester's engine counters into the result (see
/// JobEngineCounters). Called after the Simulate stage of every scenario.
void harvest_tester(const soc::SocTester& tester, JobResult& result) {
  result.engine.sim_memo_lookups = tester.memo_lookups();
  result.engine.sim_memo_hits = tester.memo_hits();
  result.engine.precompute_seconds = tester.precompute_seconds();
  const netlist::SimStats stats = tester.sim_stats();
  result.engine.sim_eval_passes = stats.eval_passes;
  result.engine.sim_cell_evals = stats.cell_evals;
  result.engine.sim_sweep_cell_evals = stats.sweep_cell_evals;
  const netlist::GateSim::SweepStats sweeps = tester.core_sweep_stats();
  result.engine.core_sweeps_run = sweeps.run;
  result.engine.core_sweeps_skipped = sweeps.skipped;
  result.engine.kernel_evals = tester.kernel_stats().evals;
  result.engine.kernel_passes = tester.kernel_stats().passes;
}

/// Maps the floor-level engine knobs onto soc::TesterOptions.
soc::TesterOptions tester_options(const JobSimOptions& sim) {
  soc::TesterOptions opts;
  opts.sim_mode = sim.event_sim ? netlist::EvalMode::EventDriven
                                : netlist::EvalMode::FullSweep;
  opts.sim_threads = sim.sim_threads;
  return opts;
}

/// Lints one generated core netlist, including its scan-chain topology
/// (verify rule NL007 walks the mux-D path the chain spec promises).
verify::LintReport lint_core_netlist(const tpg::SyntheticCore& core) {
  verify::NetlistLintConfig config;
  config.scan_chains.reserve(core.chains.size());
  for (std::size_t c = 0; c < core.chains.size(); ++c)
    config.scan_chains.push_back(verify::ScanChainSpec{
        "si" + std::to_string(c), "so" + std::to_string(c),
        core.chains[c].size()});
  return verify::lint_netlist(core.netlist, config);
}

/// Lints every gate-level netlist inside \p soc (scan, external, BIST,
/// hierarchical children; memory cores are behavioral and have none).
verify::LintReport lint_soc(const soc::Soc& soc) {
  verify::LintReport report;
  for (const soc::CoreInstance& core : soc.cores()) {
    switch (core.kind) {
      case soc::CoreKind::Scan:
      case soc::CoreKind::External:
        report.merge(lint_core_netlist(core.as_scan().synth()));
        break;
      case soc::CoreKind::Bist:
        report.merge(lint_core_netlist(core.as_bist().synth()));
        break;
      case soc::CoreKind::Memory:
        break;
      case soc::CoreKind::Hierarchical:
        for (const soc::CoreInstance& child : core.hier->children)
          report.merge(lint_core_netlist(child.as_scan().synth()));
        break;
    }
  }
  return report;
}

/// Runs the Verify stage: on an error-grade finding, fails the job with
/// the lint summary and returns false (the caller skips Simulate).
bool verify_stage(const verify::LintReport& lint, StageTimer& timer,
                  JobResult& result) {
  timer.finish(Stage::Verify);
  if (lint.admissible()) return true;
  result.pass = false;
  result.error = lint.summary();
  return false;
}

/// Synthetic-core spec sized for floor jobs: big enough that execution is
/// dominated by simulation (not queue traffic), small enough that one job
/// stays in the tens of milliseconds.
tpg::SyntheticCoreSpec job_core_spec(Rng& rng, std::size_t chains) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 4;
  spec.n_outputs = 4;
  spec.n_flipflops = 8 + rng.below(9);  // 8..16
  spec.n_gates = 3 * spec.n_flipflops + rng.below(spec.n_flipflops);
  spec.n_chains = std::min(chains, spec.n_flipflops);
  spec.seed = rng.next();
  return spec;
}

/// Scheduled scenarios (ScanOnly / BistJoin): synthesize the SoC, compile
/// via the analytic scheduler, then execute cycle-accurately.
void run_scheduled(const JobSpec& spec, bool with_engines, Rng& rng,
                   bool verify,
                   const JobSimOptions& sim, const JobTelemetry& obs,
                   JobResult& result) {
  StageTimer timer(result, obs);

  // ---- Stage: Build -------------------------------------------------------
  soc::SocBuilder builder(spec.bus_width);
  const std::size_t total = std::max<std::size_t>(2, spec.cores);
  std::size_t scan_cores = total;
  std::size_t engines = 0;

  if (with_engines) {
    // Reserve one slot for a logic-BIST engine, and one for an embedded
    // memory when the bus is wide enough to give both a dedicated wire
    // while keeping at least one scan wire free.
    const bool with_memory = spec.bus_width >= 4;
    engines = with_memory ? 2 : 1;
    scan_cores = std::max<std::size_t>(1, total - engines);
    builder.add_bist_core("lbist", job_core_spec(rng, 1),
                          64 + static_cast<std::uint32_t>(rng.below(129)));
    if (with_memory)
      builder.add_memory_core("ram", 16 + 16 * rng.below(2), 8);
  }
  // Executable-schedule constraint: a CAS routes each selected wire to
  // exactly one port, so a core's chains must land on *distinct* wires.
  // In the tightest session every engine holds a wire concurrently with
  // the scan part; capping chains at the scan wires left then keeps the
  // grouped balance from concatenating two chains of one core onto one
  // wire — a plan the analytic model allows but the switch cannot route.
  const std::size_t max_chains = std::max<std::size_t>(
      1, std::min<std::size_t>(3, spec.bus_width - engines));
  for (std::size_t i = 0; i < scan_cores; ++i)
    builder.add_scan_core("scan" + std::to_string(i),
                          job_core_spec(rng, 1 + rng.below(max_chains)));

  auto soc = builder.build();
  timer.finish(Stage::Build);

  // ---- Stages: Schedule + Compile ----------------------------------------
  soc::CompiledProgram program;
  program.specs = soc::specs_of(*soc, spec.patterns_per_ff);
  sched::ScheduleStats sched_stats;
  program.schedule =
      sched::schedule_with(program.specs, soc->bus().width(), spec.strategy,
                           &sched_stats, sim.sched_threads);
  result.engine.sched_nodes_expanded = sched_stats.nodes_expanded;
  result.engine.sched_prunes = sched_stats.prunes;
  result.engine.sched_improvements = sched_stats.incumbent_improvements;
  result.engine.sched_leaves_priced = sched_stats.leaves_priced;
  timer.finish(Stage::Schedule);
  program.pattern_seed = rng.next();
  timer.finish(Stage::Compile);

  // ---- Stage: Verify ------------------------------------------------------
  if (verify) {
    verify::LintReport lint = lint_soc(*soc);
    lint.merge(verify::lint_schedule(program.schedule, program.specs,
                                     soc->bus().width()));
    if (!verify_stage(lint, timer, result)) return;
  }

  // ---- Stage: Simulate ----------------------------------------------------
  soc::SocTester tester(*soc, tester_options(sim));
  const soc::ScheduleRunReport report =
      soc::run_program(*soc, tester, program);
  harvest_tester(tester, result);
  timer.finish(Stage::Simulate);

  // ---- Stage: Verdict -----------------------------------------------------
  result.cores = soc->core_count();
  result.sessions = report.sessions;
  result.patterns = program.total_patterns();
  result.predicted_cycles = report.predicted_cycles;
  result.measured_cycles = report.measured_cycles;
  result.sim_cycles = tester.cycles();
  result.pass = report.all_pass;
  timer.finish(Stage::Verdict);
}

/// Hierarchical scenario (paper Fig. 2d): children tested through a parent
/// CAS tunnel, concurrently with a top-level scan core. The analytic
/// scheduler cannot express hierarchy, so the session is assembled by hand
/// (charged to the Compile stage) and predicted directly with the time
/// model.
void run_hierarchical(const JobSpec& spec, Rng& rng, bool verify,
                      const JobSimOptions& sim, const JobTelemetry& obs,
                      JobResult& result) {
  StageTimer timer(result, obs);

  // ---- Stage: Build -------------------------------------------------------
  const std::size_t children = 2 + rng.below(2);  // 2..3
  // Top core rides 2 wires, each child needs its own tunnel wire.
  const unsigned width =
      std::max<unsigned>(spec.bus_width, static_cast<unsigned>(2 + children));

  soc::SocBuilder builder(width);
  builder.add_scan_core("top", job_core_spec(rng, 2));
  std::vector<soc::SocBuilder::ChildSpec> child_specs;
  for (std::size_t j = 0; j < children; ++j)
    child_specs.push_back({"sub" + std::to_string(j), job_core_spec(rng, 1)});
  builder.add_hierarchical_core("subsys",
                                static_cast<unsigned>(children),
                                std::move(child_specs));
  auto soc = builder.build();
  soc::SocTester tester(*soc, tester_options(sim));
  timer.finish(Stage::Build);

  // ---- Stage: Compile (hand-assembled session) ----------------------------
  const std::size_t patterns = 6 + rng.below(7);  // 6..12, same per target
  soc::ScanSession session;
  std::vector<unsigned> tunnel;
  for (std::size_t j = 0; j < children; ++j)
    tunnel.push_back(static_cast<unsigned>(2 + j));
  session.routes.push_back(soc::HierarchyRoute{1, tunnel});

  // Wire loads drive the analytic prediction: each chain sits alone on its
  // wire, so the session length follows scan_cycles(max chain, V) exactly.
  std::size_t max_load = 0;
  const tpg::SyntheticCore& top = soc->cores()[0].as_scan().synth();
  std::vector<unsigned> top_wires;
  for (std::size_t c = 0; c < top.chains.size(); ++c) {
    top_wires.push_back(static_cast<unsigned>(c));
    max_load = std::max(max_load, top.chains[c].size());
  }
  session.targets.push_back(soc::ScanTarget{
      soc::CoreRef{0, std::nullopt}, top_wires,
      tpg::PatternSet::random(top.spec.n_flipflops, patterns, rng)});
  const soc::HierarchicalBody& body = *soc->cores()[1].hier;
  for (std::size_t j = 0; j < children; ++j) {
    const tpg::SyntheticCore& child = body.children[j].as_scan().synth();
    max_load = std::max(max_load, child.spec.n_flipflops);
    session.targets.push_back(soc::ScanTarget{
        soc::CoreRef{1, j}, {tunnel[j]},
        tpg::PatternSet::random(child.spec.n_flipflops, patterns, rng)});
  }
  timer.finish(Stage::Compile);

  // ---- Stage: Verify ------------------------------------------------------
  if (verify && !verify_stage(lint_soc(*soc), timer, result)) return;

  // ---- Stage: Simulate ----------------------------------------------------
  const soc::ScanSessionResult r = tester.run_scan_session(session);
  harvest_tester(tester, result);
  timer.finish(Stage::Simulate);

  // ---- Stage: Verdict -----------------------------------------------------
  result.cores = 1 + children;  // leaves under test
  result.sessions = 1;
  result.patterns = patterns * (1 + children);
  result.predicted_cycles = sched::scan_cycles(max_load, patterns);
  result.measured_cycles = r.test_cycles;
  result.sim_cycles = tester.cycles();
  result.pass = r.all_pass();
  timer.finish(Stage::Verdict);
}

/// Maintenance scenario (paper §4): MARCH-test an embedded memory over the
/// bus while live functional traffic keeps hammering a second memory, and
/// scan-test a logic core in the same window. Passing requires the MBIST
/// verdict, clean scan responses, and zero traffic read-back errors. The
/// interleaved mission/test windows are all charged to Simulate.
void run_maintenance(const JobSpec& spec, Rng& rng, bool verify,
                     const JobSimOptions& sim, const JobTelemetry& obs,
                     JobResult& result) {
  StageTimer timer(result, obs);

  // ---- Stage: Build -------------------------------------------------------
  soc::SocBuilder builder(spec.bus_width);
  builder.add_memory_core("ram", 16 + 16 * rng.below(2), 8);
  builder.add_memory_core("buf", 16, 8);
  const std::size_t chains =
      std::max<std::size_t>(1, std::min<std::size_t>(2, spec.bus_width - 1));
  builder.add_scan_core("logic", job_core_spec(rng, chains));
  auto soc = builder.build();

  soc::MemoryTraffic traffic(*soc, 1, rng.next());
  soc::SocTester tester(*soc, tester_options(sim));
  soc::MemoryCore& ram = soc->cores()[0].as_memory();
  timer.finish(Stage::Build);

  // ---- Stage: Compile (scan session assembly) -----------------------------
  const tpg::SyntheticCore& logic = soc->cores()[2].as_scan().synth();
  const std::size_t patterns = 4 + rng.below(5);  // 4..8
  soc::ScanSession session;
  std::vector<unsigned> wires;
  for (std::size_t c = 0; c < logic.chains.size(); ++c)
    wires.push_back(static_cast<unsigned>(c));
  session.targets.push_back(soc::ScanTarget{
      soc::CoreRef{2, std::nullopt}, wires,
      tpg::PatternSet::random(logic.spec.n_flipflops, patterns, rng)});
  timer.finish(Stage::Compile);

  // ---- Stage: Verify ------------------------------------------------------
  if (verify && !verify_stage(lint_soc(*soc), timer, result)) return;

  // ---- Stage: Simulate ----------------------------------------------------
  traffic.set_enabled(true);
  tester.step(64 + rng.below(65));  // mission mode before the window

  // Scan the logic core while traffic keeps flowing through "buf".
  const soc::ScanSessionResult scan = tester.run_scan_session(session);

  // Maintenance window proper: MBIST over the top bus wire.
  const soc::BistRunResult mbist =
      tester.run_bist(0, spec.bus_width - 1, ram.mbist_cycles());
  tester.step(32);  // back to mission mode
  harvest_tester(tester, result);
  timer.finish(Stage::Simulate);

  // ---- Stage: Verdict -----------------------------------------------------
  result.cores = soc->core_count();
  result.sessions = 2;
  result.patterns = patterns;
  result.predicted_cycles = ram.mbist_cycles();
  result.measured_cycles = mbist.test_cycles;
  result.sim_cycles = tester.cycles();
  result.pass = scan.all_pass() && mbist.pass &&
                traffic.mismatches() == 0 && traffic.reads_checked() > 0;
  timer.finish(Stage::Verdict);
}

}  // namespace

const char* scenario_name(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::ScanOnly: return "scan";
    case ScenarioKind::BistJoin: return "bist";
    case ScenarioKind::Hierarchical: return "hier";
    case ScenarioKind::Maintenance: return "maint";
  }
  return "unknown";
}

ScenarioKind scenario_from_name(std::string_view name) {
  if (name == "scan") return ScenarioKind::ScanOnly;
  if (name == "bist") return ScenarioKind::BistJoin;
  if (name == "hier") return ScenarioKind::Hierarchical;
  if (name == "maint") return ScenarioKind::Maintenance;
  CASBUS_REQUIRE(false, "unknown scenario: " + std::string(name));
  return ScenarioKind::ScanOnly;  // unreachable
}

const char* cache_tier_name(CacheTier tier) noexcept {
  switch (tier) {
    case CacheTier::None: return "none";
    case CacheTier::Verdict: return "verdict";
  }
  return "unknown";
}

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::Build: return "build";
    case Stage::Schedule: return "schedule";
    case Stage::Compile: return "compile";
    case Stage::Verify: return "verify";
    case Stage::Simulate: return "simulate";
    case Stage::Verdict: return "verdict";
  }
  return "unknown";
}

std::uint64_t JobSpec::cache_key() const noexcept {
  return StableHash{}
      .mix(static_cast<std::uint64_t>(scenario))
      .mix(seed)
      .mix(static_cast<std::uint64_t>(strategy))
      .mix(static_cast<std::uint64_t>(cores))
      .mix(static_cast<std::uint64_t>(bus_width))
      .mix(static_cast<std::uint64_t>(patterns_per_ff))
      .value();
}

bool JobSpec::same_recipe(const JobSpec& other) const noexcept {
  return scenario == other.scenario && seed == other.seed &&
         strategy == other.strategy && cores == other.cores &&
         bus_width == other.bus_width &&
         patterns_per_ff == other.patterns_per_ff;
}

namespace {

/// Terminal telemetry of one run_job call: the engine-counter metrics and
/// the job-level span (category "job", tagged with the serving cache
/// tier). Stage spans/histograms were already emitted by the StageTimer —
/// or not at all, for a verdict-tier serve, which is exactly the "one
/// span per stage per *executed* job" contract.
void emit_job_telemetry(const JobTelemetry& obs, const JobResult& result,
                        std::uint64_t job_start_us) {
  if (obs.registry != nullptr && obs.ids != nullptr) {
    obs::Registry& reg = *obs.registry;
    const FloorMetricIds& ids = *obs.ids;
    reg.add(ids.jobs_executed);
    if (!result.error.empty()) reg.add(ids.jobs_errored);
    const JobEngineCounters& e = result.engine;
    reg.add(ids.sim_memo_lookups, e.sim_memo_lookups);
    reg.add(ids.sim_memo_hits, e.sim_memo_hits);
    reg.add(ids.sim_precompute_us,
            static_cast<std::uint64_t>(e.precompute_seconds * 1e6));
    reg.add(ids.sim_eval_passes, e.sim_eval_passes);
    reg.add(ids.sim_cell_evals, e.sim_cell_evals);
    reg.add(ids.sim_sweep_cell_evals, e.sim_sweep_cell_evals);
    reg.add(ids.sim_core_sweeps, e.core_sweeps_run);
    reg.add(ids.sim_core_sweeps_skipped, e.core_sweeps_skipped);
    reg.add(ids.sim_kernel_evals, e.kernel_evals);
    reg.add(ids.sim_kernel_passes, e.kernel_passes);
    reg.add(ids.sched_nodes, e.sched_nodes_expanded);
    reg.add(ids.sched_prunes, e.sched_prunes);
    reg.add(ids.sched_improvements, e.sched_improvements);
    reg.add(ids.sched_leaves, e.sched_leaves_priced);
  }
  if (obs.trace != nullptr) {
    obs::TraceSpan span;
    span.name = scenario_name(result.scenario);
    span.category = "job";
    span.scenario = scenario_name(result.scenario);
    span.cache_tier = cache_tier_name(result.cache_tier);
    span.tid = obs.worker;
    span.slot = obs.slot;
    span.ts_us = job_start_us;
    const std::uint64_t end = obs.trace->now_us();
    span.dur_us = end > job_start_us ? end - job_start_us : 0;
    obs.trace->record(span);
  }
}

}  // namespace

JobResult run_job(const JobSpec& spec, VerdictCache* cache, bool verify,
                  JobSimOptions sim, const JobTelemetry& obs) noexcept {
  const std::uint64_t job_start_us =
      obs.trace != nullptr ? obs.trace->now_us() : 0;

  // Verdict tier: a recipe this worker already ran cleanly skips the
  // whole pipeline — run_job is pure, so the qualified result *is* what a
  // re-run would compute (only id and timing are job-specific).
  if (cache) {
    if (std::optional<JobResult> memo = cache->reuse(spec)) {
      memo->id = spec.id;
      emit_job_telemetry(obs, *memo, job_start_us);
      return *memo;
    }
  }

  JobResult result;
  result.id = spec.id;
  result.scenario = spec.scenario;
  try {
    CASBUS_REQUIRE(spec.bus_width >= 2 && spec.bus_width <= 32,
                   "floor job bus width must be in [2, 32]");
    Rng rng(spec.seed);
    switch (spec.scenario) {
      case ScenarioKind::ScanOnly:
        run_scheduled(spec, /*with_engines=*/false, rng, verify, sim, obs,
                      result);
        break;
      case ScenarioKind::BistJoin:
        run_scheduled(spec, /*with_engines=*/true, rng, verify, sim, obs,
                      result);
        break;
      case ScenarioKind::Hierarchical:
        run_hierarchical(spec, rng, verify, sim, obs, result);
        break;
      case ScenarioKind::Maintenance:
        run_maintenance(spec, rng, verify, sim, obs, result);
        break;
    }
    // Clean runs qualify the recipe for verdict reuse; errors never do
    // (an error may be environmental, not a function of the spec).
    if (cache && result.error.empty()) cache->qualify(spec, result);
  } catch (const std::exception& e) {
    result.pass = false;
    result.error = e.what();
  } catch (...) {
    result.pass = false;
    result.error = "unknown error";
  }
  emit_job_telemetry(obs, result, job_start_us);
  return result;
}

JobResult run_job(const JobSpec& spec) noexcept {
  return run_job(spec, nullptr);
}

}  // namespace casbus::floor
