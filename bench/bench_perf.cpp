/// \file bench_perf.cpp
/// Experiment P1 — engineering microbenchmarks (google-benchmark): the
/// throughputs that bound how large a SoC the cycle-accurate path can
/// handle, plus generator/optimizer costs.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/cas_generator.hpp"
#include "core/test_bus.hpp"
#include "netlist/faultsim.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/opt.hpp"
#include "netlist/packed_gatesim.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulation.hpp"
#include "soc/core_model.hpp"
#include "tpg/fault.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/synthcore.hpp"
#include "util/rng.hpp"

namespace {

using namespace casbus;

/// Cycle-level kernel: a chain of CASes settling + ticking.
void BM_KernelCasChain(benchmark::State& state) {
  const auto n_cas = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  tam::CasBusChain chain(sim, 8, "bus");
  for (std::size_t i = 0; i < n_cas; ++i)
    chain.add_cas("c" + std::to_string(i), 2);
  sim.reset();
  chain.head().set_all(Logic4::Zero);
  for (std::size_t i = 0; i < n_cas; ++i) chain.cas_i(i).set_uint(0);

  std::uint64_t x = 0;
  for (auto _ : state) {
    chain.head().set_uint(x++ & 0xFF);
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_cas));
}
BENCHMARK(BM_KernelCasChain)->Arg(4)->Arg(16)->Arg(64);

/// Gate-level simulation of a generated CAS.
void BM_GateSimCas(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const tam::GeneratedCas gen = tam::generate_cas(
      n, n / 2, {tam::CasImplementation::OptimizedGateLevel, true});
  netlist::GateSim sim(gen.netlist);
  sim.reset();
  Rng rng(1);
  for (auto _ : state) {
    for (unsigned w = 0; w < n; ++w)
      sim.set_input("e" + std::to_string(w), rng.coin());
    sim.eval();
    sim.tick();
    benchmark::DoNotOptimize(sim.output("s0"));
  }
  state.counters["cells"] =
      static_cast<double>(gen.netlist.cell_count());
}
BENCHMARK(BM_GateSimCas)->Arg(4)->Arg(8)->Arg(16);

/// The synthetic core shared by the scalar/packed simulation benchmarks,
/// so their patterns/sec counters are directly comparable. Cached per gate
/// count: google-benchmark re-invokes the benchmark body once per
/// measurement repetition, and regenerating the core every repetition
/// would dominate setup time (the bench driver is single-threaded, so the
/// static cache needs no locking).
const tpg::SyntheticCore& simcore_for(std::int64_t n_gates) {
  static std::map<std::int64_t, tpg::SyntheticCore> cache;
  auto it = cache.find(n_gates);
  if (it == cache.end()) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 16;
    spec.n_outputs = 16;
    spec.n_flipflops = 64;
    spec.n_gates = static_cast<std::size_t>(n_gates);
    spec.n_chains = 4;
    it = cache.emplace(n_gates, tpg::make_synthetic_core(spec)).first;
  }
  return it->second;
}

/// Shared levelization of simcore_for(n_gates), computed once per gate
/// count instead of once per repetition.
const std::shared_ptr<const netlist::LevelizedNetlist>& simcore_lev(
    std::int64_t n_gates) {
  static std::map<std::int64_t,
                  std::shared_ptr<const netlist::LevelizedNetlist>>
      cache;
  auto it = cache.find(n_gates);
  if (it == cache.end())
    it = cache
             .emplace(n_gates,
                      netlist::levelize(simcore_for(n_gates).netlist))
             .first;
  return it->second;
}

/// Gate-level simulation of a synthetic core: one pattern per eval pass.
void BM_GateSimCore(benchmark::State& state) {
  const tpg::SyntheticCore& core = simcore_for(state.range(0));
  netlist::GateSim sim(core.netlist);
  sim.reset();
  Rng rng(2);
  for (auto _ : state) {
    for (std::size_t i = 0; i < core.spec.n_inputs; ++i)
      sim.set_input("pi" + std::to_string(i), rng.coin());
    sim.set_input("scan_en", false);
    for (std::size_t c = 0; c < core.spec.n_chains; ++c)
      sim.set_input("si" + std::to_string(c), false);
    sim.eval();
    sim.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["patterns_per_sec"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GateSimCore)->Arg(256)->Arg(1024)->Arg(4096);

/// 64-wide bit-parallel simulation of the same core: 64 patterns per pass.
/// patterns_per_sec here / patterns_per_sec of BM_GateSimCore at the same
/// gate count is the word-level speedup (~9-16x over the table-driven
/// scalar sweep).
void BM_PackedGateSim(benchmark::State& state) {
  const tpg::SyntheticCore& core = simcore_for(state.range(0));
  netlist::PackedGateSim sim(simcore_lev(state.range(0)));
  sim.reset();
  Rng rng(2);
  for (auto _ : state) {
    for (std::size_t i = 0; i < core.spec.n_inputs; ++i) {
      // 64 random driven lanes per input: plane p1 = random, p0 = ~p1.
      const std::uint64_t ones = rng.next();
      sim.set_input_index(i, Logic64{~ones, ones});
    }
    sim.set_input("scan_en", Logic4::Zero);
    for (std::size_t c = 0; c < core.spec.n_chains; ++c)
      sim.set_input("si" + std::to_string(c), Logic4::Zero);
    sim.eval();
    sim.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 64);
  state.counters["patterns_per_sec"] =
      benchmark::Counter(64.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PackedGateSim)->Arg(256)->Arg(1024)->Arg(4096);

/// Scan-shift workload shared by the sweep/event packed benchmarks:
/// scan_en held high, functional inputs quiet, and a repeat-fill scan
/// stream (the fill value flips only every 4 chain lengths, as in
/// repeat-fill ATPG compression). Per shift cycle only the old/new-value
/// boundary moves — one flip-flop per chain changes — so almost every
/// logic cone is quiescent. This is the workload the event-driven mode is
/// built for; the "activity" counter records the fraction of gate
/// evaluations it actually performed (1.0 for a full sweep).
void run_packed_shift(benchmark::State& state, netlist::EvalMode mode) {
  const tpg::SyntheticCore& core = simcore_for(state.range(0));
  netlist::PackedGateSim sim(simcore_lev(state.range(0)), mode);
  sim.reset();
  for (std::size_t i = 0; i < core.spec.n_inputs; ++i)
    sim.set_input_index(i, Logic64{~0ULL, 0});  // all lanes driven 0
  sim.set_input("scan_en", Logic4::One);
  const std::size_t refill = 4 * core.max_chain_length();
  std::size_t cycle = 0;
  bool fill = false;
  for (auto _ : state) {
    if (cycle++ % refill == 0) fill = !fill;
    for (std::size_t c = 0; c < core.spec.n_chains; ++c)
      sim.set_input("si" + std::to_string(c),
                    fill ? Logic4::One : Logic4::Zero);
    sim.eval();
    sim.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 64);
  state.counters["patterns_per_sec"] =
      benchmark::Counter(64.0, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["activity"] = sim.stats().activity();
}

/// Full-sweep baseline on the scan-shift workload.
void BM_PackedGateSimSweepShift(benchmark::State& state) {
  run_packed_shift(state, netlist::EvalMode::FullSweep);
}
BENCHMARK(BM_PackedGateSimSweepShift)->Arg(1024)->Arg(4096);

/// Event-driven mode on the same workload; patterns_per_sec here /
/// BM_PackedGateSimSweepShift at the same gate count is the event-driven
/// speedup (acceptance target: >= 3x on this workload).
void BM_PackedGateSimEventShift(benchmark::State& state) {
  run_packed_shift(state, netlist::EvalMode::EventDriven);
}
BENCHMARK(BM_PackedGateSimEventShift)->Arg(1024)->Arg(4096);

/// Copies one wire onto another when its source changes.
/// BM_NetlistCoreSettle registers a chain of these in reverse order, so a
/// change at the chain's head takes one delta pass per stage to reach its
/// end.
class DeltaStage : public sim::Module {
 public:
  DeltaStage(const sim::Wire& src, sim::Wire& dst)
      : sim::Module("delta"), src_(src), dst_(dst) {
    watch(src_);
  }
  void evaluate() override { dst_.set(src_.get()); }

 private:
  const sim::Wire& src_;
  sim::Wire& dst_;
};

/// The core-model layer under the kernel: a NetlistCore shifting scan data
/// under sim::Simulation, as on the test floor, while a ripple down
/// kIdlePasses reverse-registered stages adds that many delta passes per
/// settle that leave the core's inputs unchanged. The event-driven kernel
/// evaluates the core only in the pass that brings its new scan-in bits,
/// and its tick() only captures, so a cycle costs one gate-level sweep
/// (sweeps_per_cycle = 1) and no idle evaluate() calls. A kernel back on
/// full passes evaluates every module in each of the ~kIdlePasses passes
/// and measured ~6x slower; a NetlistCore::tick() that sweeps after the
/// capture again (2 sweeps per cycle) ~1.3x; dropping GateSim change
/// tracking or the resolved port indices no longer shows, since the core
/// is evaluated only when an input changed. Its CI floor catches the
/// full-pass regression; CasBusKernel.* bounds the evaluations exactly.
void BM_NetlistCoreSettle(benchmark::State& state) {
  constexpr std::size_t kIdlePasses = 32;
  const tpg::SyntheticCore& synth = simcore_for(state.range(0));
  sim::Simulation sim;
  std::vector<sim::Wire*> ripple;
  for (std::size_t i = 0; i <= kIdlePasses; ++i)
    ripple.push_back(&sim.wire("ripple" + std::to_string(i), Logic4::Zero));
  std::vector<std::unique_ptr<DeltaStage>> stages;
  for (std::size_t i = kIdlePasses; i > 0; --i) {
    stages.push_back(std::make_unique<DeltaStage>(*ripple[i - 1], *ripple[i]));
    sim.add(stages.back().get());
  }
  soc::NetlistCore core(sim, "core", synth);
  sim.add(&core);
  sim.reset();
  const soc::CoreTerminals& t = core.terminals();
  t.scan_en->set(Logic4::One);
  Rng rng(3);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    for (sim::Wire* si : t.scan_in) si->set(rng.coin());
    ripple[0]->set((++cycles & 1u) != 0);
    sim.step();
  }
  state.counters["cycles_per_sec"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["sweeps_per_cycle"] =
      cycles == 0 ? 0.0
                  : static_cast<double>(core.gatesim().sweep_stats().run) /
                        static_cast<double>(cycles);
}
BENCHMARK(BM_NetlistCoreSettle)->Arg(256);

/// The core graded by every fault-simulation benchmark, cached like
/// simcore_for so repetitions share one generation + levelization.
const tpg::SyntheticCore& faultcore_for(std::int64_t n_gates) {
  static std::map<std::int64_t, tpg::SyntheticCore> cache;
  auto it = cache.find(n_gates);
  if (it == cache.end()) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 8;
    spec.n_flipflops = 16;
    spec.n_gates = static_cast<std::size_t>(n_gates);
    it = cache.emplace(n_gates, tpg::make_synthetic_core(spec)).first;
  }
  return it->second;
}

const std::shared_ptr<const netlist::LevelizedNetlist>& faultcore_lev(
    std::int64_t n_gates) {
  static std::map<std::int64_t,
                  std::shared_ptr<const netlist::LevelizedNetlist>>
      cache;
  auto it = cache.find(n_gates);
  if (it == cache.end())
    it = cache
             .emplace(n_gates,
                      netlist::levelize(faultcore_for(n_gates).netlist))
             .first;
  return it->second;
}

/// Serial stuck-at fault simulation (pattern x fault grid), one faulty
/// machine per eval pass — the pre-packed baseline.
void BM_FaultSim(benchmark::State& state) {
  const tpg::SyntheticCore& core = faultcore_for(state.range(0));
  tpg::FaultSimulator fsim(faultcore_lev(state.range(0)));
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 8, rng);
  for (auto _ : state) {
    const auto report = fsim.run_serial(patterns, faults);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSim)->Arg(64)->Arg(256);

/// Bit-parallel stuck-at fault simulation: 64 faults per machine word,
/// same pattern x fault grid as BM_FaultSim.
void BM_FaultSim64(benchmark::State& state) {
  const tpg::SyntheticCore& core = faultcore_for(state.range(0));
  tpg::FaultSimulator fsim(faultcore_lev(state.range(0)));
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 8, rng);
  for (auto _ : state) {
    const auto report = fsim.run(patterns, faults);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSim64)->Arg(64)->Arg(256);

/// BM_FaultSim64 with event-driven workers: grading identical, but each
/// faulty batch re-simulates only the fault cones. The "activity" counter
/// is the fraction of full-sweep gate evaluations actually performed.
void BM_FaultSim64Event(benchmark::State& state) {
  const tpg::SyntheticCore& core = faultcore_for(state.range(0));
  tpg::FaultSimulator fsim(faultcore_lev(state.range(0)),
                           netlist::EvalMode::EventDriven);
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 8, rng);
  for (auto _ : state) {
    const auto report = fsim.run(patterns, faults);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["activity"] = fsim.stats().activity();
}
BENCHMARK(BM_FaultSim64Event)->Arg(64)->Arg(256);

/// Threaded fault campaign on a campaign-sized grid (1024 gates, ~3k
/// faults, 32 patterns), sharded across range(0) worker threads
/// (run_fault_campaign). The detection maps are byte-identical at every
/// thread count; speedup at 4 threads over 1 is the campaign-level
/// scaling (acceptance target: >= 2.5x on >= 4 physical cores — see
/// docs/BENCHMARKS.md and tools/check_perf_gates.py).
void BM_FaultSimThreaded(benchmark::State& state) {
  const std::int64_t n_gates = 1024;
  const tpg::SyntheticCore& core = faultcore_for(n_gates);
  tpg::FaultSimulator fsim(faultcore_lev(n_gates));
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 32, rng);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto report = fsim.run(patterns, faults, threads);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["threads"] = static_cast<double>(threads);
  // Scaling is only observable on multi-core hosts; the CI gate keys off
  // this counter and skips the speedup check on smaller machines.
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_FaultSimThreaded)->Arg(1)->Arg(2)->Arg(4);

/// CAS generation + optimization cost.
void BM_GenerateCas(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto gen = tam::generate_cas(
        n, n / 2, {tam::CasImplementation::OptimizedGateLevel, true});
    benchmark::DoNotOptimize(gen.netlist.cell_count());
  }
}
BENCHMARK(BM_GenerateCas)->Arg(4)->Arg(8)->Arg(16);

/// Logic optimizer on a midsize random netlist.
void BM_Optimize(benchmark::State& state) {
  tpg::SyntheticCoreSpec spec;
  spec.n_gates = static_cast<std::size_t>(state.range(0));
  spec.n_flipflops = 32;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  for (auto _ : state) {
    const auto opt = netlist::optimize(core.netlist);
    benchmark::DoNotOptimize(opt.cell_count());
  }
}
BENCHMARK(BM_Optimize)->Arg(512)->Arg(2048);

/// LFSR / MISR stepping.
void BM_LfsrMisr(benchmark::State& state) {
  tpg::Lfsr lfsr = tpg::Lfsr::standard(32, 0xDEAD);
  tpg::Misr misr(32);
  for (auto _ : state) {
    misr.feed_word(lfsr.step_word());
    benchmark::DoNotOptimize(misr.signature());
  }
}
BENCHMARK(BM_LfsrMisr);

/// Scheduler on the reference SoC.
void BM_Scheduler(benchmark::State& state) {
  std::vector<sched::CoreTestSpec> cores;
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    sched::CoreTestSpec c;
    c.name = "c" + std::to_string(i);
    for (int k = 0; k < 4; ++k) c.chains.push_back(20 + rng.below(200));
    c.patterns = 50 + rng.below(400);
    cores.push_back(std::move(c));
  }
  for (auto _ : state) {
    sched::SessionScheduler s(cores, 8);
    benchmark::DoNotOptimize(s.greedy().total_cycles);
  }
}
BENCHMARK(BM_Scheduler);

/// Console reporter that additionally forwards every run into the shared
/// JsonReporter, so bench_perf emits the same BENCH_<name>.json artifact
/// as the plain experiment harnesses.
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardingReporter(casbus::bench::JsonReporter& json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      // Aggregate rows (mean/median/stddev/cv under --benchmark_repetitions)
      // have iterations == 0 and mixed units; record only measured runs.
      if (run.run_type != Run::RT_Iteration) continue;
      const casbus::bench::JsonReporter::Params params = {
          {"iterations", std::to_string(run.iterations)}};
      json_.record(run.benchmark_name(), params, "real_time_ns_per_iter",
                   run.GetAdjustedRealTime());
      json_.record(run.benchmark_name(), params, "cpu_time_ns_per_iter",
                   run.GetAdjustedCPUTime());
      for (const auto& [counter_name, counter] : run.counters)
        json_.record(run.benchmark_name(), params,
                     "counter_" + counter_name,
                     static_cast<double>(counter.value));
    }
  }

 private:
  casbus::bench::JsonReporter& json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  casbus::bench::JsonReporter json("perf");
  JsonForwardingReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
