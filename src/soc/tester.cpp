#include "soc/tester.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "core/config_protocol.hpp"
#include "util/rng.hpp"

namespace casbus::soc {

using tam::InstructionSet;
using tam::SwitchScheme;

SocTester::SocTester(Soc& soc, TesterOptions options)
    : soc_(soc), options_(options) {}

tpg::FaultSimulator& SocTester::golden_for(const CoreRef& ref) {
  auto it = golden_.find(ref);
  if (it == golden_.end()) {
    // The golden model shares the core model's levelization: same netlist,
    // levelized once per core.
    const NetlistCore& model = core_at(ref).as_scan();
    const tpg::SyntheticCore& sc = model.synth();
    auto fsim = std::make_unique<tpg::FaultSimulator>(
        model.gatesim().levelized(), options_.sim_mode);
    for (std::size_t i = 0; i < sc.spec.n_inputs; ++i)
      fsim->pin_input("pi" + std::to_string(i), false);
    fsim->pin_input("scan_en", false);
    for (std::size_t c = 0; c < sc.spec.n_chains; ++c)
      fsim->pin_input("si" + std::to_string(c), false);
    it = golden_.emplace(ref, std::move(fsim)).first;
  }
  return *it->second;
}

std::vector<const BitVector*> SocTester::expected_responses(
    const CoreRef& ref, const tpg::PatternSet& patterns) {
  // Only find() on the outer maps: the concurrent precompute path creates
  // every per-core entry serially beforehand.
  std::unordered_map<std::string, BitVector>& cache =
      golden_cache_.find(ref)->second;
  std::vector<const BitVector*> out(patterns.size());
  std::vector<const BitVector*> misses;
  std::vector<BitVector*> slots;  // memo entries the misses fill
  for (std::size_t r = 0; r < patterns.size(); ++r) {
    const BitVector& pattern = patterns.at(r);
    // A miss reserves its entry at once, so a repeat of the pattern later
    // in the set is a hit, as it would be one pattern at a time.
    const auto [it, miss] = cache.try_emplace(pattern.to_string());
    if (miss) {
      misses.push_back(&pattern);
      slots.push_back(&it->second);
    }
    out[r] = &it->second;
  }
  memo_lookups_.fetch_add(patterns.size(), std::memory_order_relaxed);
  memo_hits_.fetch_add(patterns.size() - misses.size(),
                       std::memory_order_relaxed);
  if (!misses.empty()) {
    std::vector<BitVector> fresh =
        golden_.find(ref)->second->good_responses(misses);
    for (std::size_t i = 0; i < slots.size(); ++i)
      *slots[i] = std::move(fresh[i]);
  }
  return out;
}

netlist::SimStats SocTester::sim_stats() const {
  netlist::SimStats total;
  for (const auto& [ref, fsim] : golden_) {
    const netlist::SimStats& s = fsim->stats();
    total.eval_passes += s.eval_passes;
    total.cell_evals += s.cell_evals;
    total.sweep_cell_evals += s.sweep_cell_evals;
  }
  return total;
}

netlist::GateSim::SweepStats SocTester::core_sweep_stats() const {
  netlist::GateSim::SweepStats total;
  const auto add = [&](const CoreInstance& core) {
    if (core.model == nullptr) return;  // hierarchical shell
    const netlist::GateSim::SweepStats s = core.model->sweep_stats();
    total.run += s.run;
    total.skipped += s.skipped;
  };
  for (const CoreInstance& core : soc_.cores()) {
    add(core);
    if (core.hier != nullptr)
      for (const CoreInstance& child : core.hier->children) add(child);
  }
  return total;
}

void SocTester::reset() { soc_.reset(); }

void SocTester::step(std::uint64_t n) { soc_.simulation().step(n); }

CoreInstance& SocTester::core_at(const CoreRef& ref) {
  CoreInstance& top = soc_.cores().at(ref.top);
  if (!ref.child.has_value()) return top;
  CASBUS_REQUIRE(top.hier != nullptr,
                 "CoreRef addresses a child of a non-hierarchical core");
  return top.hier->children.at(*ref.child);
}

const tpg::SyntheticCore& SocTester::synth_of(const CoreRef& ref) {
  return core_at(ref).as_scan().synth();
}

std::uint64_t SocTester::configure_bus(
    const std::vector<std::uint64_t>& codes) {
  sim::Simulation& sim = soc_.simulation();
  const std::uint64_t start = sim.cycle();
  tam::CasBusChain& chain = soc_.bus();

  chain.config_wire().set(true);
  const BitVector stream = tam::build_cas_config_stream(chain, codes);
  for (std::size_t b = 0; b < stream.size(); ++b) {
    chain.head()[0].set(stream.get(b));
    sim.step();
  }
  chain.update_wire().set(true);
  sim.step();
  chain.update_wire().set(false);
  chain.config_wire().set(false);
  chain.head()[0].set(false);
  sim.settle();
  return sim.cycle() - start;
}

std::uint64_t SocTester::configure_child_bus(
    std::size_t top_core, unsigned entry_wire,
    const std::vector<std::uint64_t>& codes) {
  CoreInstance& parent = soc_.cores().at(top_core);
  CASBUS_REQUIRE(parent.hier != nullptr,
                 "configure_child_bus: not a hierarchical core");
  sim::Simulation& sim = soc_.simulation();
  const std::uint64_t start = sim.cycle();
  tam::CasBusChain& child = *parent.hier->bus;
  sim::Wire& data_in = soc_.bus().head()[entry_wire];

  child.config_wire().set(true);
  const BitVector stream = tam::build_cas_config_stream(child, codes);
  for (std::size_t b = 0; b < stream.size(); ++b) {
    data_in.set(stream.get(b));
    sim.step();
  }
  child.update_wire().set(true);
  sim.step();
  child.update_wire().set(false);
  child.config_wire().set(false);
  data_in.set(false);
  sim.settle();
  return sim.cycle() - start;
}

std::uint64_t SocTester::load_wrapper_instructions(
    const std::vector<p1500::WrapperInstr>& instrs) {
  const auto& ring = soc_.wrapper_ring();
  CASBUS_REQUIRE(instrs.size() == ring.size(),
                 "load_wrapper_instructions: one instruction per wrapper");
  sim::Simulation& sim = soc_.simulation();
  const std::uint64_t start = sim.cycle();

  std::vector<tam::ConfigEntry> entries;
  entries.reserve(instrs.size());
  for (const p1500::WrapperInstr instr : instrs)
    entries.push_back(tam::ConfigEntry{
        p1500::kWirBits, static_cast<std::uint64_t>(instr)});
  const BitVector stream = tam::build_config_stream(entries);

  soc_.wsc().select_wir->set(true);
  soc_.wsc().shift_wr->set(true);
  for (std::size_t b = 0; b < stream.size(); ++b) {
    soc_.wsi_pin().set(stream.get(b));
    sim.step();
  }
  soc_.wsc().shift_wr->set(false);
  soc_.wsc().update_wr->set(true);
  sim.step();
  soc_.wsc().update_wr->set(false);
  soc_.wsc().select_wir->set(false);
  soc_.wsi_pin().set(false);
  sim.settle();
  return sim.cycle() - start;
}

std::uint64_t SocTester::load_all_wrappers(p1500::WrapperInstr instr) {
  return load_wrapper_instructions(std::vector<p1500::WrapperInstr>(
      soc_.wrapper_ring().size(), instr));
}

ScanSessionResult SocTester::run_scan_session(const ScanSession& session) {
  ScanSessionResult result;
  tam::CasBusChain& bus = soc_.bus();
  const unsigned width = bus.width();

  // --- 1. Derive CAS instruction codes -------------------------------------
  std::vector<std::uint64_t> top_codes(bus.size(),
                                       InstructionSet::kBypassCode);
  std::map<std::size_t, std::vector<std::uint64_t>> child_codes;
  std::map<std::size_t, const HierarchyRoute*> route_of;

  for (const HierarchyRoute& route : session.routes) {
    const CoreInstance& parent = soc_.cores().at(route.top_core);
    CASBUS_REQUIRE(parent.hier != nullptr,
                   "route references a non-hierarchical core");
    CASBUS_REQUIRE(route.top_wire_of_child_wire.size() ==
                       parent.hier->bus->width(),
                   "route must map every child-bus wire");
    route_of[route.top_core] = &route;
    const tam::CasBehavior& cas = bus.cas(parent.cas_index);
    top_codes[parent.cas_index] = cas.isa().encode(
        SwitchScheme(route.top_wire_of_child_wire, width));
    child_codes[route.top_core].assign(parent.hier->bus->size(),
                                       InstructionSet::kBypassCode);
  }

  for (const ScanTarget& target : session.targets) {
    CoreInstance& inst = core_at(target.core);
    const auto& chains = inst.as_scan().synth().chains;
    CASBUS_REQUIRE(target.wire_of_chain.size() == chains.size(),
                   "scan target must assign every chain: " + inst.name);
    if (!target.core.child.has_value()) {
      const tam::CasBehavior& cas = bus.cas(inst.cas_index);
      top_codes[inst.cas_index] =
          cas.isa().encode(SwitchScheme(target.wire_of_chain, width));
    } else {
      const auto it = route_of.find(target.core.top);
      CASBUS_REQUIRE(it != route_of.end(),
                     "child target without a hierarchy route: " + inst.name);
      const HierarchyRoute& route = *it->second;
      // Translate top wires into child-bus wires.
      std::vector<unsigned> child_wires;
      for (const unsigned top_wire : target.wire_of_chain) {
        const auto pos =
            std::find(route.top_wire_of_child_wire.begin(),
                      route.top_wire_of_child_wire.end(), top_wire);
        CASBUS_REQUIRE(pos != route.top_wire_of_child_wire.end(),
                       "target wire is not routed into the child bus");
        child_wires.push_back(static_cast<unsigned>(
            pos - route.top_wire_of_child_wire.begin()));
      }
      CoreInstance& parent = soc_.cores().at(target.core.top);
      const tam::CasBehavior& ccas =
          parent.hier->bus->cas(inst.cas_index);
      child_codes[target.core.top][inst.cas_index] = ccas.isa().encode(
          SwitchScheme(child_wires, parent.hier->bus->width()));
    }
  }

  // Joined BIST engines: each claims one wire for its start/verdict
  // handshake, which must not collide with any scan assignment.
  for (const BistJoin& join : session.bist) {
    CoreInstance& inst = soc_.cores().at(join.core);
    CASBUS_REQUIRE(inst.kind == CoreKind::Bist ||
                       inst.kind == CoreKind::Memory,
                   "BistJoin on a core without embedded BIST: " + inst.name);
    CASBUS_REQUIRE(join.wire < width, "BistJoin wire out of range");
    for (const ScanTarget& target : session.targets)
      for (const unsigned w : target.wire_of_chain)
        CASBUS_REQUIRE(w != join.wire,
                       "BistJoin wire collides with a scan assignment");
    top_codes[inst.cas_index] = bus.cas(inst.cas_index)
                                    .isa()
                                    .encode(SwitchScheme({join.wire}, width));
  }

  // --- 2. Program CASes (top first so child streams can tunnel) ------------
  result.configure_cycles += configure_bus(top_codes);
  for (const auto& [top_core, codes] : child_codes) {
    const HierarchyRoute& route = *route_of[top_core];
    result.configure_cycles += configure_child_bus(
        top_core, route.top_wire_of_child_wire[0], codes);
  }

  // --- 3. Wrapper instructions via the serial ring --------------------------
  std::map<CoreRef, std::size_t> ring_pos;
  {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < soc_.core_count(); ++i) {
      const CoreInstance& inst = soc_.cores()[i];
      if (inst.hier != nullptr) {
        for (std::size_t c = 0; c < inst.hier->children.size(); ++c)
          ring_pos[CoreRef{i, c}] = pos++;
      } else {
        ring_pos[CoreRef{i, std::nullopt}] = pos++;
      }
    }
  }
  std::vector<p1500::WrapperInstr> instrs(soc_.wrapper_ring().size(),
                                          p1500::WrapperInstr::Bypass);
  for (const ScanTarget& target : session.targets)
    instrs.at(ring_pos.at(target.core)) =
        p1500::WrapperInstr::IntestParallel;
  for (const BistJoin& join : session.bist)
    instrs.at(ring_pos.at(CoreRef{join.core, std::nullopt})) =
        p1500::WrapperInstr::Bist;
  result.configure_cycles += load_wrapper_instructions(instrs);

  // --- 4. Build per-wire composite chains (physical bus order) -------------
  std::vector<std::vector<Segment>> wire_segments(width);
  const auto add_segments = [&](const CoreRef& ref) {
    for (std::size_t t = 0; t < session.targets.size(); ++t) {
      const ScanTarget& target = session.targets[t];
      if (!(target.core == ref)) continue;
      const auto& chains = core_at(ref).as_scan().synth().chains;
      for (std::size_t c = 0; c < chains.size(); ++c) {
        const unsigned w = target.wire_of_chain[c];
        CASBUS_REQUIRE(w < width, "chain assigned beyond bus width");
        wire_segments[w].push_back(Segment{t, c, chains[c].size()});
      }
    }
  };
  for (std::size_t i = 0; i < soc_.core_count(); ++i) {
    const CoreInstance& inst = soc_.cores()[i];
    if (inst.hier != nullptr) {
      for (std::size_t c = 0; c < inst.hier->children.size(); ++c)
        add_segments(CoreRef{i, c});
    } else if (inst.kind == CoreKind::Scan ||
               inst.kind == CoreKind::External) {
      add_segments(CoreRef{i, std::nullopt});
    }
  }

  std::size_t max_len = 0;
  std::vector<std::size_t> wire_len(width, 0);
  for (unsigned w = 0; w < width; ++w) {
    for (const Segment& s : wire_segments[w]) wire_len[w] += s.length;
    max_len = std::max(max_len, wire_len[w]);
  }

  // --- 5. Golden models ------------------------------------------------------
  std::size_t max_patterns = 0;
  for (const ScanTarget& target : session.targets) {
    max_patterns = std::max(max_patterns, target.patterns.size());
    // Create the simulator and its response cache up front (serially):
    // the precompute below then only touches per-core state.
    (void)golden_for(target.core);
    golden_cache_[target.core];
    CASBUS_REQUIRE(
        target.patterns.empty() ||
            target.patterns.width() == synth_of(target.core).spec.n_flipflops,
        "scan patterns must have one bit per flip-flop");
  }

  // Precompute every golden response of the session. The good machine is
  // read-only, so responses depend only on (core, pattern) — memoised in
  // golden_cache_ across sessions — and target cores shard cleanly across
  // options_.sim_threads workers (each core's engine and cache are touched
  // by exactly one worker; results are identical for any thread count).
  std::vector<std::vector<const BitVector*>> expected_all(
      session.targets.size());
  {
    const auto precompute_start = std::chrono::steady_clock::now();
    std::map<CoreRef, std::vector<std::size_t>> targets_of_core;
    for (std::size_t t = 0; t < session.targets.size(); ++t)
      targets_of_core[session.targets[t].core].push_back(t);
    std::vector<std::vector<std::size_t>> shards;
    shards.reserve(targets_of_core.size());
    for (auto& [core, ts] : targets_of_core) shards.push_back(ts);

    const auto run_shard = [&](const std::vector<std::size_t>& ts) {
      for (const std::size_t t : ts)
        expected_all[t] = expected_responses(session.targets[t].core,
                                             session.targets[t].patterns);
    };

    std::size_t workers = options_.sim_threads;
    if (workers == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      workers = hw == 0 ? 1 : hw;
    }
    workers = std::min(workers, shards.size());
    if (workers <= 1) {
      for (const auto& shard : shards) run_shard(shard);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::exception_ptr> errors(workers);
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          try {
            for (std::size_t i = next.fetch_add(1); i < shards.size();
                 i = next.fetch_add(1))
              run_shard(shards[i]);
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
      for (std::thread& th : pool) th.join();
      for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
    }
    precompute_seconds_ += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               precompute_start)
                               .count();
  }

  result.targets.resize(session.targets.size());
  for (std::size_t t = 0; t < session.targets.size(); ++t)
    result.targets[t].core = session.targets[t].core;

  // Expected captured state per target for the pattern currently loaded.
  std::vector<std::optional<BitVector>> expected(session.targets.size());

  // --- 6. Interleaved load/capture/unload loop ------------------------------
  sim::Simulation& sim = soc_.simulation();
  const std::uint64_t test_start = sim.cycle();

  // Launch joined BIST engines: hold the start level for the whole
  // session (the scan loop never touches their wires).
  for (const BistJoin& join : session.bist)
    bus.head()[join.wire].set(true);

  // Per-wire stimulus stream for round r: padding then reversed composite.
  const auto build_stream = [&](unsigned w, std::size_t round) {
    BitVector stream(max_len, false);
    std::size_t pos = max_len;  // fill composite reversed at the tail
    // Composite order: segments in bus order, chain order si->so. Position
    // p gets stream bit (max_len - 1 - p).
    std::size_t base = 0;
    for (const Segment& seg : wire_segments[w]) {
      const ScanTarget& target = session.targets[seg.target_index];
      const auto& chains = synth_of(target.core).chains;
      for (std::size_t q = 0; q < seg.length; ++q) {
        const std::size_t p = base + q;  // composite position
        bool bit = false;
        if (round < target.patterns.size())
          bit = target.patterns.at(round).get(chains[seg.chain][q]);
        stream.set(max_len - 1 - p, bit);
      }
      base += seg.length;
    }
    (void)pos;
    return stream;
  };

  for (std::size_t round = 0; round <= max_patterns; ++round) {
    const bool loading = round < max_patterns;
    const bool unloading = round > 0;

    // Shift phase.
    soc_.wsc().shift_wr->set(true);
    std::vector<BitVector> streams(width);
    for (unsigned w = 0; w < width; ++w)
      if (!wire_segments[w].empty())
        streams[w] = loading ? build_stream(w, round) : BitVector(max_len);

    std::vector<BitVector> unloaded(width);
    for (std::size_t s = 0; s < max_len; ++s) {
      for (unsigned w = 0; w < width; ++w) {
        if (wire_segments[w].empty()) continue;
        bus.head()[w].set(streams[w].get(s));
      }
      sim.settle();
      if (unloading) {
        for (unsigned w = 0; w < width; ++w) {
          if (wire_segments[w].empty()) continue;
          if (s < wire_len[w])
            unloaded[w].push_back(bus.tail()[w].get() == Logic4::One);
        }
      }
      sim.step();
    }
    soc_.wsc().shift_wr->set(false);

    // Check unloaded responses of the previous pattern.
    if (unloading) {
      const std::size_t prev = round - 1;
      for (unsigned w = 0; w < width; ++w) {
        std::size_t base = 0;
        for (const Segment& seg : wire_segments[w]) {
          const ScanTarget& target = session.targets[seg.target_index];
          ScanTargetResult& tr = result.targets[seg.target_index];
          const auto& chains = synth_of(target.core).chains;
          if (prev < target.patterns.size() &&
              expected[seg.target_index].has_value()) {
            const tpg::SyntheticCore& sc = synth_of(target.core);
            const BitVector& exp = *expected[seg.target_index];
            // Response layout of the golden model: po outputs, then the
            // so scan-out ports, then flip-flop next-states.
            const std::size_t ff_base =
                sc.spec.n_outputs + sc.spec.n_chains;
            for (std::size_t q = 0; q < seg.length; ++q) {
              const std::size_t p = base + q;
              // Unload bit s showed composite position L-1-s.
              const bool got = unloaded[w].get(wire_len[w] - 1 - p);
              const bool want = exp.get(ff_base + chains[seg.chain][q]);
              ++tr.response_bits;
              if (got != want) {
                ++tr.mismatches;
                if (tr.diagnoses.size() < ScanTargetResult::kMaxDiagnoses)
                  tr.diagnoses.push_back(ScanDiagnosis{
                      prev, seg.chain, q, chains[seg.chain][q]});
              }
            }
          }
          base += seg.length;
        }
      }
    }

    // Capture phase (loads pattern `round` into every target).
    if (loading) {
      soc_.wsc().capture_wr->set(true);
      sim.step();
      soc_.wsc().capture_wr->set(false);
      for (std::size_t t = 0; t < session.targets.size(); ++t) {
        const ScanTarget& target = session.targets[t];
        if (round < target.patterns.size()) {
          expected[t] = *expected_all[t][round];
          ++result.targets[t].patterns_applied;
        } else {
          expected[t].reset();
        }
      }
    }
  }

  // Wait out joined BIST engines that outlive the scan phase, then sample
  // the verdicts on their wires. Non-waiting joins keep running (and keep
  // their start level asserted) into the next session.
  bool any_wait = false;
  std::uint64_t longest = 0;
  for (const BistJoin& join : session.bist) {
    if (!join.wait) continue;
    any_wait = true;
    longest = std::max(longest, join.cycles + 2);
  }
  if (any_wait) {
    const std::uint64_t elapsed = sim.cycle() - test_start;
    if (elapsed < longest) sim.step(longest - elapsed);
    sim.settle();
    for (const BistJoin& join : session.bist) {
      if (!join.wait) continue;
      result.bist_pass.push_back(bus.tail()[join.wire].get() ==
                                 Logic4::One);
      bus.head()[join.wire].set(false);
    }
  }

  result.test_cycles = sim.cycle() - test_start;
  return result;
}

BistRunResult SocTester::run_bist(std::size_t core, unsigned wire,
                                  std::uint64_t cycles) {
  BistRunResult result;
  CoreInstance& inst = soc_.cores().at(core);
  CASBUS_REQUIRE(inst.kind == CoreKind::Bist ||
                     inst.kind == CoreKind::Memory,
                 "run_bist: core has no embedded BIST: " + inst.name);
  tam::CasBusChain& bus = soc_.bus();

  // CAS: route the chosen wire to port 0 of the target, bypass elsewhere.
  std::vector<std::uint64_t> codes(bus.size(),
                                   InstructionSet::kBypassCode);
  codes[inst.cas_index] = bus.cas(inst.cas_index)
                              .isa()
                              .encode(SwitchScheme({wire}, bus.width()));
  result.configure_cycles += configure_bus(codes);

  // Wrapper: Bist on the target, Bypass elsewhere.
  std::vector<p1500::WrapperInstr> instrs(soc_.wrapper_ring().size(),
                                          p1500::WrapperInstr::Bypass);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < soc_.core_count(); ++i) {
    const CoreInstance& c = soc_.cores()[i];
    if (c.hier != nullptr) {
      pos += c.hier->children.size();
      continue;
    }
    if (i == core) instrs.at(pos) = p1500::WrapperInstr::Bist;
    ++pos;
  }
  result.configure_cycles += load_wrapper_instructions(instrs);

  // Hold the start level on the wire for the whole session, then sample
  // the verdict flowing back on the same wire (paper Fig. 2b: P = 1).
  sim::Simulation& sim = soc_.simulation();
  const std::uint64_t start_cycle = sim.cycle();
  bus.head()[wire].set(true);
  sim.step(cycles + 2);  // +2: start edge registration and verdict settle
  sim.settle();
  result.completed = true;
  result.pass = bus.tail()[wire].get() == Logic4::One;
  bus.head()[wire].set(false);
  result.test_cycles = sim.cycle() - start_cycle;
  return result;
}

ExtestResult SocTester::run_extest(std::size_t vectors,
                                   std::uint64_t seed) {
  ExtestResult result;
  Interconnect* fabric = soc_.interconnect();
  CASBUS_REQUIRE(fabric != nullptr,
                 "run_extest: the SoC declares no interconnect");
  const auto& ring = soc_.wrapper_ring();
  sim::Simulation& sim = soc_.simulation();
  const std::uint64_t start_cycle = sim.cycle();

  result.connections = fabric->connections().size();
  result.vectors = vectors;

  // Boundary-register composite layout over the serial ring: per wrapper,
  // input cells then output cells (the wrapper's serial order).
  struct Span {
    std::size_t in_base = 0;
    std::size_t out_base = 0;
  };
  std::vector<Span> spans(ring.size());
  std::size_t total_bits = 0;
  for (std::size_t w = 0; w < ring.size(); ++w) {
    spans[w].in_base = total_bits;
    spans[w].out_base = total_bits + ring[w]->input_cell_count();
    total_bits +=
        ring[w]->input_cell_count() + ring[w]->output_cell_count();
  }
  CASBUS_REQUIRE(total_bits > 0, "run_extest: no boundary cells");

  // Ring position of each top-level core (EXTEST works on the top level;
  // children share the ring but have no top-level interconnect).
  std::vector<std::size_t> ring_of_core(soc_.core_count(), SIZE_MAX);
  {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < soc_.core_count(); ++i) {
      const CoreInstance& inst = soc_.cores()[i];
      if (inst.hier != nullptr) {
        pos += inst.hier->children.size();
      } else {
        ring_of_core[i] = pos++;
      }
    }
  }

  load_all_wrappers(p1500::WrapperInstr::Extest);

  Rng rng(seed);
  std::vector<bool> failed(result.connections, false);

  for (std::size_t v = 0; v < vectors; ++v) {
    // Random stimulus per boundary output cell.
    BitVector composite(total_bits);
    for (std::size_t b = 0; b < total_bits; ++b)
      composite.set(b, rng.coin());

    // Load: stream bit t lands at composite position T-1-t.
    soc_.wsc().shift_wr->set(true);
    for (std::size_t t = 0; t < total_bits; ++t) {
      soc_.wsi_pin().set(composite.get(total_bits - 1 - t));
      sim.step();
    }
    soc_.wsc().shift_wr->set(false);

    // Apply stimulus and capture the interconnect's response.
    soc_.wsc().update_wr->set(true);
    sim.step();
    soc_.wsc().update_wr->set(false);
    sim.settle();
    soc_.wsc().capture_wr->set(true);
    sim.step();
    soc_.wsc().capture_wr->set(false);

    // Unload and compare at the destination input cells.
    BitVector unloaded(total_bits);
    soc_.wsc().shift_wr->set(true);
    for (std::size_t t = 0; t < total_bits; ++t) {
      sim.settle();
      unloaded.set(total_bits - 1 - t,
                   soc_.wso_pin().get() == Logic4::One);
      soc_.wsi_pin().set(false);
      sim.step();
    }
    soc_.wsc().shift_wr->set(false);

    for (std::size_t c = 0; c < fabric->connections().size(); ++c) {
      const Connection& conn = fabric->connections()[c];
      const std::size_t src_ring = ring_of_core.at(conn.from_core);
      const std::size_t dst_ring = ring_of_core.at(conn.to_core);
      CASBUS_REQUIRE(src_ring != SIZE_MAX && dst_ring != SIZE_MAX,
                     "run_extest: hierarchical cores cannot be "
                     "interconnect endpoints");
      const bool driven =
          composite.get(spans[src_ring].out_base + conn.from_pin);
      const bool captured =
          unloaded.get(spans[dst_ring].in_base + conn.to_pin);
      if (driven != captured) failed[c] = true;
    }
  }

  for (std::size_t c = 0; c < failed.size(); ++c)
    if (failed[c]) result.failing.push_back(c);
  result.cycles = sim.cycle() - start_cycle;
  return result;
}

std::uint64_t SocTester::bus_order_key(const CoreRef& ref) const {
  const CoreInstance& top = soc_.cores().at(ref.top);
  std::uint64_t key = static_cast<std::uint64_t>(top.cas_index) << 16;
  if (ref.child.has_value())
    key |= 1ULL + top.hier->children.at(*ref.child).cas_index;
  return key;
}

void SocTester::config_shift(tam::CasBusChain& chain, sim::Wire& data_in,
                             bool bit) {
  chain.config_wire().set(true);
  data_in.set(bit);
  soc_.simulation().step();
}

}  // namespace casbus::soc
