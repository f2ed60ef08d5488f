// Fixpoint property of the event-driven kernel: after every settle(), one
// forced evaluation of every module (Simulation::evaluate_all) changes no
// wire, and a copy of the SoC run on the event-driven schedule alone stays
// wire-for-wire equal to one given that forced evaluation every cycle. A
// module that reads a wire it does not watch, or changes state its
// evaluate() reads without waking itself, breaks one or the other. The
// SoCs are random and carry every core kind — scan, external, BIST, memory
// with functional traffic, hierarchical — plus an EXTEST interconnect, and
// every test pin and out-of-band mutator is driven at random for many
// cycles, so each module's watch list and wake() paths are exercised in
// every mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "soc/soc.hpp"
#include "soc/traffic.hpp"
#include "util/rng.hpp"

namespace casbus::soc {
namespace {

tpg::SyntheticCoreSpec random_spec(Rng& rng, unsigned max_chains) {
  tpg::SyntheticCoreSpec s;
  s.n_inputs = 2 + rng.below(3);
  s.n_outputs = 2 + rng.below(3);
  s.n_flipflops = 4 + rng.below(7);
  s.n_gates = 16 + rng.below(25);
  s.n_chains = 1 + rng.below(max_chains);
  s.seed = rng.next();
  return s;
}

/// A random SoC with one core of every kind in random bus order, random
/// interconnect between the cores that have system pins, and functional
/// traffic on the memory core. Interconnect runs from earlier to later
/// cores only (a functional loop through two cores' logic may oscillate)
/// and never into the memory, whose inputs the traffic generator drives.
struct RandomSoc {
  std::unique_ptr<Soc> soc;
  std::optional<MemoryTraffic> traffic;
  /// Every pin the testbench drives — wires no module drives — with the
  /// probability of driving it high in a cycle.
  std::vector<std::pair<sim::Wire*, double>> pins;

  explicit RandomSoc(Rng& rng) {
    const unsigned width = 2 + static_cast<unsigned>(rng.below(4));
    std::vector<CoreKind> kinds = {CoreKind::Scan, CoreKind::External,
                                   CoreKind::Bist, CoreKind::Memory,
                                   CoreKind::Hierarchical};
    for (std::size_t i = kinds.size(); i > 1; --i)
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    SocBuilder b(width);
    std::size_t memory = 0;
    std::vector<std::size_t> pinned;  // cores with system-side pins
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const std::string name = "c" + std::to_string(i);
      switch (kinds[i]) {
        case CoreKind::Scan:
          b.add_scan_core(name, random_spec(rng, width));
          pinned.push_back(i);
          break;
        case CoreKind::External:
          b.add_external_core(name, random_spec(rng, 1));
          pinned.push_back(i);
          break;
        case CoreKind::Bist:
          b.add_bist_core(name, random_spec(rng, 1),
                          8 + static_cast<std::uint32_t>(rng.below(24)));
          break;
        case CoreKind::Memory:
          b.add_memory_core(name, 4 + rng.below(12), 4);
          memory = i;
          pinned.push_back(i);
          break;
        case CoreKind::Hierarchical:
          b.add_hierarchical_core(
              name, 2,
              {{"a", random_spec(rng, 2)}, {"b", random_spec(rng, 2)}});
          break;
      }
    }
    // Scan and external cores both have pins, so a pair always exists.
    std::vector<std::pair<std::size_t, std::size_t>> links;
    for (const std::size_t from : pinned)
      for (const std::size_t to : pinned)
        if (from < to && to != memory) links.emplace_back(from, to);
    // Each destination pin gets one driver: two connections into one pin
    // would be two modules driving one wire.
    std::vector<std::pair<std::size_t, std::size_t>> destinations;
    for (int k = 0; k < 3; ++k) {
      const auto [from, to] = links[rng.below(links.size())];
      const std::pair<std::size_t, std::size_t> dst(to, rng.below(2));
      if (std::find(destinations.begin(), destinations.end(), dst) !=
          destinations.end())
        continue;
      destinations.push_back(dst);
      b.connect("c" + std::to_string(from), rng.below(2),
                "c" + std::to_string(to), dst.second);
    }
    soc = b.build();
    traffic.emplace(*soc, memory, rng.next());

    tam::CasBusChain& bus = soc->bus();
    for (unsigned w = 0; w < bus.width(); ++w)
      pins.emplace_back(&bus.head()[w], 0.5);
    pins.emplace_back(&bus.config_wire(), 0.15);
    pins.emplace_back(&bus.update_wire(), 0.05);
    pins.emplace_back(soc->wsc().select_wir, 0.3);
    pins.emplace_back(soc->wsc().shift_wr, 0.5);
    pins.emplace_back(soc->wsc().capture_wr, 0.1);
    pins.emplace_back(soc->wsc().update_wr, 0.1);
    pins.emplace_back(&soc->wsi_pin(), 0.5);
    for (std::size_t i = 0; i < soc->core_count(); ++i) {
      CoreInstance& core = soc->cores()[i];
      if (core.hier != nullptr) {
        pins.emplace_back(&core.hier->bus->config_wire(), 0.15);
        pins.emplace_back(&core.hier->bus->update_wire(), 0.05);
      }
      if (i == memory) continue;
      for (std::size_t p = 0; p < core.sys_in.size(); ++p) {
        bool is_destination = false;
        for (const Connection& c : soc->interconnect()->connections())
          is_destination |= c.to_core == i && c.to_pin == p;
        if (!is_destination) pins.emplace_back(core.sys_in[p], 0.5);
      }
    }
  }
};

/// Drives two copies of one random SoC with the same random stimulus on
/// every test pin, plus occasional out-of-band mutations, for \p cycles
/// cycles. After every settle() the reference copy takes one forced
/// evaluation of every module, which must change no wire (the fixpoint
/// property), while the other copy runs on the event-driven schedule
/// alone; the two must agree on every wire. The comparison catches what
/// the forced evaluation repairs unseen: a core that missed a scan-in
/// change has the same outputs but captures stale state at the edge.
void drive_twins(std::uint64_t seed, std::uint64_t cycles) {
  Rng build_a(seed), build_b(seed);
  RandomSoc event_driven(build_a), reference(build_b);
  RandomSoc* const both[] = {&event_driven, &reference};
  Rng rng(seed * 7919 + 1);
  // Applies \p f to the same element of both copies.
  const auto each = [&](auto&& f) {
    for (RandomSoc* rs : both) f(*rs);
  };

  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    for (std::size_t k = 0; k < event_driven.pins.size(); ++k) {
      const bool high = rng.coin(event_driven.pins[k].second);
      each([&](RandomSoc& rs) { rs.pins[k].first->set(high); });
    }

    // Out-of-band mutators: each must wake the module it changes.
    if (rng.coin(0.02)) {
      const std::size_t index = rng.below(event_driven.soc->bus().size());
      const std::uint64_t code =
          rng.below(event_driven.soc->bus().cas(index).isa().m());
      each([&](RandomSoc& rs) {
        rs.soc->bus().cas(index).force_instruction(code);
      });
    }
    if (rng.coin(0.02)) {
      const std::size_t links =
          event_driven.soc->interconnect()->connections().size();
      const bool inject = rng.coin();
      const std::size_t index = rng.below(links);
      const bool one = rng.coin();
      each([&](RandomSoc& rs) {
        if (inject)
          rs.soc->interconnect()->inject_stuck(index, one);
        else
          rs.soc->interconnect()->clear_faults();
      });
    }
    if (rng.coin(0.02)) {
      for (std::size_t c = 0; c < event_driven.soc->core_count(); ++c) {
        const CoreKind kind = event_driven.soc->cores()[c].kind;
        if (kind != CoreKind::Scan && kind != CoreKind::External) continue;
        const bool force = rng.coin();
        const auto net = static_cast<netlist::NetId>(rng.below(
            event_driven.soc->cores()[c].as_scan().synth().netlist
                .net_count()));
        const Logic4 value = to_logic(rng.coin());
        each([&](RandomSoc& rs) {
          netlist::GateSim& gates = rs.soc->cores()[c].as_scan().gatesim();
          if (force)
            gates.set_force(net, value);
          else
            gates.clear_forces();
        });
      }
    }
    if (rng.coin(0.05)) {
      const bool on = rng.coin(0.7);
      each([&](RandomSoc& rs) { rs.traffic->set_enabled(on); });
    }

    each([](RandomSoc& rs) { rs.soc->simulation().settle(); });
    ASSERT_EQ(reference.soc->simulation().evaluate_all(), 0u)
        << "a forced evaluation changed wires after settle() at cycle "
        << cycle;
    ASSERT_EQ(event_driven.soc->simulation().snapshot(),
              reference.soc->simulation().snapshot())
        << "the event-driven copy diverged at cycle " << cycle;
    each([](RandomSoc& rs) { rs.soc->simulation().step(); });
  }
  // Soc::reset() restores power-up state behind the modules' backs; the
  // kernel must re-evaluate all of them, or registered outputs would keep
  // their pre-reset values.
  event_driven.soc->reset();
  EXPECT_EQ(event_driven.soc->simulation().evaluate_all(), 0u)
      << "reset() left a module unevaluated";
}

TEST(KernelFixpoint, ForcedEvaluationChangesNothingAfterSettle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    drive_twins(seed, 1500);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace casbus::soc
