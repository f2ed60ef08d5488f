#include "tpg/fault.hpp"

#include <algorithm>
#include <utility>

namespace casbus::tpg {

using netlist::CellId;
using netlist::Netlist;

std::vector<Fault> enumerate_faults(const Netlist& nl) {
  return netlist::enumerate_stuck_at_faults(nl);
}

FaultSimulator::FaultSimulator(Netlist nl)
    : FaultSimulator(netlist::levelize(std::move(nl))) {}

FaultSimulator::FaultSimulator(
    std::shared_ptr<const netlist::LevelizedNetlist> lev,
    netlist::EvalMode mode)
    : packed_(std::move(lev), mode) {
  for (std::size_t i = 0; i < nl().inputs().size(); ++i)
    free_inputs_.push_back(i);
}

void FaultSimulator::pin_input(const std::string& name, bool value) {
  for (std::size_t i = 0; i < nl().inputs().size(); ++i) {
    if (nl().inputs()[i].name != name) continue;
    pinned_.emplace_back(i, value);
    free_inputs_.erase(
        std::remove(free_inputs_.begin(), free_inputs_.end(), i),
        free_inputs_.end());
    return;
  }
  CASBUS_REQUIRE(false, "pin_input: unknown input " + name);
}

std::size_t FaultSimulator::pattern_width() const noexcept {
  return free_inputs_.size() + dffs().size();
}

std::size_t FaultSimulator::response_width() const noexcept {
  return nl().outputs().size() + dffs().size();
}

void FaultSimulator::load_pattern(netlist::FaultSim& engine,
                                  const BitVector& pattern) const {
  CASBUS_REQUIRE(pattern.size() == pattern_width(),
                 "FaultSimulator: pattern width mismatch");
  for (const auto& [idx, val] : pinned_)
    engine.set_input_index(idx, to_logic(val));
  for (std::size_t i = 0; i < free_inputs_.size(); ++i)
    engine.set_input_index(free_inputs_[i], to_logic(pattern.get(i)));
  for (std::size_t i = 0; i < dffs().size(); ++i)
    engine.set_dff_state(i, to_logic(pattern.get(free_inputs_.size() + i)));
}

void FaultSimulator::apply_pattern(const BitVector& pattern) {
  load_pattern(packed_, pattern);
}

std::vector<int> FaultSimulator::simulate(const BitVector& pattern,
                                          const Fault* fault) {
  CASBUS_REQUIRE(pattern.size() == pattern_width(),
                 "FaultSimulator: pattern width mismatch");
  if (!scalar_.has_value()) scalar_.emplace(packed_.levelized());
  netlist::GateSim& sim = *scalar_;
  sim.clear_forces();
  if (fault != nullptr)
    sim.set_force(fault->net, to_logic(fault->stuck_one));

  for (const auto& [idx, val] : pinned_)
    sim.set_input_index(idx, to_logic(val));
  for (std::size_t i = 0; i < free_inputs_.size(); ++i)
    sim.set_input_index(free_inputs_[i], to_logic(pattern.get(i)));
  for (std::size_t i = 0; i < dffs().size(); ++i)
    sim.set_dff_state(i, to_logic(pattern.get(free_inputs_.size() + i)));

  sim.eval();

  std::vector<int> response;
  response.reserve(response_width());
  const auto push = [&](Logic4 v) {
    response.push_back(v == Logic4::Zero ? 0 : v == Logic4::One ? 1 : -1);
  };
  for (std::size_t i = 0; i < nl().outputs().size(); ++i)
    push(sim.output_index(i));
  // Flip-flop next-states: the D pin values after settling.
  for (const CellId id : dffs()) push(sim.net_value(nl().cell(id).in[0]));
  return response;
}

BitVector FaultSimulator::good_response(const BitVector& pattern) {
  const BitVector* const one[] = {&pattern};
  return std::move(good_responses(one).front());
}

std::vector<BitVector> FaultSimulator::good_responses(
    std::span<const BitVector* const> patterns) {
  // Packed path: the engine's observation order (primary outputs, then
  // DFF D pins) matches simulate()'s response layout bit for bit. The
  // scalar path survives in run_serial() as the equivalence reference.
  constexpr std::size_t kLanes = netlist::FaultSim::kBatch;
  std::vector<BitVector> out;
  out.reserve(patterns.size());
  for (std::size_t base = 0; base < patterns.size(); base += kLanes) {
    const std::span<const BitVector* const> batch =
        patterns.subspan(base, std::min(kLanes, patterns.size() - base));
    for (const BitVector* p : batch)
      CASBUS_REQUIRE(p->size() == pattern_width(),
                     "FaultSimulator: pattern width mismatch");
    // Pattern k of the batch drives lane k; idle lanes read all zeros.
    const auto lanes_of = [&](std::size_t bit) {
      std::uint64_t ones = 0;
      for (std::size_t k = 0; k < batch.size(); ++k)
        ones |= static_cast<std::uint64_t>(batch[k]->get(bit)) << k;
      return word_from_masks(~ones, ones);
    };
    for (const auto& [idx, val] : pinned_)
      packed_.set_input_index(idx, to_logic(val));
    for (std::size_t i = 0; i < free_inputs_.size(); ++i)
      packed_.set_input_index(free_inputs_[i], lanes_of(i));
    for (std::size_t i = 0; i < dffs().size(); ++i)
      packed_.set_dff_state(i, lanes_of(free_inputs_.size() + i));

    const std::vector<Logic64>& words = packed_.good_lanes();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      BitVector r(words.size());
      for (std::size_t i = 0; i < words.size(); ++i)
        r.set(i, ((word_is1(words[i]) >> k) & 1u) != 0);
      out.push_back(std::move(r));
    }
  }
  return out;
}

bool FaultSimulator::detects(const BitVector& pattern, const Fault& fault) {
  apply_pattern(pattern);
  return packed_.detect_batch(&fault, 1) != 0;
}

std::size_t FaultSimulator::grade(const BitVector& pattern,
                                  const std::vector<Fault>& faults,
                                  std::vector<bool>& detected) {
  apply_pattern(pattern);
  return packed_.detect_all(faults, detected);
}

FaultSimReport FaultSimulator::run(const PatternSet& patterns,
                                   const std::vector<Fault>& faults) {
  FaultSimReport report;
  report.total_faults = faults.size();
  report.detected_mask.assign(faults.size(), false);
  report.per_pattern.assign(patterns.size(), 0);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::size_t newly =
        grade(patterns.at(p), faults, report.detected_mask);
    report.per_pattern[p] = newly;
    report.detected += newly;
  }
  return report;
}

FaultSimReport FaultSimulator::run(const PatternSet& patterns,
                                   const std::vector<Fault>& faults,
                                   std::size_t threads) {
  netlist::FaultCampaignOptions opts;
  opts.threads = threads;
  opts.mode = packed_.mode();
  const auto loader = [this, &patterns](netlist::FaultSim& engine,
                                        std::size_t p) {
    load_pattern(engine, patterns.at(p));
  };
  const netlist::FaultCampaignReport campaign = netlist::run_fault_campaign(
      packed_.levelized(), faults, patterns.size(), loader, opts);

  FaultSimReport report;
  report.total_faults = faults.size();
  report.detected = campaign.detected_count;
  report.detected_mask.assign(faults.size(), false);
  report.per_pattern.assign(patterns.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (campaign.detected[f] == 0) continue;
    report.detected_mask[f] = true;
    ++report.per_pattern[static_cast<std::size_t>(
        campaign.first_detect_pattern[f])];
  }
  return report;
}

FaultSimReport FaultSimulator::run_serial(const PatternSet& patterns,
                                          const std::vector<Fault>& faults) {
  FaultSimReport report;
  report.total_faults = faults.size();
  report.detected_mask.assign(faults.size(), false);
  report.per_pattern.assign(patterns.size(), 0);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const BitVector& pat = patterns.at(p);
    const std::vector<int> good = simulate(pat, nullptr);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (report.detected_mask[f]) continue;  // fault dropping
      const std::vector<int> bad = simulate(pat, &faults[f]);
      for (std::size_t i = 0; i < good.size(); ++i) {
        if (good[i] >= 0 && bad[i] >= 0 && good[i] != bad[i]) {
          report.detected_mask[f] = true;
          ++report.detected;
          ++report.per_pattern[p];
          break;
        }
      }
    }
  }
  return report;
}

}  // namespace casbus::tpg
