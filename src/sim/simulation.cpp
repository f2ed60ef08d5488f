#include "sim/simulation.hpp"

#include <bit>
#include <sstream>

#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace casbus::sim {

std::uint64_t WireBundle::to_uint() const {
  CASBUS_REQUIRE(wires_.size() <= 64, "WireBundle::to_uint needs <= 64 bits");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < wires_.size(); ++i)
    if (to_bool(wires_[i]->get())) v |= 1ULL << i;
  return v;
}

void WireBundle::set_uint(std::uint64_t v) {
  CASBUS_REQUIRE(wires_.size() <= 64, "WireBundle::set_uint needs <= 64 bits");
  for (std::size_t i = 0; i < wires_.size(); ++i)
    wires_[i]->set(to_logic((v >> i) & 1ULL));
}

void WireBundle::set_all(Logic4 v) {
  for (Wire* w : wires_) w->set(v);
}

std::string WireBundle::to_string() const {
  std::string s;
  s.reserve(wires_.size());
  for (const Wire* w : wires_) s.push_back(to_char(w->get()));
  return s;
}

Wire& Simulation::wire(std::string name, Logic4 init) {
  wires_.emplace_back(Wire(&dirty_, std::move(name), init));
  return wires_.back();
}

void Module::watch(const Wire& w) {
  DirtySet& set = *w.dirty_;
  set.readers_.push_back(DirtySet::Reader{this, w.readers_});
  w.readers_ = &set.readers_.back();
}

void Module::watch(const WireBundle& bundle) {
  for (std::size_t i = 0; i < bundle.size(); ++i) watch(bundle[i]);
}

WireBundle Simulation::bundle(const std::string& base, std::size_t n,
                              Logic4 init) {
  WireBundle b;
  for (std::size_t i = 0; i < n; ++i)
    b.push_back(&wire(base + '[' + std::to_string(i) + ']', init));
  return b;
}

void Simulation::add(Module* m) {
  CASBUS_REQUIRE(m != nullptr, "Simulation::add: null module");
  CASBUS_REQUIRE(m->dirty_ == nullptr,
                 "Simulation::add: module already registered: " + m->name());
  m->dirty_ = &dirty_;
  m->index_ = static_cast<std::uint32_t>(modules_.size());
  modules_.push_back(m);
  dirty_.bits_.resize((modules_.size() + 63) / 64, 0);
  m->wake();
}

void Simulation::reset() {
  cycle_ = 0;
  for (Module* m : modules_) {
    m->reset();
    m->wake();
  }
}

void Simulation::settle() {
  std::vector<std::uint64_t>& bits = dirty_.bits_;
  last_passes_ = 0;
  while (dirty_.pending_ != 0) {
    if (last_passes_ == max_delta_) {
      std::ostringstream os;
      os << "combinational loop: simulation did not settle within "
         << max_delta_ << " delta cycles at cycle " << cycle_;
      throw SimulationError(os.str());
    }
    ++last_passes_;
    ++stats_.passes;
    // One pass: scheduled modules in registration order. A module that
    // an evaluation schedules further down is taken in this pass (the
    // scan has not reached it); one at or above the scan position waits
    // for the next pass.
    std::size_t word = 0;
    std::uint64_t from = ~std::uint64_t{0};  // bits of `word` still ahead
    while (dirty_.pending_ != 0 && word < bits.size()) {
      const std::uint64_t ahead = bits[word] & from;
      if (ahead == 0) {
        ++word;
        from = ~std::uint64_t{0};
        continue;
      }
      const unsigned bit = static_cast<unsigned>(std::countr_zero(ahead));
      bits[word] &= ~(std::uint64_t{1} << bit);
      --dirty_.pending_;
      from = bit == 63 ? 0 : ~std::uint64_t{0} << (bit + 1);
      ++stats_.evals;
      modules_[(word << 6) | bit]->evaluate();
    }
  }
}

std::size_t Simulation::evaluate_all() {
  const std::vector<Logic4> before = snapshot();
  for (Module* m : modules_) m->evaluate();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < wires_.size(); ++i)
    changed += wires_[i].get() != before[i] ? 1 : 0;
  return changed;
}

std::vector<Logic4> Simulation::snapshot() const {
  std::vector<Logic4> values;
  values.reserve(wires_.size());
  for (const Wire& w : wires_) values.push_back(w.get());
  return values;
}

void Simulation::step(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    settle();
    if (vcd_ != nullptr) vcd_->sample(cycle_);
    for (Module* m : modules_) m->tick();
    ++cycle_;
  }
}

}  // namespace casbus::sim
