#include "core/cas_behavior.hpp"

#include "util/error.hpp"

namespace casbus::tam {

namespace {
bool hi(const sim::Wire* w) { return w != nullptr && w->get() == Logic4::One; }
}  // namespace

CasBehavior::CasBehavior(std::string name, CasPorts ports)
    : sim::Module(std::move(name)),
      ports_(std::move(ports)),
      isa_(static_cast<unsigned>(ports_.e.size()),
           static_cast<unsigned>(ports_.o.size())),
      shift_reg_(isa_.k()) {
  CASBUS_REQUIRE(ports_.e.size() == ports_.s.size(),
                 "CAS: e/s bundles must both have N wires");
  CASBUS_REQUIRE(ports_.o.size() == ports_.i.size(),
                 "CAS: o/i bundles must both have P wires");
  CASBUS_REQUIRE(ports_.config != nullptr && ports_.update != nullptr,
                 "CAS: config and update wires are mandatory");
  watch(ports_.e);
  watch(ports_.i);
  watch(ports_.config);  // update is read by tick() only
}

bool CasBehavior::chain_active() const {
  return hi(ports_.config) || InstructionSet::is_config(instr_);
}

void CasBehavior::evaluate() {
  const unsigned n = isa_.n();
  const unsigned p = isa_.p();

  if (chain_active()) {
    // CONFIGURATION (Fig. 4a): instruction register in the wire-0 path;
    // "the tri-stated switcher outputs and inputs are switched to high
    // impedance".
    ports_.s[0].set(to_logic(shift_reg_.get(shift_reg_.size() - 1)));
    for (unsigned w = 1; w < n; ++w) ports_.s[w].set(ports_.e[w].get());
    for (unsigned j = 0; j < p; ++j) ports_.o[j].set(Logic4::Z);
    return;
  }

  if (isa_.is_test(instr_)) {
    // TEST (Fig. 4c): route selected wires to the core, bypass the rest.
    for (unsigned w = 0; w < n; ++w) {
      const unsigned port = port_of_wire_[w];
      if (port != kNoPort)
        ports_.s[w].set(ports_.i[port].get());  // heuristic return path
      else
        ports_.s[w].set(ports_.e[w].get());
    }
    for (unsigned j = 0; j < p; ++j)
      ports_.o[j].set(ports_.e[wire_of_port_[j]].get());
    return;
  }

  // BYPASS (Fig. 4b) — also the safe fallback for invalid codes.
  for (unsigned w = 0; w < n; ++w) ports_.s[w].set(ports_.e[w].get());
  for (unsigned j = 0; j < p; ++j) ports_.o[j].set(Logic4::Z);
}

void CasBehavior::tick() {
  const bool updating = hi(ports_.update);
  if (updating) {
    // Update stage loads the shifted code; invalid codes degrade to BYPASS
    // in evaluate(), mirroring a safely-decoded hardware implementation.
    load_instruction(shift_reg_.to_uint());
    return;
  }
  if (chain_active()) {
    shift_reg_.shift_in(ports_.e[0].get() == Logic4::One);
    wake();  // s0 presents the register tail
  }
}

void CasBehavior::reset() {
  shift_reg_ = BitVector(isa_.k());
  load_instruction(InstructionSet::kBypassCode);
}

void CasBehavior::force_instruction(std::uint64_t code) {
  CASBUS_REQUIRE(isa_.is_valid(code),
                 "force_instruction: code outside instruction space");
  load_instruction(code);
}

void CasBehavior::load_instruction(std::uint64_t code) {
  instr_ = code;
  wake();
  if (!isa_.is_test(code)) return;
  wire_of_port_ = isa_.decode(code).assignment();
  port_of_wire_.assign(isa_.n(), kNoPort);
  for (unsigned j = 0; j < wire_of_port_.size(); ++j)
    port_of_wire_[wire_of_port_[j]] = j;
}

}  // namespace casbus::tam
