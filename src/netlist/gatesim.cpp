#include "netlist/gatesim.hpp"

#include <array>
#include <utility>

namespace casbus::netlist {

GateSim::GateSim(Netlist nl)
    : GateSim(std::make_shared<const LevelizedNetlist>(std::move(nl))) {}

GateSim::GateSim(std::shared_ptr<const LevelizedNetlist> lev)
    : lev_(std::move(lev)) {
  CASBUS_REQUIRE(lev_ != nullptr, "GateSim: null levelized netlist");
  const auto pad = static_cast<NetId>(nl().net_count());
  ops_.reserve(lev_->comb_order().size());
  for (const CellId id : lev_->comb_order()) {
    const Cell& c = nl().cell(id);
    Op op{c.kind, lev_->net_is_tri(c.out), {pad, pad, pad}, c.out};
    for (int i = 0; i < fanin(c.kind); ++i)
      op.in[static_cast<std::size_t>(i)] = c.in[static_cast<std::size_t>(i)];
    ops_.push_back(op);
  }
  seed_.assign(nl().net_count() + 1, Logic4::X);  // + the pad net
  for (NetId n = 0; n < nl().net_count(); ++n)
    if (lev_->net_is_tri(n)) seed_[n] = Logic4::Z;
  input_net_.reserve(nl().inputs().size());
  for (const Port& p : nl().inputs()) input_net_.push_back(p.net);
  flops_.reserve(lev_->dff_cells().size());
  dff_out_.reserve(lev_->dff_cells().size());
  for (const CellId id : lev_->dff_cells()) {
    const Cell& c = nl().cell(id);
    flops_.push_back(
        Flop{c.in[0], c.kind == CellKind::Dffe ? c.in[1] : kNoNet});
    dff_out_.push_back(c.out);
  }
  output_net_.reserve(nl().outputs().size());
  for (const Port& p : nl().outputs()) output_net_.push_back(p.net);

  net_val_.assign(seed_.size(), Logic4::X);
  input_val_.assign(nl().inputs().size(), Logic4::X);
  dff_state_.assign(lev_->dff_cells().size(), Logic4::Zero);
}

void GateSim::reset(Logic4 state) {
  dff_state_.assign(lev_->dff_cells().size(), state);
  input_val_.assign(nl().inputs().size(), Logic4::X);
  net_val_.assign(seed_.size(), Logic4::X);
  dirty_ = true;
}

void GateSim::set_input(const std::string& name, Logic4 v) {
  set_input_index(lev_->input_index(name), v);
}

void GateSim::set_input_index(std::size_t index, Logic4 v) {
  CASBUS_REQUIRE(index < input_val_.size(), "input index out of range");
  if (input_val_[index] == v) return;
  input_val_[index] = v;
  dirty_ = true;
}

namespace {

/// The output of combinational cell \p kind for inputs (a, b, c) in pin
/// order, from the util/logic.hpp operators.
constexpr Logic4 cell_output(CellKind kind, Logic4 a, Logic4 b,
                             Logic4 c) noexcept {
  switch (kind) {
    case CellKind::Const0: return Logic4::Zero;
    case CellKind::Const1: return Logic4::One;
    case CellKind::Buf: return is01(a) ? a : Logic4::X;
    case CellKind::Not: return logic_not(a);
    case CellKind::And2: return logic_and(a, b);
    case CellKind::Or2: return logic_or(a, b);
    case CellKind::Nand2: return logic_not(logic_and(a, b));
    case CellKind::Nor2: return logic_not(logic_or(a, b));
    case CellKind::Xor2: return logic_xor(a, b);
    case CellKind::Xnor2: return logic_not(logic_xor(a, b));
    case CellKind::Mux2: return logic_mux(c, a, b);
    case CellKind::Tribuf: return logic_tribuf(b, a);
    case CellKind::Dff:
    case CellKind::Dffe: break;  // sequential: handled in capture()
  }
  return Logic4::X;
}

/// Every cell kind as a 64-entry truth table over its three input values,
/// indexed by (a << 4) | (b << 2) | c. The sweep then evaluates any cell
/// with one lookup and no branch on its kind; pins a kind does not have
/// read a pad net, and their table entries ignore it.
using CellTable = std::array<Logic4, 64>;
constexpr std::size_t kCellKinds =
    static_cast<std::size_t>(CellKind::Dffe) + 1;

constexpr std::array<CellTable, kCellKinds> make_cell_tables() {
  std::array<CellTable, kCellKinds> tables{};
  for (std::size_t k = 0; k < kCellKinds; ++k)
    for (unsigned i = 0; i < 64; ++i)
      tables[k][i] = cell_output(static_cast<CellKind>(k),
                                 static_cast<Logic4>(i >> 4),
                                 static_cast<Logic4>((i >> 2) & 3u),
                                 static_cast<Logic4>(i & 3u));
  return tables;
}

constexpr std::array<CellTable, kCellKinds> kCellTables = make_cell_tables();

}  // namespace

void GateSim::eval() {
  if (!dirty_) {
    ++sweeps_.skipped;
    return;
  }
  dirty_ = false;
  ++sweeps_.run;

  // Seed source nets: primary inputs and DFF outputs; tri-state nets start
  // at Z and accumulate driver resolution; everything else gets X until its
  // single driver is evaluated.
  net_val_ = seed_;
  for (std::size_t i = 0; i < input_net_.size(); ++i)
    net_val_[input_net_[i]] = input_val_[i];
  for (std::size_t i = 0; i < dff_out_.size(); ++i)
    net_val_[dff_out_[i]] = dff_state_[i];

  if (has_forces()) {
    for (NetId n = 0; n < force_on_.size(); ++n)
      if (force_on_[n]) net_val_[n] = force_[n];
  }

  const bool forces = has_forces();
  const Logic4* val = net_val_.data();
  for (const Op& op : ops_) {
    const unsigned index = (static_cast<unsigned>(val[op.in[0]]) << 4) |
                           (static_cast<unsigned>(val[op.in[1]]) << 2) |
                           static_cast<unsigned>(val[op.in[2]]);
    const Logic4 v = kCellTables[static_cast<std::size_t>(op.kind)][index];
    if (forces && force_on_[op.out]) continue;  // stuck net stays stuck
    net_val_[op.out] = op.tri ? resolve(net_val_[op.out], v) : v;
  }
}

void GateSim::set_force(NetId net, Logic4 v) {
  CASBUS_REQUIRE(net < nl().net_count(), "set_force: invalid net");
  if (force_on_.empty()) {
    force_on_.assign(nl().net_count(), false);
    force_.assign(nl().net_count(), Logic4::X);
  }
  if (!force_on_[net]) ++n_forces_;
  force_on_[net] = true;
  force_[net] = v;
  dirty_ = true;
}

void GateSim::clear_forces() {
  if (n_forces_ == 0) return;
  force_on_.assign(nl().net_count(), false);
  n_forces_ = 0;
  dirty_ = true;
}

void GateSim::tick() {
  capture();
  eval();
}

void GateSim::capture() {
  // Every flip-flop captures from the settled nets, which capture() does
  // not touch, and its own old state: updating in place is simultaneous.
  const Logic4* val = net_val_.data();
  bool changed = false;
  for (std::size_t i = 0; i < flops_.size(); ++i) {
    const Flop& f = flops_[i];
    const Logic4 d = val[f.d];
    Logic4 next = is01(d) ? d : Logic4::X;
    if (f.en != kNoNet) {  // Dffe: hold on 0, unknown on X/Z
      const Logic4 en = val[f.en];
      if (en == Logic4::Zero)
        next = dff_state_[i];
      else if (en != Logic4::One)
        next = Logic4::X;
    }
    if (next != dff_state_[i]) {
      dff_state_[i] = next;
      changed = true;
    }
  }
  if (changed) dirty_ = true;
}

Logic4 GateSim::output(const std::string& name) const {
  return output_index(lev_->output_index(name));
}

void GateSim::set_dff_state(std::size_t i, Logic4 v) {
  CASBUS_REQUIRE(i < dff_state_.size(), "dff index out of range");
  if (dff_state_[i] == v) return;
  dff_state_[i] = v;
  dirty_ = true;
}

}  // namespace casbus::netlist
