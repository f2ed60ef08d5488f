#include "netlist/netlist.hpp"

#include <algorithm>
#include <sstream>

namespace casbus::netlist {

const char* kind_name(CellKind kind) noexcept {
  switch (kind) {
    case CellKind::Const0: return "const0";
    case CellKind::Const1: return "const1";
    case CellKind::Buf: return "buf";
    case CellKind::Not: return "not";
    case CellKind::And2: return "and2";
    case CellKind::Or2: return "or2";
    case CellKind::Nand2: return "nand2";
    case CellKind::Nor2: return "nor2";
    case CellKind::Xor2: return "xor2";
    case CellKind::Xnor2: return "xnor2";
    case CellKind::Mux2: return "mux2";
    case CellKind::Tribuf: return "tribuf";
    case CellKind::Dff: return "dff";
    case CellKind::Dffe: return "dffe";
  }
  return "?";
}

Netlist Netlist::from_raw(RawNetlist raw) {
  Netlist nl;
  nl.name_ = std::move(raw.name);
  nl.n_nets_ = raw.n_nets;
  nl.cells_ = std::move(raw.cells);
  nl.inputs_ = std::move(raw.inputs);
  nl.outputs_ = std::move(raw.outputs);
  nl.net_names_ = std::move(raw.net_names);
  nl.validate();
  return nl;
}

std::string Netlist::net_name(NetId id) const {
  for (const auto& [net, name] : net_names_)
    if (net == id) return name;
  std::ostringstream os;
  os << 'n' << id;
  return os.str();
}

std::vector<CellId> Netlist::drivers_of(NetId net) const {
  std::vector<CellId> out;
  for (CellId c = 0; c < cells_.size(); ++c)
    if (cells_[c].out == net) out.push_back(c);
  return out;
}

std::vector<std::size_t> Netlist::kind_histogram() const {
  std::vector<std::size_t> h(static_cast<std::size_t>(CellKind::Dffe) + 1, 0);
  for (const Cell& c : cells_) ++h[static_cast<std::size_t>(c.kind)];
  return h;
}

std::size_t Netlist::dff_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](const Cell& c) { return is_sequential(c.kind); }));
}

RawNetlist Netlist::to_raw() const {
  RawNetlist raw;
  raw.name = name_;
  raw.n_nets = n_nets_;
  raw.cells = cells_;
  raw.inputs = inputs_;
  raw.outputs = outputs_;
  raw.net_names = net_names_;
  return raw;
}

void Netlist::validate() const {
  struct Drivers {
    int plain = 0;
    int tri = 0;
  };
  std::vector<Drivers> drivers(n_nets_);

  for (const Port& p : inputs_) {
    CASBUS_ASSERT(p.net < n_nets_, "input port references invalid net");
    ++drivers[p.net].plain;
  }
  for (const Cell& c : cells_) {
    CASBUS_ASSERT(c.out < n_nets_, "cell output references invalid net");
    const int n_in = fanin(c.kind);
    for (int i = 0; i < n_in; ++i)
      CASBUS_ASSERT(c.in[static_cast<std::size_t>(i)] < n_nets_,
                    "cell input pin dangling");
    for (int i = n_in; i < 3; ++i)
      CASBUS_ASSERT(c.in[static_cast<std::size_t>(i)] == kNoNet,
                    "cell has extra connected pins");
    if (c.kind == CellKind::Tribuf)
      ++drivers[c.out].tri;
    else
      ++drivers[c.out].plain;
  }
  for (NetId n = 0; n < n_nets_; ++n) {
    CASBUS_ASSERT(!(drivers[n].plain > 1),
                  "net has multiple non-tristate drivers");
    CASBUS_ASSERT(!(drivers[n].plain == 1 && drivers[n].tri > 0),
                  "net mixes plain and tri-state drivers");
  }
  for (const Port& p : outputs_) {
    CASBUS_ASSERT(p.net < n_nets_, "output port references invalid net");
    CASBUS_ASSERT(drivers[p.net].plain + drivers[p.net].tri > 0,
                  "output port reads an undriven net");
  }
}

}  // namespace casbus::netlist
