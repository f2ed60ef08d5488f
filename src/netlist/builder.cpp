#include "netlist/builder.hpp"

#include <sstream>

namespace casbus::netlist {

NetlistBuilder::NetlistBuilder(std::string design_name) {
  nl_.name_ = std::move(design_name);
}

void NetlistBuilder::reserve(const Capacity& capacity) {
  nl_.cells_.reserve(capacity.cells);
  nl_.inputs_.reserve(capacity.inputs);
  nl_.outputs_.reserve(capacity.outputs);
  nl_.net_names_.reserve(capacity.named_nets);
}

NetId NetlistBuilder::net() {
  CASBUS_REQUIRE(!taken_, "NetlistBuilder used after take()");
  return static_cast<NetId>(nl_.n_nets_++);
}

NetId NetlistBuilder::net(const std::string& name) {
  const NetId id = net();
  nl_.net_names_.emplace_back(id, name);
  return id;
}

NetId NetlistBuilder::input(const std::string& name) {
  const NetId id = net(name);
  nl_.inputs_.push_back(Port{name, id});
  return id;
}

void NetlistBuilder::output(const std::string& name, NetId n) {
  CASBUS_REQUIRE(n < nl_.n_nets_, "output connected to unknown net");
  nl_.outputs_.push_back(Port{name, n});
}

NetId NetlistBuilder::add_cell(CellKind kind, NetId a, NetId b, NetId c,
                               NetId out) {
  CASBUS_REQUIRE(!taken_, "NetlistBuilder used after take()");
  Cell cell;
  cell.kind = kind;
  cell.in = {a, b, c};
  cell.out = (out == kNoNet) ? net() : out;
  nl_.cells_.push_back(cell);
  return cell.out;
}

NetId NetlistBuilder::const0() {
  if (const0_ == kNoNet) const0_ = add_cell(CellKind::Const0);
  return const0_;
}

NetId NetlistBuilder::const1() {
  if (const1_ == kNoNet) const1_ = add_cell(CellKind::Const1);
  return const1_;
}

NetId NetlistBuilder::buf(NetId a) { return add_cell(CellKind::Buf, a); }
NetId NetlistBuilder::not_(NetId a) { return add_cell(CellKind::Not, a); }
NetId NetlistBuilder::and2(NetId a, NetId b) {
  return add_cell(CellKind::And2, a, b);
}
NetId NetlistBuilder::or2(NetId a, NetId b) {
  return add_cell(CellKind::Or2, a, b);
}
NetId NetlistBuilder::nand2(NetId a, NetId b) {
  return add_cell(CellKind::Nand2, a, b);
}
NetId NetlistBuilder::nor2(NetId a, NetId b) {
  return add_cell(CellKind::Nor2, a, b);
}
NetId NetlistBuilder::xor2(NetId a, NetId b) {
  return add_cell(CellKind::Xor2, a, b);
}
NetId NetlistBuilder::xnor2(NetId a, NetId b) {
  return add_cell(CellKind::Xnor2, a, b);
}

NetId NetlistBuilder::mux2(NetId s, NetId a, NetId b) {
  return add_cell(CellKind::Mux2, a, b, s);
}

NetId NetlistBuilder::tribuf(NetId en, NetId d, NetId onto) {
  return add_cell(CellKind::Tribuf, d, en, kNoNet, onto);
}

NetId NetlistBuilder::dff(NetId d, const std::string& q_name) {
  const NetId q = q_name.empty() ? net() : net(q_name);
  add_cell(CellKind::Dff, d, kNoNet, kNoNet, q);
  return q;
}

NetId NetlistBuilder::dffe(NetId d, NetId en, const std::string& q_name) {
  const NetId q = q_name.empty() ? net() : net(q_name);
  add_cell(CellKind::Dffe, d, en, kNoNet, q);
  return q;
}

void NetlistBuilder::dff_into(NetId d, NetId q) {
  add_cell(CellKind::Dff, d, kNoNet, kNoNet, q);
}

void NetlistBuilder::dffe_into(NetId d, NetId en, NetId q) {
  add_cell(CellKind::Dffe, d, en, kNoNet, q);
}

NetId NetlistBuilder::and_n(const std::vector<NetId>& xs) {
  if (xs.empty()) return const1();
  // Balanced reduction keeps logic depth at ceil(log2 n).
  std::vector<NetId> level = xs;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(and2(level[i], level[i + 1]));
    if (level.size() % 2 != 0) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

NetId NetlistBuilder::or_n(const std::vector<NetId>& xs) {
  if (xs.empty()) return const0();
  std::vector<NetId> level = xs;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(or2(level[i], level[i + 1]));
    if (level.size() % 2 != 0) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

NetId NetlistBuilder::eq_const(const std::vector<NetId>& code,
                               std::uint64_t value) {
  CASBUS_REQUIRE(code.size() <= 64, "eq_const supports at most 64 bits");
  std::vector<NetId> literals;
  literals.reserve(code.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    const bool bit = (value >> i) & 1ULL;
    literals.push_back(bit ? code[i] : not_(code[i]));
  }
  return and_n(literals);
}

std::vector<NetId> NetlistBuilder::decoder(const std::vector<NetId>& code,
                                           std::size_t count) {
  // Complemented literals are shared across all product terms, as a PLA
  // row decoder would share its input inverters.
  std::vector<NetId> inv(code.size());
  for (std::size_t i = 0; i < code.size(); ++i) inv[i] = not_(code[i]);

  std::vector<NetId> out;
  out.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    std::vector<NetId> literals;
    literals.reserve(code.size());
    for (std::size_t i = 0; i < code.size(); ++i)
      literals.push_back(((v >> i) & 1ULL) != 0 ? code[i] : inv[i]);
    out.push_back(and_n(literals));
  }
  return out;
}

NetId NetlistBuilder::mux_n(const std::vector<NetId>& sel,
                            const std::vector<NetId>& data) {
  CASBUS_REQUIRE(!data.empty(), "mux_n requires at least one data input");
  CASBUS_REQUIRE((1ULL << sel.size()) >= data.size(),
                 "mux_n select too narrow for data count");
  // Recursive Mux2 tree on the top select bit.
  std::vector<NetId> level = data;
  for (std::size_t bit = 0; bit < sel.size(); ++bit) {
    if (level.size() == 1) break;
    std::vector<NetId> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 < level.size())
        next.push_back(mux2(sel[bit], level[i], level[i + 1]));
      else
        next.push_back(level[i]);  // out-of-range selects fold to low half
    }
    level = std::move(next);
  }
  return level[0];
}

NetId NetlistBuilder::mux_onehot(const std::vector<NetId>& onehot,
                                 const std::vector<NetId>& data) {
  CASBUS_REQUIRE(onehot.size() == data.size(),
                 "mux_onehot: select/data size mismatch");
  CASBUS_REQUIRE(!data.empty(), "mux_onehot requires at least one input");
  std::vector<NetId> terms;
  terms.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    terms.push_back(and2(onehot[i], data[i]));
  return or_n(terms);
}

std::vector<NetId> NetlistBuilder::shift_chain(NetId d, std::size_t n,
                                               const std::string& prefix) {
  std::vector<NetId> qs;
  qs.reserve(n);
  NetId prev = d;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    if (!prefix.empty()) {
      std::ostringstream os;
      os << prefix << '[' << i << ']';
      name = os.str();
    }
    prev = dff(prev, name);
    qs.push_back(prev);
  }
  return qs;
}

void NetlistBuilder::copy_cell(CellKind kind, NetId a, NetId b, NetId c,
                               NetId out) {
  CASBUS_REQUIRE(out != kNoNet && out < nl_.n_nets_,
                 "copy_cell: output must be an existing net");
  const int n_in = fanin(kind);
  const NetId pins[3] = {a, b, c};
  for (int i = 0; i < n_in; ++i)
    CASBUS_REQUIRE(pins[i] != kNoNet && pins[i] < nl_.n_nets_,
                   "copy_cell: input pin must be an existing net");
  add_cell(kind, a, b, c, out);
}

Netlist NetlistBuilder::take() {
  CASBUS_REQUIRE(!taken_, "NetlistBuilder::take called twice");
  taken_ = true;
  nl_.validate();
  return std::move(nl_);
}

}  // namespace casbus::netlist
