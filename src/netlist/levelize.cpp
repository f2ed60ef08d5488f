#include "netlist/levelize.hpp"

#include <algorithm>
#include <utility>

// Deliberate upward dependency (cpp-only, no header cycle), following the
// sched -> explore precedent in sched/scheduler.cpp: when levelization
// fails, the error should name the nets on the offending loop, and the
// cycle extractor lives in the verification layer. The casbus library is a
// single archive; if netlist ever needs to stand alone, this reporter call
// is the one seam to cut.
#include "util/csr.hpp"
#include "verify/netlist_lint.hpp"

namespace casbus::netlist {

CombOrder order_comb_cells(std::size_t n_nets, std::span<const Cell> cells,
                           const std::vector<bool>& usable) {
  const auto takes_part = [&](CellId id) {
    return !is_sequential(cells[id].kind) && (usable.empty() || usable[id]);
  };
  const auto n_cells = static_cast<CellId>(cells.size());

  // One scratch buffer: per net, its combinational drivers not yet placed
  // and its level; per cell, its input pins whose net is not ready yet.
  std::vector<std::uint32_t> scratch(2 * n_nets + cells.size(), 0);
  const std::span<std::uint32_t> pending_drivers(scratch.data(), n_nets);
  const std::span<std::uint32_t> net_level(scratch.data() + n_nets, n_nets);
  const std::span<std::uint32_t> cell_missing(scratch.data() + 2 * n_nets,
                                              cells.size());

  for (CellId id = 0; id < n_cells; ++id)
    if (takes_part(id)) ++pending_drivers[cells[id].out];
  const auto readers = Csr<CellId>::build(n_nets, [&](auto&& emit) {
    for (CellId id = 0; id < n_cells; ++id) {
      if (!takes_part(id)) continue;
      const Cell& c = cells[id];
      for (int i = 0; i < fanin(c.kind); ++i)
        emit(c.in[static_cast<std::size_t>(i)], id);
    }
  });

  // Ready cells are appended to the order, which doubles as the FIFO work
  // queue.
  CombOrder result;
  result.order.reserve(cells.size());
  for (CellId id = 0; id < n_cells; ++id) {
    if (!takes_part(id)) continue;
    const Cell& c = cells[id];
    std::uint32_t missing = 0;
    for (int i = 0; i < fanin(c.kind); ++i)
      if (pending_drivers[c.in[static_cast<std::size_t>(i)]] > 0) ++missing;
    cell_missing[id] = missing;
    if (missing == 0) result.order.push_back(id);
  }

  for (std::size_t head = 0; head < result.order.size(); ++head) {
    const Cell& c = cells[result.order[head]];
    std::uint32_t lvl = 0;
    for (int i = 0; i < fanin(c.kind); ++i)
      lvl = std::max(lvl, net_level[c.in[static_cast<std::size_t>(i)]]);
    // A cell sits one level above its deepest input net.
    const std::uint32_t level = lvl + 1;
    result.depth = std::max<std::size_t>(result.depth, level);
    net_level[c.out] = std::max(net_level[c.out], level);
    if (--pending_drivers[c.out] == 0)
      for (const CellId r : readers[c.out])
        if (--cell_missing[r] == 0) result.order.push_back(r);
  }
  return result;
}

LevelizedNetlist::LevelizedNetlist(Netlist nl) : nl_(std::move(nl)) {
  net_is_tri_.assign(nl_.net_count(), false);
  dff_cells_.reserve(nl_.dff_count());
  std::size_t comb_cells = 0;
  for (CellId id = 0; id < nl_.cell_count(); ++id) {
    const Cell& c = nl_.cells()[id];
    if (c.kind == CellKind::Tribuf) net_is_tri_[c.out] = true;
    if (is_sequential(c.kind))
      dff_cells_.push_back(id);
    else
      ++comb_cells;
  }

  CombOrder comb = order_comb_cells(nl_.net_count(), nl_.cells());
  if (comb.order.size() != comb_cells) {
    std::string what = "combinational cycle in netlist '" + nl_.name() +
                       "': " + std::to_string(comb_cells - comb.order.size()) +
                       " cells unplaceable";
    const std::string cycle = verify::describe_comb_cycle(nl_);
    if (!cycle.empty()) what += "; " + cycle;
    throw SimulationError(what);
  }
  comb_order_ = std::move(comb.order);
  depth_ = comb.depth;
}

namespace {

std::size_t port_index(const std::vector<Port>& ports,
                       const std::string& name, const char* what) {
  for (std::size_t i = 0; i < ports.size(); ++i)
    if (ports[i].name == name) return i;
  CASBUS_REQUIRE(false, std::string("unknown primary ") + what + ": " + name);
  return 0;  // unreachable
}

}  // namespace

std::size_t LevelizedNetlist::input_index(const std::string& name) const {
  return port_index(nl_.inputs(), name, "input");
}

std::size_t LevelizedNetlist::output_index(const std::string& name) const {
  return port_index(nl_.outputs(), name, "output");
}

std::shared_ptr<const LevelizedNetlist> levelize(Netlist nl) {
  return std::make_shared<const LevelizedNetlist>(std::move(nl));
}

}  // namespace casbus::netlist
