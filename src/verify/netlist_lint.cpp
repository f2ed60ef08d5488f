#include "verify/netlist_lint.hpp"

#include <algorithm>
#include <queue>
#include <span>
#include <sstream>
#include <unordered_map>

#include "util/csr.hpp"

namespace casbus::verify {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::fanin;
using netlist::is_sequential;
using netlist::kNoNet;
using netlist::NetId;
using netlist::Netlist;
using netlist::Port;
using netlist::RawNetlist;

namespace {

/// What the rules read of a design: views of a RawNetlist's or a validated
/// Netlist's arrays, so linting a Netlist copies nothing.
struct Design {
  std::size_t n_nets = 0;
  std::span<const Cell> cells;
  std::span<const Port> inputs;
  std::span<const Port> outputs;
  std::span<const std::pair<NetId, std::string>> net_names;

  explicit Design(const RawNetlist& raw)
      : n_nets(raw.n_nets),
        cells(raw.cells),
        inputs(raw.inputs),
        outputs(raw.outputs),
        net_names(raw.net_names) {}
  explicit Design(const Netlist& nl)
      : n_nets(nl.net_count()),
        cells(nl.cells()),
        inputs(nl.inputs()),
        outputs(nl.outputs()),
        net_names(nl.net_names()) {}
};

/// Per-design working set shared by the rule passes: driver/reader tables
/// over the well-formed subset of cells (malformed cells are reported by
/// NL000 and excluded so later passes never index out of range).
struct Tables {
  std::vector<bool> cell_ok;            ///< pins all in range
  std::vector<int> plain_drivers;       ///< per net, non-tristate
  std::vector<int> tri_drivers;         ///< per net, tristuf
  std::vector<std::size_t> reader_pins; ///< per net, cell pins + out ports
  Csr<CellId> drivers;                  ///< cells driving each net
};

std::string net_label(const Design& raw, NetId net) {
  for (const auto& [id, name] : raw.net_names)
    if (id == net) return name;
  std::ostringstream os;
  os << 'n' << net;
  return os.str();
}

Tables build_tables(const Design& raw, LintReport& report) {
  Tables t;
  const std::size_t n = raw.n_nets;
  t.cell_ok.assign(raw.cells.size(), true);
  t.plain_drivers.assign(n, 0);
  t.tri_drivers.assign(n, 0);
  t.reader_pins.assign(n, 0);

  for (CellId id = 0; id < raw.cells.size(); ++id) {
    const Cell& c = raw.cells[id];
    const int n_in = fanin(c.kind);
    bool ok = c.out < n;
    for (int i = 0; i < n_in; ++i)
      ok = ok && c.in[static_cast<std::size_t>(i)] < n;
    for (int i = n_in; i < 3; ++i)
      ok = ok && c.in[static_cast<std::size_t>(i)] == kNoNet;
    if (!ok) {
      t.cell_ok[id] = false;
      std::ostringstream os;
      os << netlist::kind_name(c.kind) << " cell " << id
         << " has an out-of-range or spare-pin connection";
      report.add(RuleId::NetlistMalformed, id, os.str());
    }
    // Register every in-range reference even for malformed cells, so one
    // NL000 does not cascade into spurious floating-input / dangling-port
    // findings on the nets the cell legitimately touches.
    if (c.out < n) {
      if (c.kind == CellKind::Tribuf)
        ++t.tri_drivers[c.out];
      else
        ++t.plain_drivers[c.out];
    }
    for (int i = 0; i < n_in; ++i) {
      const NetId in = c.in[static_cast<std::size_t>(i)];
      if (in < n) ++t.reader_pins[in];
    }
  }
  for (std::size_t p = 0; p < raw.inputs.size(); ++p) {
    if (raw.inputs[p].net >= n) {
      report.add(RuleId::NetlistMalformed, kNoObject,
                 "input port '" + raw.inputs[p].name +
                     "' references an out-of-range net");
      continue;
    }
    ++t.plain_drivers[raw.inputs[p].net];
  }
  for (std::size_t p = 0; p < raw.outputs.size(); ++p) {
    if (raw.outputs[p].net >= n) {
      report.add(RuleId::NetlistMalformed, kNoObject,
                 "output port '" + raw.outputs[p].name +
                     "' references an out-of-range net");
      continue;
    }
    ++t.reader_pins[raw.outputs[p].net];
  }
  t.drivers = Csr<CellId>::build(n, [&](auto&& emit) {
    for (CellId id = 0; id < raw.cells.size(); ++id)
      if (raw.cells[id].out < n) emit(raw.cells[id].out, id);
  });
  return t;
}

void lint_drivers(const Design& raw, const Tables& t,
                  LintReport& report) {
  for (NetId net = 0; net < raw.n_nets; ++net) {
    const int plain = t.plain_drivers[net];
    const int tri = t.tri_drivers[net];
    if (plain > 1 || (plain >= 1 && tri > 0)) {
      std::ostringstream os;
      os << "net " << net_label(raw, net) << " has " << plain
         << " plain and " << tri << " tri-state drivers";
      report.add(RuleId::NetMultiDriver, net, os.str());
    } else if (plain + tri == 0 && t.reader_pins[net] > 0) {
      // Undriven-but-read nets: cell pins are NL002; output ports NL005.
      bool read_by_cell = false;
      for (CellId id = 0; id < raw.cells.size(); ++id) {
        const Cell& c = raw.cells[id];
        const int n_in = fanin(c.kind);
        for (int i = 0; i < n_in; ++i)
          if (c.in[static_cast<std::size_t>(i)] == net) read_by_cell = true;
      }
      if (read_by_cell) {
        std::ostringstream os;
        os << "net " << net_label(raw, net)
           << " is read by cell inputs but has no driver";
        report.add(RuleId::NetFloatingInput, net, os.str());
      }
    }
  }
  for (std::size_t p = 0; p < raw.outputs.size(); ++p) {
    const Port& port = raw.outputs[p];
    if (port.net >= raw.n_nets) continue;  // reported as NL000
    if (t.plain_drivers[port.net] + t.tri_drivers[port.net] == 0) {
      std::ostringstream os;
      os << "output port '" << port.name << "' reads undriven net "
         << net_label(raw, port.net);
      report.add(RuleId::PortDangling, p, os.str());
    }
  }
}

void lint_fanout(const Design& raw, const Tables& t,
                 const NetlistLintConfig& config, LintReport& report) {
  if (config.fanout_ceiling == 0) return;
  for (NetId net = 0; net < raw.n_nets; ++net) {
    if (t.reader_pins[net] > config.fanout_ceiling) {
      std::ostringstream os;
      os << "net " << net_label(raw, net) << " fans out to "
         << t.reader_pins[net] << " pins (ceiling "
         << config.fanout_ceiling << ")";
      report.add(RuleId::NetFanout, net, os.str());
    }
  }
}

/// Kahn's algorithm over the well-formed combinational cells; returns the
/// set of cells left unplaced (non-empty exactly when a cycle exists).
std::vector<bool> unplaced_comb_cells(const Design& raw,
                                      const Tables& t) {
  std::vector<int> pending(raw.n_nets, 0);
  std::vector<int> missing(raw.cells.size(), 0);
  std::vector<bool> comb(raw.cells.size(), false);

  for (CellId id = 0; id < raw.cells.size(); ++id) {
    const Cell& c = raw.cells[id];
    if (!t.cell_ok[id] || is_sequential(c.kind)) continue;
    comb[id] = true;
    ++pending[c.out];
  }
  const Csr<CellId> readers =
      Csr<CellId>::build(raw.n_nets, [&](auto&& emit) {
        for (CellId id = 0; id < raw.cells.size(); ++id) {
          if (!comb[id]) continue;
          const Cell& c = raw.cells[id];
          for (int i = 0; i < fanin(c.kind); ++i)
            emit(c.in[static_cast<std::size_t>(i)], id);
        }
      });
  for (CellId id = 0; id < raw.cells.size(); ++id) {
    if (!comb[id]) continue;
    const Cell& c = raw.cells[id];
    const int n_in = fanin(c.kind);
    for (int i = 0; i < n_in; ++i)
      if (pending[c.in[static_cast<std::size_t>(i)]] > 0) ++missing[id];
  }

  std::queue<CellId> ready;
  for (CellId id = 0; id < raw.cells.size(); ++id)
    if (comb[id] && missing[id] == 0) ready.push(id);

  std::vector<bool> placed(raw.cells.size(), false);
  while (!ready.empty()) {
    const CellId id = ready.front();
    ready.pop();
    placed[id] = true;
    const Cell& c = raw.cells[id];
    if (--pending[c.out] == 0)
      for (const CellId r : readers[c.out])
        if (--missing[r] == 0) ready.push(r);
  }

  std::vector<bool> unplaced(raw.cells.size(), false);
  for (CellId id = 0; id < raw.cells.size(); ++id)
    unplaced[id] = comb[id] && !placed[id];
  return unplaced;
}

/// find_comb_cycle over tables already built for \p raw.
std::vector<CellId> comb_cycle(const Design& raw, const Tables& t) {
  const std::vector<bool> unplaced = unplaced_comb_cells(raw, t);

  // Every unplaced cell sits on or downstream of a cycle, and each of its
  // pending input nets is driven only by unplaced cells — so walking
  // cell -> (driver of a pending input) inside the unplaced set must
  // revisit a cell, and the walk between the two visits is a cycle.
  CellId start = static_cast<CellId>(raw.cells.size());
  for (CellId id = 0; id < raw.cells.size(); ++id)
    if (unplaced[id]) {
      start = id;
      break;
    }
  if (start == raw.cells.size()) return {};

  std::vector<CellId> path;
  std::vector<std::size_t> pos_in_path(raw.cells.size(),
                                       raw.cells.size());
  CellId cur = start;
  while (pos_in_path[cur] == raw.cells.size()) {
    pos_in_path[cur] = path.size();
    path.push_back(cur);
    const Cell& c = raw.cells[cur];
    const int n_in = fanin(c.kind);
    CellId next = static_cast<CellId>(raw.cells.size());
    for (int i = 0; i < n_in && next == raw.cells.size(); ++i)
      for (const CellId d : t.drivers[c.in[static_cast<std::size_t>(i)]])
        if (unplaced[d]) {
          next = d;
          break;
        }
    if (next == raw.cells.size()) return {};  // malformed leftover; give up
    cur = next;
  }
  // path[pos_in_path[cur]..] is the loop, discovered backwards (each step
  // walked to a *driver*); reverse so the reported order follows signal
  // flow.
  std::vector<CellId> cycle(path.begin() +
                                static_cast<std::ptrdiff_t>(pos_in_path[cur]),
                            path.end());
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
}

void lint_cycles(const Design& raw, const Tables& t,
                 LintReport& report) {
  const std::vector<CellId> cycle = comb_cycle(raw, t);
  if (cycle.empty()) return;
  std::ostringstream os;
  os << "combinational cycle of " << cycle.size() << " cells: ";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const Cell& c = raw.cells[cycle[i]];
    os << net_label(raw, c.out) << '(' << netlist::kind_name(c.kind) << ')'
       << " -> ";
  }
  os << net_label(raw, raw.cells[cycle.front()].out);
  report.add(RuleId::CombCycle, cycle.front(), os.str());
}

void lint_unreachable(const Design& raw, const Tables& t,
                      LintReport& report) {
  // Backward liveness from the primary outputs: a cell is reachable when
  // its output net transitively feeds an output port.
  std::vector<bool> net_live(raw.n_nets, false);
  std::vector<bool> cell_live(raw.cells.size(), false);
  std::queue<NetId> work;
  for (const Port& p : raw.outputs) {
    if (p.net < raw.n_nets && !net_live[p.net]) {
      net_live[p.net] = true;
      work.push(p.net);
    }
  }
  while (!work.empty()) {
    const NetId net = work.front();
    work.pop();
    for (const CellId id : t.drivers[net]) {
      if (cell_live[id]) continue;
      cell_live[id] = true;
      const Cell& c = raw.cells[id];
      const int n_in = fanin(c.kind);
      for (int i = 0; i < n_in; ++i) {
        const NetId in = c.in[static_cast<std::size_t>(i)];
        if (in >= raw.n_nets) continue;  // malformed cell, reported as NL000
        if (!net_live[in]) {
          net_live[in] = true;
          work.push(in);
        }
      }
    }
  }
  for (CellId id = 0; id < raw.cells.size(); ++id) {
    if (!t.cell_ok[id] || cell_live[id]) continue;
    const Cell& c = raw.cells[id];
    std::ostringstream os;
    os << netlist::kind_name(c.kind) << " cell " << id << " driving "
       << net_label(raw, c.out) << " reaches no primary output";
    report.add(RuleId::GateUnreachable, id, os.str());
  }
}

void lint_scan_chains(const Design& raw, const Tables& t,
                      const NetlistLintConfig& config, LintReport& report) {
  if (config.scan_chains.empty()) return;

  std::unordered_map<std::string, NetId> in_ports, out_ports;
  for (const Port& p : raw.inputs)
    if (p.net < raw.n_nets) in_ports.emplace(p.name, p.net);
  for (const Port& p : raw.outputs)
    if (p.net < raw.n_nets) out_ports.emplace(p.name, p.net);

  // Scan successor tables: a chain stage is a sequential cell whose D pin
  // reads the current net either directly or through the scan side (pin b)
  // of a mux-D scan mux.
  const auto cells_reading = [&](auto pin_of) {
    return Csr<CellId>::build(raw.n_nets, [&](auto&& emit) {
      for (CellId id = 0; id < raw.cells.size(); ++id) {
        const NetId net = pin_of(raw.cells[id]);
        if (net < raw.n_nets && raw.cells[id].out < raw.n_nets)
          emit(net, id);
      }
    });
  };
  const Csr<CellId> seq_d_readers = cells_reading([](const Cell& c) {
    return is_sequential(c.kind) ? c.in[0] : kNoNet;
  });
  const Csr<CellId> mux_b_readers = cells_reading([](const Cell& c) {
    return c.kind == CellKind::Mux2 ? c.in[1] : kNoNet;
  });

  std::vector<bool> visited(raw.cells.size(), false);
  for (std::size_t ci = 0; ci < config.scan_chains.size(); ++ci) {
    const ScanChainSpec& chain = config.scan_chains[ci];
    const auto si = in_ports.find(chain.scan_in);
    const auto so = out_ports.find(chain.scan_out);
    if (si == in_ports.end() || so == out_ports.end()) {
      report.add(RuleId::ScanChainBroken, ci,
                 "chain " + std::to_string(ci) + " ports '" + chain.scan_in +
                     "'/'" + chain.scan_out + "' missing from the design");
      continue;
    }
    NetId cur = si->second;
    bool broken = false;
    for (std::size_t step = 0; step < chain.length; ++step) {
      // Candidate next stages from the current net: its direct D-pin
      // readers, then those behind a scan mux. Exactly one must exist.
      std::size_t candidates = seq_d_readers[cur].size();
      CellId next = candidates > 0 ? seq_d_readers[cur].front() : 0;
      for (const CellId m : mux_b_readers[cur]) {
        const std::span<const CellId> behind =
            seq_d_readers[raw.cells[m].out];
        if (candidates == 0 && !behind.empty()) next = behind.front();
        candidates += behind.size();
      }
      if (candidates != 1) {
        std::ostringstream os;
        os << "chain " << ci << " ('" << chain.scan_in << "') "
           << (candidates == 0 ? "breaks" : "forks") << " after " << step
           << " of " << chain.length << " flip-flops at net "
           << net_label(raw, cur);
        report.add(RuleId::ScanChainBroken, ci, os.str());
        broken = true;
        break;
      }
      visited[next] = true;
      cur = raw.cells[next].out;
    }
    if (!broken && cur != so->second) {
      std::ostringstream os;
      os << "chain " << ci << " ends on net " << net_label(raw, cur)
         << " but port '" << chain.scan_out << "' reads "
         << net_label(raw, so->second)
         << " (length mismatch or mis-stitched tail)";
      report.add(RuleId::ScanChainBroken, ci, os.str());
    }
  }

  std::size_t orphans = 0;
  for (CellId id = 0; id < raw.cells.size(); ++id)
    if (t.cell_ok[id] && is_sequential(raw.cells[id].kind) && !visited[id])
      ++orphans;
  if (orphans > 0) {
    std::ostringstream os;
    os << orphans << " scan flip-flop(s) unreachable from any scan-in";
    report.add(RuleId::ScanChainBroken, kNoObject, os.str());
  }
}

LintReport lint_design(const Design& raw, const NetlistLintConfig& config) {
  LintReport report;
  const Tables t = build_tables(raw, report);
  lint_drivers(raw, t, report);
  lint_cycles(raw, t, report);
  if (config.check_unreachable) lint_unreachable(raw, t, report);
  lint_fanout(raw, t, config, report);
  lint_scan_chains(raw, t, config, report);
  return report;
}

}  // namespace

LintReport lint_netlist(const RawNetlist& raw,
                        const NetlistLintConfig& config) {
  return lint_design(Design(raw), config);
}

LintReport lint_netlist(const Netlist& nl, const NetlistLintConfig& config) {
  return lint_design(Design(nl), config);
}

std::vector<CellId> find_comb_cycle(const RawNetlist& raw) {
  LintReport scratch;
  const Design design(raw);
  return comb_cycle(design, build_tables(design, scratch));
}

std::string describe_comb_cycle(const Netlist& nl) {
  LintReport scratch;
  const Design design(nl);
  const std::vector<CellId> cycle =
      comb_cycle(design, build_tables(design, scratch));
  if (cycle.empty()) return {};
  std::ostringstream os;
  for (const CellId id : cycle) {
    const Cell& c = nl.cell(id);
    os << nl.net_name(c.out) << '(' << netlist::kind_name(c.kind) << ')'
       << " -> ";
  }
  os << nl.net_name(nl.cell(cycle.front()).out);
  return os.str();
}

}  // namespace casbus::verify
