#include "netlist/opt.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

namespace casbus::netlist {

namespace {

struct WorkCell {
  CellKind kind;
  std::array<NetId, 3> in;
  NetId out;
  bool dead = false;
};

class Rewriter {
 public:
  explicit Rewriter(const Netlist& in) : src_(in) {
    n_nets_ = in.net_count();
    repl_.resize(n_nets_);
    for (NetId i = 0; i < n_nets_; ++i) repl_[i] = i;
    const_val_.assign(n_nets_, -1);
    for (const Cell& c : in.cells())
      cells_.push_back(WorkCell{c.kind, c.in, c.out, false});
    tri_net_.assign(n_nets_, false);
    for (const auto& c : cells_)
      if (c.kind == CellKind::Tribuf) tri_net_[c.out] = true;
  }

  /// Union-find style canonical net with path compression.
  NetId find(NetId n) {
    while (repl_[n] != n) {
      repl_[n] = repl_[repl_[n]];
      n = repl_[n];
    }
    return n;
  }

  void merge(NetId victim, NetId kept) { repl_[find(victim)] = find(kept); }

  int cval(NetId n) { return const_val_[find(n)]; }

  NetId const_net(bool v) {
    NetId& cache = v ? const1_net_ : const0_net_;
    if (cache == kNoNet) {
      cache = static_cast<NetId>(n_nets_++);
      repl_.push_back(cache);
      const_val_.push_back(v ? 1 : 0);
      tri_net_.push_back(false);
      cells_.push_back(WorkCell{v ? CellKind::Const1 : CellKind::Const0,
                                {kNoNet, kNoNet, kNoNet},
                                cache,
                                false});
    }
    return cache;
  }

  /// One constant-fold / algebraic-identity sweep. Returns true on change.
  bool fold_pass() {
    bool changed = false;
    // Single-driver map for double-negation style rewrites.
    std::vector<CellId> only_driver(n_nets_, kNoNet);
    std::vector<int> n_drivers(n_nets_, 0);
    for (CellId i = 0; i < cells_.size(); ++i) {
      if (cells_[i].dead) continue;
      const NetId o = find(cells_[i].out);
      if (o < n_drivers.size()) {
        ++n_drivers[o];
        only_driver[o] = i;
      }
    }

    for (auto& c : cells_) {
      if (c.dead) continue;
      const int n_in = fanin(c.kind);
      std::array<NetId, 3> in = c.in;
      for (int i = 0; i < n_in; ++i)
        in[static_cast<std::size_t>(i)] = find(in[static_cast<std::size_t>(i)]);
      c.in = in;

      const auto kill_to = [&](NetId target) {
        merge(c.out, target);
        c.dead = true;
        changed = true;
      };
      const auto kill_const = [&](bool v) { kill_to(const_net(v)); };
      const auto rewrite_not = [&](NetId a) {
        c.kind = CellKind::Not;
        c.in = {a, kNoNet, kNoNet};
        changed = true;
      };

      switch (c.kind) {
        case CellKind::Const0: const_val_[find(c.out)] = 0; break;
        case CellKind::Const1: const_val_[find(c.out)] = 1; break;
        case CellKind::Buf:
          kill_to(in[0]);
          break;
        case CellKind::Not: {
          const int a = cval(in[0]);
          if (a >= 0) {
            kill_const(a == 0);
          } else {
            // not(not(x)) -> x
            const NetId src = in[0];
            if (src < only_driver.size() && n_drivers[src] == 1 &&
                only_driver[src] != kNoNet) {
              const WorkCell& d = cells_[only_driver[src]];
              if (!d.dead && d.kind == CellKind::Not) kill_to(find(d.in[0]));
            }
          }
          break;
        }
        case CellKind::And2: {
          const int a = cval(in[0]), b = cval(in[1]);
          if (a == 0 || b == 0) kill_const(false);
          else if (a == 1 && b == 1) kill_const(true);
          else if (a == 1) kill_to(in[1]);
          else if (b == 1) kill_to(in[0]);
          else if (in[0] == in[1]) kill_to(in[0]);
          break;
        }
        case CellKind::Or2: {
          const int a = cval(in[0]), b = cval(in[1]);
          if (a == 1 || b == 1) kill_const(true);
          else if (a == 0 && b == 0) kill_const(false);
          else if (a == 0) kill_to(in[1]);
          else if (b == 0) kill_to(in[0]);
          else if (in[0] == in[1]) kill_to(in[0]);
          break;
        }
        case CellKind::Nand2: {
          const int a = cval(in[0]), b = cval(in[1]);
          if (a == 0 || b == 0) kill_const(true);
          else if (a == 1 && b == 1) kill_const(false);
          else if (a == 1) rewrite_not(in[1]);
          else if (b == 1) rewrite_not(in[0]);
          else if (in[0] == in[1]) rewrite_not(in[0]);
          break;
        }
        case CellKind::Nor2: {
          const int a = cval(in[0]), b = cval(in[1]);
          if (a == 1 || b == 1) kill_const(false);
          else if (a == 0 && b == 0) kill_const(true);
          else if (a == 0) rewrite_not(in[1]);
          else if (b == 0) rewrite_not(in[0]);
          else if (in[0] == in[1]) rewrite_not(in[0]);
          break;
        }
        case CellKind::Xor2: {
          const int a = cval(in[0]), b = cval(in[1]);
          if (a >= 0 && b >= 0) kill_const(a != b);
          else if (a == 0) kill_to(in[1]);
          else if (b == 0) kill_to(in[0]);
          else if (a == 1) rewrite_not(in[1]);
          else if (b == 1) rewrite_not(in[0]);
          else if (in[0] == in[1]) kill_const(false);
          break;
        }
        case CellKind::Xnor2: {
          const int a = cval(in[0]), b = cval(in[1]);
          if (a >= 0 && b >= 0) kill_const(a == b);
          else if (a == 1) kill_to(in[1]);
          else if (b == 1) kill_to(in[0]);
          else if (a == 0) rewrite_not(in[1]);
          else if (b == 0) rewrite_not(in[0]);
          else if (in[0] == in[1]) kill_const(true);
          break;
        }
        case CellKind::Mux2: {
          const int s = cval(in[2]);
          if (s == 0) kill_to(in[0]);
          else if (s == 1) kill_to(in[1]);
          else if (in[0] == in[1]) kill_to(in[0]);
          break;
        }
        case CellKind::Tribuf: {
          // Only safe to fold when this is the sole driver of its net.
          const NetId o = find(c.out);
          if (o < n_drivers.size() && n_drivers[o] == 1) {
            const int en = cval(in[1]);
            if (en == 1) {
              c.kind = CellKind::Buf;
              c.in = {in[0], kNoNet, kNoNet};
              tri_net_[o] = false;
              changed = true;
            }
          }
          break;
        }
        case CellKind::Dff:
        case CellKind::Dffe:
          break;  // sequential cells are never folded
      }
    }
    return changed;
  }

  /// Structural CSE; commutative cells match with sorted inputs.
  bool share_pass() {
    bool changed = false;
    std::map<std::tuple<CellKind, NetId, NetId, NetId>, NetId> seen;
    for (auto& c : cells_) {
      if (c.dead || is_sequential(c.kind) || c.kind == CellKind::Tribuf)
        continue;
      const int n_in = fanin(c.kind);
      std::array<NetId, 3> in = {kNoNet, kNoNet, kNoNet};
      for (int i = 0; i < n_in; ++i)
        in[static_cast<std::size_t>(i)] = find(c.in[static_cast<std::size_t>(i)]);
      const bool commutative =
          c.kind == CellKind::And2 || c.kind == CellKind::Or2 ||
          c.kind == CellKind::Nand2 || c.kind == CellKind::Nor2 ||
          c.kind == CellKind::Xor2 || c.kind == CellKind::Xnor2;
      if (commutative && in[0] > in[1]) std::swap(in[0], in[1]);
      const auto key = std::make_tuple(c.kind, in[0], in[1], in[2]);
      const auto [it, inserted] = seen.emplace(key, find(c.out));
      if (!inserted && it->second != find(c.out)) {
        merge(c.out, it->second);
        c.dead = true;
        changed = true;
      }
    }
    return changed;
  }

  /// Drops cells whose outputs transitively reach no primary output and no
  /// live flip-flop.
  bool dce_pass() {
    std::vector<bool> live_net(n_nets_, false);
    for (const Port& p : src_.outputs()) live_net[find(p.net)] = true;

    bool grew = true;
    std::vector<bool> live_cell(cells_.size(), false);
    while (grew) {
      grew = false;
      for (CellId i = 0; i < cells_.size(); ++i) {
        const auto& c = cells_[i];
        if (c.dead || live_cell[i]) continue;
        if (!live_net[find(c.out)]) continue;
        live_cell[i] = true;
        grew = true;
        const int n_in = fanin(c.kind);
        for (int j = 0; j < n_in; ++j) {
          const NetId n = find(c.in[static_cast<std::size_t>(j)]);
          if (!live_net[n]) {
            live_net[n] = true;
          }
        }
      }
    }

    bool changed = false;
    for (CellId i = 0; i < cells_.size(); ++i) {
      if (!cells_[i].dead && !live_cell[i]) {
        cells_[i].dead = true;
        changed = true;
      }
    }
    return changed;
  }

  /// Produces the compacted result netlist.
  Netlist build(const std::string& name) {
    RawNetlist out;
    out.name = name;

    std::vector<NetId> remap(n_nets_, kNoNet);
    const auto mapped = [&](NetId n) {
      const NetId canon = find(n);
      if (remap[canon] == kNoNet)
        remap[canon] = static_cast<NetId>(out.n_nets++);
      return remap[canon];
    };

    for (const Port& p : src_.inputs())
      out.inputs.push_back(Port{p.name, mapped(p.net)});
    for (const auto& c : cells_) {
      if (c.dead) continue;
      Cell nc;
      nc.kind = c.kind;
      const int n_in = fanin(c.kind);
      for (int i = 0; i < n_in; ++i)
        nc.in[static_cast<std::size_t>(i)] =
            mapped(c.in[static_cast<std::size_t>(i)]);
      nc.out = mapped(c.out);
      out.cells.push_back(nc);
    }
    for (const Port& p : src_.outputs())
      out.outputs.push_back(Port{p.name, mapped(p.net)});

    // Preserve user-facing net names where the net survived.
    for (const auto& [net, nm] : src_.net_names()) {
      const NetId canon = find(net);
      if (canon < remap.size() && remap[canon] != kNoNet)
        out.net_names.emplace_back(remap[canon], nm);
    }
    return Netlist::from_raw(std::move(out));
  }

 private:
  const Netlist& src_;
  std::vector<WorkCell> cells_;
  std::vector<NetId> repl_;
  std::vector<int> const_val_;  // -1 unknown, 0/1 known
  std::vector<bool> tri_net_;
  std::size_t n_nets_;
  NetId const0_net_ = kNoNet;
  NetId const1_net_ = kNoNet;
};

}  // namespace

Netlist optimize(const Netlist& in) {
  constexpr int kMaxIterations = 32;
  Rewriter rw(in);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    bool changed = rw.fold_pass();
    changed |= rw.share_pass();
    changed |= rw.dce_pass();
    if (!changed) break;
  }
  return rw.build(in.name());
}

}  // namespace casbus::netlist
