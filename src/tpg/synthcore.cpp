#include "tpg/synthcore.hpp"

#include <algorithm>
#include <string>

#include "netlist/builder.hpp"
#include "util/rng.hpp"

namespace casbus::tpg {

using netlist::NetId;
using netlist::NetlistBuilder;

std::size_t SyntheticCore::max_chain_length() const {
  std::size_t m = 0;
  for (const auto& c : chains) m = std::max(m, c.size());
  return m;
}

SyntheticCore make_synthetic_core(const SyntheticCoreSpec& spec) {
  CASBUS_REQUIRE(spec.n_chains >= 1 && spec.n_chains <= spec.n_flipflops,
                 "synthetic core: n_chains must be in [1, n_flipflops]");
  CASBUS_REQUIRE(spec.n_inputs >= 1, "synthetic core needs >= 1 input");
  Rng rng(spec.seed);

  using std::to_string;
  NetlistBuilder b("score_i" + to_string(spec.n_inputs) + "_o" +
                   to_string(spec.n_outputs) + "_f" +
                   to_string(spec.n_flipflops) + "_g" +
                   to_string(spec.n_gates) + "_s" + to_string(spec.seed));
  // Cells: the cloud, a scan mux and a flip-flop per state bit, and at
  // most one output-folding XOR per cloud gate.
  b.reserve({.cells = 2 * spec.n_gates + 2 * spec.n_flipflops,
             .inputs = spec.n_inputs + 1 + spec.n_chains,
             .outputs = spec.n_outputs + spec.n_chains,
             .named_nets = spec.n_inputs + 1 + spec.n_chains +
                           spec.n_flipflops});

  // Functional and scan inputs, in the order SyntheticCore's port table
  // assumes.
  std::vector<NetId> pis;
  pis.reserve(spec.n_inputs);
  for (std::size_t i = 0; i < spec.n_inputs; ++i)
    pis.push_back(b.input("pi" + to_string(i)));
  const NetId scan_en = b.input("scan_en");
  std::vector<NetId> sis;
  sis.reserve(spec.n_chains);
  for (std::size_t c = 0; c < spec.n_chains; ++c)
    sis.push_back(b.input("si" + to_string(c)));

  // Pre-allocate flip-flop outputs so the combinational cloud can read
  // state before the flip-flops are instantiated (sequential feedback).
  std::vector<NetId> ff_q;
  ff_q.reserve(spec.n_flipflops);
  for (std::size_t f = 0; f < spec.n_flipflops; ++f)
    ff_q.push_back(b.net("ff_q" + to_string(f)));

  // Random combinational cloud over inputs + state + earlier gate outputs.
  // `consumed` tracks which pool entries feed something downstream so the
  // generator can guarantee full structural observability below.
  std::vector<NetId> pool;
  pool.reserve(pis.size() + ff_q.size() + spec.n_gates);
  pool.insert(pool.end(), pis.begin(), pis.end());
  pool.insert(pool.end(), ff_q.begin(), ff_q.end());
  std::vector<bool> consumed(pool.size(), false);
  consumed.reserve(pool.capacity());
  const auto pick = [&]() -> NetId {
    const std::size_t idx = rng.below(pool.size());
    consumed[idx] = true;
    return pool[idx];
  };
  const std::size_t cloud_base = pool.size();
  for (std::size_t g = 0; g < spec.n_gates; ++g) {
    NetId y = netlist::kNoNet;
    switch (rng.below(7)) {
      case 0: y = b.and2(pick(), pick()); break;
      case 1: y = b.or2(pick(), pick()); break;
      case 2: y = b.nand2(pick(), pick()); break;
      case 3: y = b.nor2(pick(), pick()); break;
      case 4: y = b.xor2(pick(), pick()); break;
      case 5: y = b.not_(pick()); break;
      default: y = b.mux2(pick(), pick(), pick()); break;
    }
    pool.push_back(y);
    consumed.push_back(false);
  }

  // Scan stitching: flip-flops are dealt round-robin into chains, giving
  // balanced lengths |len_i - len_j| <= 1; each D input is a scan mux
  // between functional next-state and the previous chain stage.
  SyntheticCore core;
  core.spec = spec;
  core.chains.assign(spec.n_chains, {});
  for (auto& chain : core.chains)
    chain.reserve((spec.n_flipflops + spec.n_chains - 1) / spec.n_chains);
  for (std::size_t f = 0; f < spec.n_flipflops; ++f)
    core.chains[f % spec.n_chains].push_back(f);

  // Build flip-flops in index order so GateSim's DFF order equals ours.
  std::vector<NetId> scan_d(spec.n_flipflops);
  for (std::size_t c = 0; c < spec.n_chains; ++c) {
    NetId prev = sis[c];
    for (const std::size_t f : core.chains[c]) {
      scan_d[f] = prev;
      prev = ff_q[f];
    }
  }
  for (std::size_t f = 0; f < spec.n_flipflops; ++f) {
    const NetId func_d = pick();
    const NetId d = b.mux2(scan_en, func_d, scan_d[f]);
    b.dff_into(d, ff_q[f]);
  }

  // Functional outputs: every cloud node left unconsumed is XOR-folded
  // into the primary outputs, round-robin, so no gate is structurally
  // unobservable (real cores do not ship dead logic, and fault-coverage
  // experiments need a testable circuit).
  std::vector<NetId> po_nodes;
  po_nodes.reserve(spec.n_outputs);
  for (std::size_t o = 0; o < spec.n_outputs; ++o) po_nodes.push_back(pick());
  std::size_t fold_at = 0;
  if (!po_nodes.empty()) {
    for (std::size_t idx = cloud_base; idx < pool.size(); ++idx) {
      if (consumed[idx]) continue;
      po_nodes[fold_at] = b.xor2(po_nodes[fold_at], pool[idx]);
      fold_at = (fold_at + 1) % po_nodes.size();
    }
  }
  for (std::size_t o = 0; o < spec.n_outputs; ++o)
    b.output("po" + to_string(o), po_nodes[o]);
  for (std::size_t c = 0; c < spec.n_chains; ++c) {
    CASBUS_ASSERT(!core.chains[c].empty(),
                  "round-robin stitching left an empty chain");
    b.output("so" + to_string(c), ff_q[core.chains[c].back()]);
  }

  // take() validates; the levelization takes the netlist over by move.
  core.design = netlist::levelize(b.take());
  return core;
}

}  // namespace casbus::tpg
