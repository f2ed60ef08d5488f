#include "netlist/packed_gatesim.hpp"

#include <utility>

namespace casbus::netlist {

PackedGateSim::PackedGateSim(Netlist nl, EvalMode mode)
    : PackedGateSim(std::make_shared<const LevelizedNetlist>(std::move(nl)),
                    mode) {}

PackedGateSim::PackedGateSim(std::shared_ptr<const LevelizedNetlist> lev,
                             EvalMode mode)
    : lev_(std::move(lev)), mode_(mode) {
  CASBUS_REQUIRE(lev_ != nullptr, "PackedGateSim: null levelized netlist");
  net_val_.assign(nl().net_count(), kWordAllX);
  input_val_.assign(nl().inputs().size(), kWordAllX);
  dff_state_.assign(lev_->dff_cells().size(), kWordAllZero);
  if (mode_ == EvalMode::EventDriven) prepare_event_state();
}

void PackedGateSim::set_mode(EvalMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // The next eval() runs one priming sweep; incremental state built under
  // the old mode is stale either way.
  state_valid_ = false;
  if (mode_ == EvalMode::EventDriven) prepare_event_state();
}

void PackedGateSim::prepare_event_state() {
  if (!cell_out_.empty()) return;  // already allocated
  cell_out_.assign(nl().cell_count(), kWordAllX);
  cell_dirty_.assign(nl().cell_count(), 0);
  level_bucket_.assign(lev_->depth() + 1, {});
  net_touched_.assign(nl().net_count(), 0);
  // Seed-source maps mirror the sweep's seeding order: inputs overwrite
  // the tri/X default, DFF outputs overwrite inputs; within each group a
  // later index wins (same as the sweep's overwrite loop).
  seed_input_.assign(nl().net_count(), 0);
  seed_dff_.assign(nl().net_count(), 0);
  for (std::size_t i = 0; i < nl().inputs().size(); ++i)
    seed_input_[nl().inputs()[i].net] = static_cast<std::uint32_t>(i) + 1;
  const auto& dffs = lev_->dff_cells();
  for (std::size_t i = 0; i < dffs.size(); ++i)
    seed_dff_[nl().cell(dffs[i]).out] = static_cast<std::uint32_t>(i) + 1;
}

void PackedGateSim::touch(NetId net) {
  if (net_touched_.empty() || net_touched_[net]) return;
  net_touched_[net] = 1;
  touched_.push_back(net);
}

void PackedGateSim::reset(Logic4 state) {
  dff_state_.assign(lev_->dff_cells().size(), word_broadcast(state));
  input_val_.assign(nl().inputs().size(), kWordAllX);
  net_val_.assign(nl().net_count(), kWordAllX);
  state_valid_ = false;
}

void PackedGateSim::set_input(const std::string& name, Logic64 v) {
  set_input_index(lev_->input_index(name), v);
}

void PackedGateSim::set_input_index(std::size_t index, Logic64 v) {
  CASBUS_REQUIRE(index < input_val_.size(), "input index out of range");
  if (input_val_[index] == v) return;
  input_val_[index] = v;
  touch(nl().inputs()[index].net);
}

void PackedGateSim::set_input_lane(std::size_t index, unsigned lane,
                                   Logic4 v) {
  CASBUS_REQUIRE(index < input_val_.size(), "input index out of range");
  CASBUS_REQUIRE(lane < kLanes, "input lane out of range");
  set_input_index(index, word_set_lane(input_val_[index], lane, v));
}

Logic64 PackedGateSim::eval_cell(const Cell& c) const {
  const auto in = [&](int i) {
    return net_val_[c.in[static_cast<std::size_t>(i)]];
  };
  switch (c.kind) {
    case CellKind::Const0: return kWordAllZero;
    case CellKind::Const1: return kWordAllOne;
    case CellKind::Buf: return word_buf(in(0));
    case CellKind::Not: return word_not(in(0));
    case CellKind::And2: return word_and(in(0), in(1));
    case CellKind::Or2: return word_or(in(0), in(1));
    case CellKind::Nand2: return word_not(word_and(in(0), in(1)));
    case CellKind::Nor2: return word_not(word_or(in(0), in(1)));
    case CellKind::Xor2: return word_xor(in(0), in(1));
    case CellKind::Xnor2: return word_xnor(in(0), in(1));
    case CellKind::Mux2: return word_mux(in(2), in(0), in(1));
    case CellKind::Tribuf: return word_tribuf(in(1), in(0));
    case CellKind::Dff:
    case CellKind::Dffe: break;  // handled in tick()
  }
  CASBUS_ASSERT(false, "eval_cell on sequential cell");
  return kWordAllX;
}

void PackedGateSim::eval() {
  ++stats_.eval_passes;
  stats_.sweep_cell_evals += lev_->comb_order().size();
  if (mode_ == EvalMode::EventDriven && state_valid_) {
    eval_event();
    return;
  }
  eval_full_sweep();
}

void PackedGateSim::eval_full_sweep() {
  // Seed source nets exactly as the scalar simulator does, lane-wise:
  // tri-state nets start at Z, everything else at X, then primary inputs
  // and DFF outputs overwrite their nets and forces overwrite their lanes.
  const auto& dffs = lev_->dff_cells();
  for (NetId n = 0; n < net_val_.size(); ++n)
    net_val_[n] = lev_->net_is_tri(n) ? kWordAllZ : kWordAllX;
  for (std::size_t i = 0; i < nl().inputs().size(); ++i)
    net_val_[nl().inputs()[i].net] = input_val_[i];
  for (std::size_t i = 0; i < dffs.size(); ++i)
    net_val_[nl().cell(dffs[i]).out] = dff_state_[i];

  for (const NetId n : forced_)
    net_val_[n] = word_blend(net_val_[n], force_val_[n], force_mask_[n]);

  const bool caching = mode_ == EvalMode::EventDriven;
  for (const CellId id : lev_->comb_order()) {
    const Cell& c = nl().cell(id);
    Logic64 v = eval_cell(c);
    // The event path rebuilds nets from raw driver outputs, so the cache
    // holds the pre-resolve, pre-force value.
    if (caching) cell_out_[id] = v;
    if (lev_->net_is_tri(c.out)) v = word_resolve(net_val_[c.out], v);
    // Stuck lanes stay stuck: the forced value wins over the driver.
    if (has_forces() && force_on_[c.out])
      v = word_blend(v, force_val_[c.out], force_mask_[c.out]);
    net_val_[c.out] = v;
  }
  stats_.cell_evals += lev_->comb_order().size();

  // A sweep makes every cached value coherent; pending touches are moot.
  for (const NetId n : touched_) net_touched_[n] = 0;
  touched_.clear();
  state_valid_ = caching;
}

Logic64 PackedGateSim::recompute_net(NetId net) const {
  const std::span<const CellId> drivers = lev_->comb_drivers(net);
  Logic64 v;
  if (!lev_->net_is_tri(net) && !drivers.empty()) {
    // Single combinational driver (validate() forbids non-Tribuf sharing);
    // its output overwrites any seed, exactly as in the sweep.
    v = cell_out_[drivers.front()];
  } else {
    if (seed_dff_[net] != 0) {
      v = dff_state_[seed_dff_[net] - 1];
    } else if (seed_input_[net] != 0) {
      v = input_val_[seed_input_[net] - 1];
    } else {
      v = lev_->net_is_tri(net) ? kWordAllZ : kWordAllX;
    }
    // Wired resolution is a commutative OR of planes, so folding cached
    // driver outputs in any order matches the sweep byte-for-byte.
    for (const CellId d : drivers) v = word_resolve(v, cell_out_[d]);
  }
  if (!force_on_.empty() && force_on_[net])
    v = word_blend(v, force_val_[net], force_mask_[net]);
  return v;
}

void PackedGateSim::schedule_readers(NetId net) {
  for (const CellId r : lev_->readers(net)) {
    if (cell_dirty_[r]) continue;
    cell_dirty_[r] = 1;
    level_bucket_[lev_->cell_level(r)].push_back(r);
  }
}

void PackedGateSim::eval_event() {
  // Re-derive every touched source net; changed ones dirty their readers.
  for (const NetId n : touched_) {
    net_touched_[n] = 0;
    const Logic64 v = recompute_net(n);
    if (v != net_val_[n]) {
      net_val_[n] = v;
      schedule_readers(n);
    }
  }
  touched_.clear();

  // Flood levels in ascending order. A reader's level is strictly above
  // every driver of its input nets (LevelizedNetlist::cell_level), so a
  // cell is evaluated at most once per pass, after all its inputs settled.
  for (std::size_t lvl = 1; lvl < level_bucket_.size(); ++lvl) {
    std::vector<CellId>& bucket = level_bucket_[lvl];
    // schedule_readers only appends to strictly higher buckets, so plain
    // index iteration is safe even though the vector family is growing.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const CellId id = bucket[i];
      cell_dirty_[id] = 0;
      const Logic64 out = eval_cell(nl().cell(id));
      ++stats_.cell_evals;
      if (out == cell_out_[id]) continue;
      cell_out_[id] = out;
      const NetId n = nl().cell(id).out;
      const Logic64 v = recompute_net(n);
      if (v != net_val_[n]) {
        net_val_[n] = v;
        schedule_readers(n);
      }
    }
    bucket.clear();
  }
}

void PackedGateSim::set_force(NetId net, Logic4 v, std::uint64_t lane_mask) {
  CASBUS_REQUIRE(net < nl().net_count(), "set_force: invalid net");
  if (force_on_.empty()) {
    force_on_.assign(nl().net_count(), false);
    force_val_.assign(nl().net_count(), kWordAllX);
    force_mask_.assign(nl().net_count(), 0);
  }
  if (!force_on_[net]) forced_.push_back(net);
  force_on_[net] = true;
  force_val_[net] = word_blend(force_val_[net], word_broadcast(v), lane_mask);
  force_mask_[net] |= lane_mask;
  touch(net);
}

void PackedGateSim::clear_forces() {
  for (const NetId n : forced_) {
    force_on_[n] = false;
    force_mask_[n] = 0;
    touch(n);
  }
  forced_.clear();
}

void PackedGateSim::tick() {
  const auto& dffs = lev_->dff_cells();
  std::vector<Logic64> next(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const Cell& c = nl().cell(dffs[i]);
    const Logic64 d = net_val_[c.in[0]];
    if (c.kind == CellKind::Dff) {
      next[i] = word_dff_capture(d);
    } else {  // Dffe: capture where en=1, hold where en=0, X elsewhere
      const Logic64 en = net_val_[c.in[1]];
      const std::uint64_t e1 = word_is1(en);
      const std::uint64_t e0 = word_is0(en);
      const Logic64 cap = word_dff_capture(d);
      next[i] = {(e1 & cap.p0) | (e0 & dff_state_[i].p0) | ~(e0 | e1),
                 (e1 & cap.p1) | (e0 & dff_state_[i].p1) | ~(e0 | e1)};
    }
    if (!(next[i] == dff_state_[i])) touch(c.out);
  }
  dff_state_ = std::move(next);
  eval();
}

Logic64 PackedGateSim::output(const std::string& name) const {
  return net_val_[nl().outputs()[lev_->output_index(name)].net];
}

Logic64 PackedGateSim::output_index(std::size_t index) const {
  CASBUS_REQUIRE(index < nl().outputs().size(), "output index out of range");
  return net_val_[nl().outputs()[index].net];
}

void PackedGateSim::set_dff_state(std::size_t i, Logic64 v) {
  CASBUS_REQUIRE(i < dff_state_.size(), "dff index out of range");
  if (dff_state_[i] == v) return;
  dff_state_[i] = v;
  touch(nl().cell(lev_->dff_cells()[i]).out);
}

void PackedGateSim::set_dff_lane(std::size_t i, unsigned lane, Logic4 v) {
  CASBUS_REQUIRE(i < dff_state_.size(), "dff index out of range");
  CASBUS_REQUIRE(lane < kLanes, "dff lane out of range");
  set_dff_state(i, word_set_lane(dff_state_[i], lane, v));
}

}  // namespace casbus::netlist
