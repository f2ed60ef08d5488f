#include "soc/traffic.hpp"

namespace casbus::soc {

MemoryTraffic::MemoryTraffic(Soc& soc, std::size_t core_index,
                             std::uint64_t seed)
    : sim::Module(soc.cores().at(core_index).name + ".traffic"),
      inst_(soc.cores().at(core_index)),
      rng_(seed) {
  const MemoryCore& mem = inst_.as_memory();
  addr_bits_ = mem.addr_bits();
  data_bits_ = mem.data_bits();
  words_ = mem.words();
  soc.simulation().add(this);
}

void MemoryTraffic::evaluate() {
  // sys_in layout matches MemoryCore: [we, addr..., wdata...].
  if (!op_valid_) {
    inst_.sys_in[0]->set(false);
    return;
  }
  inst_.sys_in[0]->set(op_we_);
  for (unsigned a = 0; a < addr_bits_; ++a)
    inst_.sys_in[1 + a]->set(((op_addr_ >> a) & 1u) != 0);
  for (unsigned d = 0; d < data_bits_; ++d)
    inst_.sys_in[1 + addr_bits_ + d]->set(((op_wdata_ >> d) & 1ULL) != 0);
}

void MemoryTraffic::tick() {
  // 1. A read issued at tick t is latched by the memory at t+1 and visible
  //    on sys_out during cycle t+2 — a two-stage pipeline.
  if (pending_stage_ == 1) {
    pending_stage_ = 0;
    const auto it = mirror_.find(pending_addr_);
    if (it != mirror_.end()) {
      std::uint64_t got = 0;
      for (unsigned d = 0; d < data_bits_; ++d)
        if (inst_.sys_out[d]->get() == Logic4::One) got |= 1ULL << d;
      ++checked_;
      if (got != it->second) ++mismatches_;
    }
  } else if (pending_stage_ == 2) {
    pending_stage_ = 1;
  }

  // 2. Issue the next operation. While a read is in flight the port idles
  //    so the response cannot be disturbed by a same-address write.
  if (op_valid_ || enabled_) wake();  // evaluate() drives the operation
  op_valid_ = enabled_;
  op_we_ = false;
  if (!enabled_ || pending_stage_ != 0) return;
  ++ops_;
  op_addr_ = static_cast<std::size_t>(rng_.below(words_));
  const bool do_write = mirror_.empty() || rng_.coin(0.5);
  if (do_write) {
    op_we_ = true;
    op_wdata_ = rng_.next() & ((data_bits_ == 64)
                                   ? ~0ULL
                                   : ((1ULL << data_bits_) - 1));
    mirror_[op_addr_] = op_wdata_;
  } else {
    pending_stage_ = 2;
    pending_addr_ = op_addr_;
  }
}

void MemoryTraffic::reset() {
  mirror_.clear();
  op_valid_ = false;
  pending_stage_ = 0;
  ops_ = checked_ = mismatches_ = 0;
}

}  // namespace casbus::soc
