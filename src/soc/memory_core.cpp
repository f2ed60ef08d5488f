#include "soc/memory_core.hpp"

#include <string>

namespace casbus::soc {

namespace {
bool hi(const sim::Wire* w) { return w != nullptr && w->get() == Logic4::One; }
}  // namespace

MemoryCore::MemoryCore(sim::Simulation& sim_ctx, std::string name,
                       std::size_t words, unsigned data_bits)
    : CoreModel(std::move(name)), data_bits_(data_bits) {
  CASBUS_REQUIRE(words >= 2, "MemoryCore: need at least 2 words");
  CASBUS_REQUIRE(data_bits >= 1 && data_bits <= 64,
                 "MemoryCore: data width must be in [1, 64]");
  addr_bits_ = 1;
  while ((std::size_t{1} << addr_bits_) < words) ++addr_bits_;
  data_mask_ = data_bits == 64 ? ~0ULL : ((1ULL << data_bits) - 1);
  mem_.assign(words, 0);

  // Functional port wires: we, addr, wdata | rdata.
  const auto wire = [&](const char* port, unsigned i) {
    return &sim_ctx.wire(this->name() + port + std::to_string(i),
                         Logic4::Zero);
  };
  term_.func_in.reserve(1 + addr_bits_ + data_bits_);
  term_.func_in.push_back(&sim_ctx.wire(this->name() + ".we", Logic4::Zero));
  for (unsigned a = 0; a < addr_bits_; ++a)
    term_.func_in.push_back(wire(".addr", a));
  for (unsigned d = 0; d < data_bits_; ++d)
    term_.func_in.push_back(wire(".wdata", d));
  term_.func_out.reserve(data_bits_);
  for (unsigned d = 0; d < data_bits_; ++d)
    term_.func_out.push_back(wire(".rdata", d));
  term_.core_clk_en = &sim_ctx.wire(this->name() + ".clk_en", Logic4::One);
  term_.bist_start =
      &sim_ctx.wire(this->name() + ".bist_start", Logic4::Zero);
  term_.bist_done = &sim_ctx.wire(this->name() + ".bist_done", Logic4::Zero);
  term_.bist_pass = &sim_ctx.wire(this->name() + ".bist_pass", Logic4::Zero);
}

std::uint64_t MemoryCore::apply_faults(std::size_t addr,
                                       std::uint64_t v) const {
  for (const StuckBit& f : faults_) {
    if (f.addr != addr) continue;
    if (f.stuck_one)
      v |= 1ULL << f.bit;
    else
      v &= ~(1ULL << f.bit);
  }
  return v;
}

void MemoryCore::write(std::size_t addr, std::uint64_t v) {
  mem_[addr] = apply_faults(addr, v & data_mask_);
}

std::uint64_t MemoryCore::read(std::size_t addr) const {
  return apply_faults(addr, mem_[addr]);
}

void MemoryCore::evaluate() {
  for (unsigned d = 0; d < data_bits_; ++d)
    term_.func_out[d]->set(((rdata_reg_ >> d) & 1ULL) != 0);
  term_.bist_done->set(done_);
  term_.bist_pass->set(done_ && pass_);
}

void MemoryCore::mbist_step() {
  // MARCH C- elements: {up w0} {up r0 w1} {up r1 w0} {down r0 w1}
  // {down r1 w0} {down r0}. One op per cycle: elements with two ops take
  // two cycles per address (modelled as op substep inside index_).
  const std::size_t n = mem_.size();
  static constexpr int kOpsPerElement[6] = {1, 2, 2, 2, 2, 1};
  const bool descending = element_ >= 3;
  const std::size_t pos = index_ / kOpsPerElement[element_];
  const std::size_t addr = descending ? (n - 1 - pos) : pos;
  const int op = static_cast<int>(index_ % kOpsPerElement[element_]);
  const std::uint64_t zeros = 0;
  const std::uint64_t ones = data_mask_;

  switch (element_) {
    case 0: write(addr, zeros); break;
    case 1:
      if (op == 0) {
        if (read(addr) != zeros) pass_ = false;
      } else {
        write(addr, ones);
      }
      break;
    case 2:
      if (op == 0) {
        if (read(addr) != ones) pass_ = false;
      } else {
        write(addr, zeros);
      }
      break;
    case 3:
      if (op == 0) {
        if (read(addr) != zeros) pass_ = false;
      } else {
        write(addr, ones);
      }
      break;
    case 4:
      if (op == 0) {
        if (read(addr) != ones) pass_ = false;
      } else {
        write(addr, zeros);
      }
      break;
    default:
      if (read(addr) != zeros) pass_ = false;
      break;
  }

  ++index_;
  if (index_ >= n * static_cast<std::size_t>(kOpsPerElement[element_])) {
    index_ = 0;
    ++element_;
    if (element_ >= 6) {
      running_ = false;
      done_ = true;
    }
  }
}

void MemoryCore::tick() {
  if (term_.core_clk_en->get() != Logic4::One) return;
  // evaluate() shows rdata_reg_, done_ and pass_.
  wake();

  const bool start = hi(term_.bist_start);
  if (start && !start_seen_ && !running_) {
    running_ = true;
    done_ = false;
    pass_ = true;
    element_ = 0;
    index_ = 0;
  }
  start_seen_ = start;

  if (running_) {
    mbist_step();
    return;  // the functional port is unavailable during MBIST
  }

  // Functional operation.
  std::size_t addr = 0;
  for (unsigned a = 0; a < addr_bits_; ++a)
    if (hi(term_.func_in[1 + a])) addr |= std::size_t{1} << a;
  if (addr >= mem_.size()) addr = mem_.size() - 1;  // clamp partial decode
  if (hi(term_.func_in[0])) {  // we
    std::uint64_t wdata = 0;
    for (unsigned d = 0; d < data_bits_; ++d)
      if (hi(term_.func_in[1 + addr_bits_ + d])) wdata |= 1ULL << d;
    write(addr, wdata);
  }
  rdata_reg_ = read(addr);
}

void MemoryCore::reset() {
  mem_.assign(mem_.size(), 0);
  running_ = false;
  done_ = false;
  pass_ = false;
  start_seen_ = false;
  element_ = 0;
  index_ = 0;
  rdata_reg_ = 0;
}

void MemoryCore::inject_stuck_bit(std::size_t addr, unsigned bit,
                                  bool stuck_one) {
  CASBUS_REQUIRE(addr < mem_.size(), "inject_stuck_bit: address range");
  CASBUS_REQUIRE(bit < data_bits_, "inject_stuck_bit: bit range");
  faults_.push_back(StuckBit{addr, bit, stuck_one});
}

}  // namespace casbus::soc
