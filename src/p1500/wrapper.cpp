#include "p1500/wrapper.hpp"

#include "util/error.hpp"

namespace casbus::p1500 {

namespace {

/// Control/data wires are read 2-valued at the behavioral level: Z/X count
/// as low. (The gate-level CAS model in src/core keeps full 4-state
/// semantics; the wrapper is deliberately a cycle-true behavioral model.)
bool hi(const sim::Wire* w) { return w != nullptr && w->get() == Logic4::One; }

WrapperInstr decode_instr(std::uint64_t code) {
  if (code > static_cast<std::uint64_t>(WrapperInstr::Bist))
    return WrapperInstr::Bypass;  // unknown opcodes fall back to bypass
  return static_cast<WrapperInstr>(code);
}

}  // namespace

Wrapper::Wrapper(sim::Simulation& sim_ctx, std::string name,
                 FunctionalPorts func, CoreTestPorts core, TamPorts tam,
                 WscWires wsc)
    : sim::Module(std::move(name)),
      func_(std::move(func)),
      core_(std::move(core)),
      tam_(std::move(tam)),
      wsc_(std::move(wsc)) {
  (void)sim_ctx;  // wires are owned by the simulation; kept for symmetry
  CASBUS_REQUIRE(func_.sys_in.size() == func_.core_in.size(),
                 "wrapper: sys_in/core_in size mismatch");
  CASBUS_REQUIRE(func_.sys_out.size() == func_.core_out.size(),
                 "wrapper: sys_out/core_out size mismatch");
  CASBUS_REQUIRE(core_.scan_in.size() == core_.scan_out.size(),
                 "wrapper: scan_in/scan_out size mismatch");
  CASBUS_REQUIRE(tam_.wsi != nullptr && tam_.wso != nullptr,
                 "wrapper: serial port is mandatory");
  CASBUS_REQUIRE(wsc_.select_wir != nullptr && wsc_.shift_wr != nullptr &&
                     wsc_.capture_wr != nullptr && wsc_.update_wr != nullptr,
                 "wrapper: WSC wires are mandatory");
  in_cells_.resize(func_.sys_in.size());
  out_cells_.resize(func_.sys_out.size());
  // Every wire evaluate() reads; update_wr is read by tick() only.
  watch(wsc_.select_wir);
  watch(wsc_.shift_wr);
  watch(wsc_.capture_wr);
  watch(tam_.wsi);
  watch(tam_.wpi);
  watch(func_.sys_in);
  watch(func_.core_out);
  watch(core_.scan_out);
  watch(core_.bist_done);
  watch(core_.bist_pass);
}

bool Wrapper::selecting_wir() const { return hi(wsc_.select_wir); }

Logic4 Wrapper::serial_path_tail() const {
  // End of the serial data path for boundary-register instructions.
  const bool with_chains = instr_ == WrapperInstr::IntestSerial;
  if (!out_cells_.empty())
    return to_logic(out_cells_.back().shift_stage);
  if (with_chains && !core_.scan_out.empty())
    return core_.scan_out.back()->get();
  if (!in_cells_.empty()) return to_logic(in_cells_.back().shift_stage);
  return tam_.wsi->get();
}

void Wrapper::evaluate() {
  // While the WIR is selected, the data registers (and with them the
  // core's scan chains) are decoupled from the serial controls.
  const bool wir_path = selecting_wir();
  const bool shifting = hi(wsc_.shift_wr) && !wir_path;
  const bool capturing = hi(wsc_.capture_wr) && !wir_path;
  const bool intest = instr_ == WrapperInstr::IntestSerial ||
                      instr_ == WrapperInstr::IntestParallel;
  const bool functional =
      instr_ == WrapperInstr::Bypass || instr_ == WrapperInstr::Preload;

  // Core-side controls.
  if (core_.scan_en != nullptr) core_.scan_en->set(intest && shifting);
  if (core_.core_clk_en != nullptr) {
    bool clk_en = false;
    if (functional || instr_ == WrapperInstr::Bist) clk_en = true;
    if (intest && (shifting || capturing)) clk_en = true;
    core_.core_clk_en->set(clk_en);
  }
  if (core_.bist_start != nullptr) {
    const bool start = instr_ == WrapperInstr::Bist && !tam_.wpi.empty() &&
                       hi(tam_.wpi[0]);
    core_.bist_start->set(start);
  }

  // Functional terminals through the boundary cells.
  for (std::size_t i = 0; i < func_.core_in.size(); ++i) {
    if (functional)
      func_.core_in[i]->set(func_.sys_in[i]->get());
    else
      func_.core_in[i]->set(to_logic(in_cells_[i].update_stage));
  }
  for (std::size_t i = 0; i < func_.sys_out.size(); ++i) {
    if (functional)
      func_.sys_out[i]->set(func_.core_out[i]->get());
    else
      func_.sys_out[i]->set(to_logic(out_cells_[i].update_stage));
  }

  // Scan-chain sources.
  for (std::size_t c = 0; c < core_.scan_in.size(); ++c) {
    Logic4 v = Logic4::Zero;
    if (instr_ == WrapperInstr::IntestParallel) {
      v = c < tam_.wpi.size() ? tam_.wpi[c]->get() : Logic4::Zero;
    } else if (instr_ == WrapperInstr::IntestSerial) {
      if (c == 0)
        v = in_cells_.empty() ? tam_.wsi->get()
                              : to_logic(in_cells_.back().shift_stage);
      else
        v = core_.scan_out[c - 1]->get();
    }
    core_.scan_in[c]->set(v);
  }

  // Parallel outputs mirror the core's observation points.
  for (std::size_t c = 0; c < tam_.wpo.size(); ++c) {
    if (instr_ == WrapperInstr::Bist && core_.bist_done != nullptr) {
      // BIST cores: WPO0 reports done ? pass : 0 (paper Fig. 2b, P = 1).
      const bool done = hi(core_.bist_done);
      const bool pass = hi(core_.bist_pass);
      tam_.wpo[c]->set(done && pass);
    } else if (c < core_.scan_out.size()) {
      tam_.wpo[c]->set(core_.scan_out[c]->get());
    } else {
      tam_.wpo[c]->set(false);
    }
  }

  // Serial output.
  Logic4 wso = Logic4::Zero;
  if (selecting_wir()) {
    wso = to_logic(wir_shift_.get(wir_shift_.size() - 1));
  } else {
    switch (instr_) {
      case WrapperInstr::Bypass:
      case WrapperInstr::IntestParallel:
      case WrapperInstr::Bist:
        wso = to_logic(wby_);
        break;
      case WrapperInstr::Preload:
      case WrapperInstr::Extest:
      case WrapperInstr::IntestSerial:
        wso = serial_path_tail();
        break;
    }
  }
  tam_.wso->set(wso);
}

void Wrapper::tick() {
  const bool shifting = hi(wsc_.shift_wr);
  const bool capturing = hi(wsc_.capture_wr);
  const bool updating = hi(wsc_.update_wr);
  const bool wsi = hi(tam_.wsi);
  // Registers change only under a shift, capture or update strobe.
  if (!shifting && !capturing && !updating) return;
  wake();

  if (selecting_wir()) {
    // Hardware ordering: the update stage captures the shift stage's
    // pre-clock value (both stages share the clock edge).
    if (updating) instr_ = decode_instr(wir_shift_.to_uint());
    if (shifting) wir_shift_.shift_in(wsi);
    return;
  }

  switch (instr_) {
    case WrapperInstr::Bypass:
    case WrapperInstr::IntestParallel:
    case WrapperInstr::Bist:
      if (shifting) wby_ = wsi;
      break;
    case WrapperInstr::Preload:
    case WrapperInstr::Extest:
    case WrapperInstr::IntestSerial: {
      // Update first: the update latches capture the shift stages'
      // pre-clock values, as the flip-flop hardware does.
      if (updating) {
        for (auto& cell : in_cells_) cell.update_stage = cell.shift_stage;
        for (auto& cell : out_cells_) cell.update_stage = cell.shift_stage;
      }
      if (capturing) {
        if (instr_ == WrapperInstr::Extest) {
          for (std::size_t i = 0; i < in_cells_.size(); ++i)
            in_cells_[i].shift_stage = hi(func_.sys_in[i]);
        } else if (instr_ == WrapperInstr::IntestSerial) {
          for (std::size_t i = 0; i < out_cells_.size(); ++i)
            out_cells_[i].shift_stage = hi(func_.core_out[i]);
        }
      } else if (shifting) {
        // Shift one position along the serial path, using pre-tick values.
        const bool in_tail =
            in_cells_.empty() ? wsi : in_cells_.back().shift_stage;
        bool out_head = in_tail;
        if (instr_ == WrapperInstr::IntestSerial &&
            !core_.scan_out.empty()) {
          // Chains sit between input and output cells; the core shifts them
          // itself under scan_en, so our out-cell head is the last chain's
          // current scan-out.
          out_head = hi(core_.scan_out.back());
        }
        for (std::size_t i = out_cells_.size(); i-- > 1;)
          out_cells_[i].shift_stage = out_cells_[i - 1].shift_stage;
        if (!out_cells_.empty()) out_cells_[0].shift_stage = out_head;
        for (std::size_t i = in_cells_.size(); i-- > 1;)
          in_cells_[i].shift_stage = in_cells_[i - 1].shift_stage;
        if (!in_cells_.empty()) in_cells_[0].shift_stage = wsi;
      }
      break;
    }
  }
}

void Wrapper::reset() {
  wir_shift_ = BitVector(kWirBits);
  instr_ = WrapperInstr::Bypass;
  wby_ = false;
  for (auto& cell : in_cells_) cell = BoundaryCell{};
  for (auto& cell : out_cells_) cell = BoundaryCell{};
}

std::size_t Wrapper::serial_length(WrapperInstr instr) const {
  switch (instr) {
    case WrapperInstr::Bypass:
    case WrapperInstr::IntestParallel:
    case WrapperInstr::Bist:
      return 1;  // WBY
    case WrapperInstr::Preload:
    case WrapperInstr::Extest:
      return in_cells_.size() + out_cells_.size();
    case WrapperInstr::IntestSerial: {
      std::size_t chain_bits = 0;
      for (const std::size_t len : core_.chain_lengths) chain_bits += len;
      return in_cells_.size() + chain_bits + out_cells_.size();
    }
  }
  return 0;
}

}  // namespace casbus::p1500
