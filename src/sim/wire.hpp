/// \file wire.hpp
/// Combinational wires for the cycle-level simulation kernel.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "util/logic.hpp"

namespace casbus::sim {

/// A single-bit combinational net.
///
/// Wires are created and owned by a Simulation; models hold non-owning
/// pointers/references. Writing a different value schedules every module
/// that watches the wire (Module::watch) for evaluation in the current or
/// the next settle pass (delta cycle) — this is what lets combinational
/// paths thread through an arbitrary number of chained CASes within one
/// clock cycle, exactly like the physical test bus, while modules whose
/// inputs did not change are not evaluated at all. So a wire has one
/// driver: a module, which re-drives it only when evaluated, or the
/// testbench between settles.
class Wire {
 public:
  /// Current value of the net.
  [[nodiscard]] Logic4 get() const noexcept { return value_; }

  /// Drives the net; a change schedules every watching module.
  void set(Logic4 v) noexcept {
    if (v == value_) return;
    value_ = v;
    for (const DirtySet::Reader* r = readers_; r != nullptr; r = r->next)
      r->module->wake();
  }

  /// Convenience for driven levels.
  void set(bool b) noexcept { set(to_logic(b)); }

  /// Wire name as registered with the simulation (for traces/diagnostics).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Simulation;
  friend class Module;
  Wire(DirtySet* dirty, std::string name, Logic4 init)
      : dirty_(dirty), name_(std::move(name)), value_(init) {}

  DirtySet* dirty_;  // the owning Simulation's scheduler (reader storage)
  // Modules watching this wire: scheduling bookkeeping, not net state, so
  // a module may watch a wire it only reads through a const reference.
  mutable const DirtySet::Reader* readers_ = nullptr;
  std::string name_;
  Logic4 value_;
};

/// An ordered group of wires treated as a little-endian vector
/// (index 0 = bit 0). Used for the N-wire test bus and multi-bit ports.
class WireBundle {
 public:
  WireBundle() = default;
  explicit WireBundle(std::vector<Wire*> wires) : wires_(std::move(wires)) {}

  [[nodiscard]] std::size_t size() const noexcept { return wires_.size(); }
  [[nodiscard]] Wire& operator[](std::size_t i) { return *wires_.at(i); }
  [[nodiscard]] const Wire& operator[](std::size_t i) const {
    return *wires_.at(i);
  }

  /// Appends a wire at the high end.
  void push_back(Wire* w) { wires_.push_back(w); }

  /// Reads all bits; throws if any bit is not a driven 0/1.
  [[nodiscard]] std::uint64_t to_uint() const;

  /// Drives the low \p size() bits of \p v onto the bundle.
  void set_uint(std::uint64_t v);

  /// Drives every wire to the same value.
  void set_all(Logic4 v);

  /// Renders current values, bit 0 first.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Wire*> wires_;
};

}  // namespace casbus::sim
