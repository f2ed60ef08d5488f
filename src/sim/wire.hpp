/// \file wire.hpp
/// Combinational wires for the cycle-level simulation kernel.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/logic.hpp"

namespace casbus::sim {

/// A single-bit combinational net.
///
/// Wires are created and owned by a Simulation; models hold non-owning
/// pointers/references. Writing a different value during combinational
/// settlement marks the simulation "unsettled", which triggers another
/// evaluation pass (delta cycle) — this is what lets combinational paths
/// thread through an arbitrary number of chained CASes within one clock
/// cycle, exactly like the physical test bus.
class Wire {
 public:
  /// Current value of the net.
  [[nodiscard]] Logic4 get() const noexcept { return value_; }

  /// Drives the net; records a delta event when the value changes.
  void set(Logic4 v) noexcept {
    if (v == value_) return;
    value_ = v;
    ++*changes_;
  }

  /// Convenience for driven levels.
  void set(bool b) noexcept { set(to_logic(b)); }

  /// Wire name as registered with the simulation (for traces/diagnostics).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Simulation;
  Wire(std::uint64_t* changes, std::string name, Logic4 init)
      : changes_(changes), name_(std::move(name)), value_(init) {}

  std::uint64_t* changes_;  // the owning Simulation's delta-event counter
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
