/// \file module.hpp
/// Base class for behavioral hardware models in the cycle-level kernel.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace casbus::sim {

class Module;
class Wire;
class WireBundle;

/// The settle scheduler's shared state: the set of modules that must run
/// evaluate() in the next settle, indexed by registration order, plus the
/// storage of every wire's reader list. One per Simulation; wires and
/// registered modules point at it.
class DirtySet {
  friend class Simulation;
  friend class Module;
  friend class Wire;

  /// Schedules module number \p index (idempotent).
  void mark(std::uint32_t index) noexcept {
    std::uint64_t& word = bits_[index >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    ++pending_;
  }

  /// One entry of a wire's reader list (an intrusive singly-linked list
  /// whose nodes live in readers_, so watching allocates in chunks).
  struct Reader {
    Module* module;
    const Reader* next;
  };

  std::vector<std::uint64_t> bits_;
  std::size_t pending_ = 0;  ///< set bits in bits_
  std::deque<Reader> readers_;
};

/// A behavioral hardware block with combinational and sequential behavior.
///
/// The kernel runs each clock cycle in two phases:
///   1. settle — `evaluate()` runs on every *scheduled* module, in
///      registration order, pass after pass until no module is scheduled
///      (combinational fixpoint / delta cycles). A module is scheduled when
///      a wire it watches changes value, when it wakes itself, when it is
///      registered, and on Simulation::reset();
///   2. tick — `tick()` is called once on every module; this is the rising
///      clock edge at which internal registers capture their inputs.
///
/// So `evaluate()` runs only after a watched change or a self-wake, and
/// the contract that makes that exact is:
///   - `evaluate()` must be idempotent given unchanged inputs and must only
///     derive combinational outputs from watched wires and internal
///     registered state — never update registers (C++ Core Guidelines I.1:
///     make dependencies explicit; the phase split is the contract);
///   - every wire `evaluate()` reads is declared with watch();
///   - `tick()`, `reset()` and any out-of-band mutator (a test backdoor, a
///     fault injector) that changes state `evaluate()` reads call wake().
/// Simulation::reset() wakes every module, so a reset() that only restores
/// power-up state needs no wake() of its own.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Derives combinational outputs from current wire values and state.
  virtual void evaluate() = 0;

  /// Rising clock edge: captures register next-state.
  virtual void tick() {}

  /// Asynchronous reset to power-up state.
  virtual void reset() {}

  /// Schedules evaluate() for the next settle. Cheap and idempotent; a
  /// module not yet registered is scheduled by Simulation::add anyway.
  void wake() noexcept {
    if (dirty_ != nullptr) dirty_->mark(index_);
  }

  /// Instance name (used in traces and error messages).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
  /// Declares that evaluate() reads \p w: every change of its value
  /// schedules this module. A null pointer is ignored (optional ports).
  void watch(const Wire& w);
  void watch(const Wire* w) {
    if (w != nullptr) watch(*w);
  }
  void watch(const std::vector<Wire*>& wires) {
    for (const Wire* w : wires) watch(w);
  }
  void watch(const WireBundle& bundle);

 private:
  friend class Simulation;

  std::string name_;
  DirtySet* dirty_ = nullptr;  ///< the owning simulation's, once added
  std::uint32_t index_ = 0;    ///< registration order
};

}  // namespace casbus::sim
