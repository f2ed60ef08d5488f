/// \file interconnect.hpp
/// SoC functional interconnect between wrapped cores, testable via the
/// wrappers' EXTEST mode.
///
/// The paper's Fig. 1 shows cores joined by a system bus whose interconnect
/// must itself be tested ("SoC interconnect test time can be optimized
/// when adopting a good configuration of the test chains", §4). We model
/// point-to-point connections from a core's system-side outputs to another
/// core's system-side inputs, with injectable stuck faults, and the tester
/// verifies them by driving the source wrapper's boundary cells (EXTEST)
/// and capturing at the destination wrapper.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/simulation.hpp"

namespace casbus::soc {

/// One directed wire of the functional interconnect.
struct Connection {
  std::size_t from_core = 0;  ///< top-level core index
  std::size_t from_pin = 0;   ///< index into the source's sys_out
  std::size_t to_core = 0;
  std::size_t to_pin = 0;     ///< index into the destination's sys_in
};

/// Copies every connection's source wire onto its destination wire each
/// settle pass; faults force a connection's destination to a fixed level.
class Interconnect : public sim::Module {
 public:
  Interconnect(std::string name,
               std::vector<std::pair<sim::Wire*, sim::Wire*>> wires,
               std::vector<Connection> meta)
      : sim::Module(std::move(name)),
        wires_(std::move(wires)),
        meta_(std::move(meta)),
        stuck_(wires_.size(), -1) {
    for (const auto& link : wires_) watch(link.first);
  }

  void evaluate() override {
    for (std::size_t i = 0; i < wires_.size(); ++i) {
      if (stuck_[i] >= 0)
        wires_[i].second->set(to_logic(stuck_[i] == 1));
      else
        wires_[i].second->set(wires_[i].first->get());
    }
  }

  /// Forces connection \p index stuck at \p one (open-defect model: the
  /// destination no longer follows the source).
  void inject_stuck(std::size_t index, bool one) {
    stuck_.at(index) = one ? 1 : 0;
    wake();
  }
  void clear_faults() {
    std::fill(stuck_.begin(), stuck_.end(), -1);
    wake();
  }

  [[nodiscard]] const std::vector<Connection>& connections() const {
    return meta_;
  }

 private:
  std::vector<std::pair<sim::Wire*, sim::Wire*>> wires_;  // src -> dst
  std::vector<Connection> meta_;
  std::vector<int> stuck_;
};

}  // namespace casbus::soc
