/// \file soc.hpp
/// Assembly of a complete testable SoC: cores + P1500 wrappers + CAS-BUS +
/// wrapper serial control, as in the paper's Figure 1.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/test_bus.hpp"
#include "p1500/wrapper.hpp"
#include "soc/bist_core.hpp"
#include "soc/core_model.hpp"
#include "soc/interconnect.hpp"
#include "soc/memory_core.hpp"

namespace casbus::soc {

/// What kind of core sits behind a CAS (paper Fig. 2).
enum class CoreKind {
  Scan,          ///< scannable core, P = number of scan chains (Fig. 2a)
  Bist,          ///< embedded logic BIST, P = 1 (Fig. 2b)
  External,      ///< scan core fed by off-chip LFSR/MISR, P = 1 (Fig. 2c)
  Memory,        ///< SRAM with MBIST, P = 1 (maintenance test, §4)
  Hierarchical,  ///< embeds an internal CAS-BUS, P = child width (Fig. 2d)
};

/// Copies one set of wires onto another each evaluation — used to close
/// the loop from a child bus tail back into the parent CAS's i-ports.
class WireBridge : public sim::Module {
 public:
  WireBridge(std::string name, std::vector<sim::Wire*> src,
             std::vector<sim::Wire*> dst)
      : sim::Module(std::move(name)), src_(std::move(src)),
        dst_(std::move(dst)) {
    CASBUS_REQUIRE(src_.size() == dst_.size(), "WireBridge size mismatch");
    watch(src_);
  }
  void evaluate() override {
    for (std::size_t i = 0; i < src_.size(); ++i)
      dst_[i]->set(src_[i]->get());
  }

 private:
  std::vector<sim::Wire*> src_;
  std::vector<sim::Wire*> dst_;
};

struct HierarchicalBody;

/// One wrapped core hanging off a CAS.
struct CoreInstance {
  std::string name;
  CoreKind kind = CoreKind::Scan;
  std::size_t cas_index = 0;  ///< index into the owning bus chain
  std::unique_ptr<CoreModel> model;        ///< null for Hierarchical
  std::unique_ptr<p1500::Wrapper> wrapper; ///< null for Hierarchical
  std::vector<sim::Wire*> sys_in;   ///< system-side functional inputs
  std::vector<sim::Wire*> sys_out;  ///< system-side functional outputs
  std::unique_ptr<HierarchicalBody> hier;  ///< only for Hierarchical

  /// Scan model accessor (Scan/External kinds).
  [[nodiscard]] NetlistCore& as_scan() const;
  [[nodiscard]] BistCore& as_bist() const;
  [[nodiscard]] MemoryCore& as_memory() const;
};

/// Internal structure of a hierarchical core (paper Fig. 2d): a child
/// CAS-BUS whose head is the parent CAS's o-ports, carrying CASed child
/// cores, with the child tail bridged back into the parent's i-ports.
struct HierarchicalBody {
  std::unique_ptr<tam::CasBusChain> bus;
  std::vector<CoreInstance> children;  ///< scan cores only
  std::unique_ptr<WireBridge> bridge;
};

/// A fully assembled SoC. Build through SocBuilder.
class Soc {
 public:
  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] const sim::Simulation& simulation() const noexcept {
    return sim_;
  }
  [[nodiscard]] tam::CasBusChain& bus() noexcept { return *bus_; }
  [[nodiscard]] const tam::CasBusChain& bus() const noexcept {
    return *bus_;
  }
  [[nodiscard]] const p1500::WscWires& wsc() const noexcept { return wsc_; }

  /// Wrapper-serial-ring pins (independent wrapper configuration: the
  /// paper's default "the system test engineer may configure the wrapper
  /// independently"; the WIRs of all wrappers daisy-chain WSI -> WSO).
  [[nodiscard]] sim::Wire& wsi_pin() noexcept { return *wsi_pin_; }
  [[nodiscard]] sim::Wire& wso_pin() noexcept { return *wso_pin_; }

  [[nodiscard]] std::vector<CoreInstance>& cores() noexcept {
    return cores_;
  }
  [[nodiscard]] const std::vector<CoreInstance>& cores() const noexcept {
    return cores_;
  }
  [[nodiscard]] std::size_t core_count() const noexcept {
    return cores_.size();
  }

  /// All wrappers in serial-ring order (top-level cores first, then the
  /// children of each hierarchical core, in declaration order).
  [[nodiscard]] const std::vector<p1500::Wrapper*>& wrapper_ring()
      const noexcept {
    return ring_;
  }

  /// The functional interconnect fabric (null when no connections were
  /// declared).
  [[nodiscard]] Interconnect* interconnect() noexcept {
    return interconnect_;
  }

  /// Resets every module and re-settles.
  void reset();

 private:
  friend class SocBuilder;
  Soc() = default;

  sim::Simulation sim_;
  std::unique_ptr<tam::CasBusChain> bus_;
  p1500::WscWires wsc_;
  sim::Wire* wsi_pin_ = nullptr;
  sim::Wire* wso_pin_ = nullptr;
  std::vector<CoreInstance> cores_;
  std::vector<p1500::Wrapper*> ring_;
  Interconnect* interconnect_ = nullptr;
  std::vector<std::unique_ptr<sim::Module>> glue_;
};

/// Declarative SoC construction.
///
/// ```
/// SocBuilder b(8);                      // N = 8 test-bus wires
/// b.add_scan_core("cpu", spec4chains);
/// b.add_bist_core("dsp", logic, 256);
/// b.add_memory_core("ram", 64, 8);
/// b.add_hierarchical_core("subsys", 2, {{"subA", specA}, {"subB", specB}});
/// auto soc = b.build();
/// ```
class SocBuilder {
 public:
  explicit SocBuilder(unsigned bus_width);

  /// Scannable core (Fig. 2a): CAS ports = scan chains.
  SocBuilder& add_scan_core(const std::string& name,
                            const tpg::SyntheticCoreSpec& spec);

  /// Core tested from an external source/sink (Fig. 2c): forced to one
  /// scan chain, P = 1.
  SocBuilder& add_external_core(const std::string& name,
                                tpg::SyntheticCoreSpec spec);

  /// BISTed core (Fig. 2b): P = 1.
  SocBuilder& add_bist_core(const std::string& name,
                            const tpg::SyntheticCoreSpec& logic,
                            std::uint32_t cycles);

  /// Embedded SRAM with MARCH C- MBIST.
  SocBuilder& add_memory_core(const std::string& name, std::size_t words,
                              unsigned data_bits);

  /// Hierarchical core (Fig. 2d): an internal CAS-BUS of width
  /// \p child_bus_width carrying one CASed scan core per child spec.
  struct ChildSpec {
    std::string name;
    tpg::SyntheticCoreSpec logic;
  };
  SocBuilder& add_hierarchical_core(const std::string& name,
                                    unsigned child_bus_width,
                                    std::vector<ChildSpec> children);

  /// Declares a functional interconnect wire from output pin \p from_pin
  /// of top-level core \p from (system side of its wrapper) to input pin
  /// \p to_pin of core \p to. Names are resolved at build(); pins are
  /// validated against the cores' terminal counts. Tested with
  /// SocTester::run_extest.
  SocBuilder& connect(const std::string& from, std::size_t from_pin,
                      const std::string& to, std::size_t to_pin);

  /// Assembles the SoC. The builder must not be reused afterwards.
  std::unique_ptr<Soc> build();

 private:
  struct PendingCore {
    std::string name;
    CoreKind kind;
    tpg::SyntheticCoreSpec spec;
    std::uint32_t bist_cycles = 0;
    std::size_t mem_words = 0;
    unsigned mem_bits = 0;
    unsigned child_width = 0;
    std::vector<ChildSpec> children;
  };

  struct PendingConnection {
    std::string from, to;
    std::size_t from_pin, to_pin;
  };

  unsigned width_;
  std::vector<PendingCore> pending_;
  std::vector<PendingConnection> connections_;
  bool built_ = false;
};

}  // namespace casbus::soc
