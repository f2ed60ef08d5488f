#include "soc/soc.hpp"

#include <string>

namespace casbus::soc {

namespace {

std::vector<sim::Wire*> to_ptrs(sim::WireBundle& bundle) {
  std::vector<sim::Wire*> out;
  out.reserve(bundle.size());
  for (std::size_t i = 0; i < bundle.size(); ++i) out.push_back(&bundle[i]);
  return out;
}

}  // namespace

NetlistCore& CoreInstance::as_scan() const {
  CASBUS_REQUIRE(kind == CoreKind::Scan || kind == CoreKind::External,
                 "core is not a scan core: " + name);
  return *static_cast<NetlistCore*>(model.get());
}

BistCore& CoreInstance::as_bist() const {
  CASBUS_REQUIRE(kind == CoreKind::Bist, "core is not a BIST core: " + name);
  return *static_cast<BistCore*>(model.get());
}

MemoryCore& CoreInstance::as_memory() const {
  CASBUS_REQUIRE(kind == CoreKind::Memory,
                 "core is not a memory core: " + name);
  return *static_cast<MemoryCore*>(model.get());
}

void Soc::reset() {
  sim_.reset();
  bus_->head().set_all(Logic4::Zero);
  bus_->config_wire().set(false);
  bus_->update_wire().set(false);
  wsc_.select_wir->set(false);
  wsc_.shift_wr->set(false);
  wsc_.capture_wr->set(false);
  wsc_.update_wr->set(false);
  wsi_pin_->set(false);
  for (CoreInstance& core : cores_) {
    if (core.hier != nullptr) {
      core.hier->bus->config_wire().set(false);
      core.hier->bus->update_wire().set(false);
    }
    for (sim::Wire* w : core.sys_in) w->set(false);
  }
  sim_.settle();
}

SocBuilder::SocBuilder(unsigned bus_width) : width_(bus_width) {
  CASBUS_REQUIRE(width_ >= 1, "SocBuilder: bus width must be >= 1");
}

SocBuilder& SocBuilder::add_scan_core(const std::string& name,
                                      const tpg::SyntheticCoreSpec& spec) {
  CASBUS_REQUIRE(spec.n_chains <= width_,
                 "scan core has more chains than bus wires");
  PendingCore p;
  p.name = name;
  p.kind = CoreKind::Scan;
  p.spec = spec;
  pending_.push_back(std::move(p));
  return *this;
}

SocBuilder& SocBuilder::add_external_core(const std::string& name,
                                          tpg::SyntheticCoreSpec spec) {
  spec.n_chains = 1;  // Fig. 2c: single serial stream to the tester
  PendingCore p;
  p.name = name;
  p.kind = CoreKind::External;
  p.spec = spec;
  pending_.push_back(std::move(p));
  return *this;
}

SocBuilder& SocBuilder::add_bist_core(const std::string& name,
                                      const tpg::SyntheticCoreSpec& logic,
                                      std::uint32_t cycles) {
  PendingCore p;
  p.name = name;
  p.kind = CoreKind::Bist;
  p.spec = logic;
  p.bist_cycles = cycles;
  pending_.push_back(std::move(p));
  return *this;
}

SocBuilder& SocBuilder::add_memory_core(const std::string& name,
                                        std::size_t words,
                                        unsigned data_bits) {
  PendingCore p;
  p.name = name;
  p.kind = CoreKind::Memory;
  p.mem_words = words;
  p.mem_bits = data_bits;
  pending_.push_back(std::move(p));
  return *this;
}

SocBuilder& SocBuilder::add_hierarchical_core(const std::string& name,
                                              unsigned child_bus_width,
                                              std::vector<ChildSpec> children) {
  CASBUS_REQUIRE(child_bus_width >= 1 && child_bus_width <= width_,
                 "child bus width must satisfy 1 <= width <= N");
  CASBUS_REQUIRE(!children.empty(), "hierarchical core needs children");
  for (const ChildSpec& c : children)
    CASBUS_REQUIRE(c.logic.n_chains <= child_bus_width,
                   "child core has more chains than the child bus");
  PendingCore p;
  p.name = name;
  p.kind = CoreKind::Hierarchical;
  p.child_width = child_bus_width;
  p.children = std::move(children);
  pending_.push_back(std::move(p));
  return *this;
}

SocBuilder& SocBuilder::connect(const std::string& from,
                                std::size_t from_pin, const std::string& to,
                                std::size_t to_pin) {
  connections_.push_back(PendingConnection{from, to, from_pin, to_pin});
  return *this;
}

std::unique_ptr<Soc> SocBuilder::build() {
  CASBUS_REQUIRE(!built_, "SocBuilder::build called twice");
  built_ = true;

  // make_unique cannot reach the private constructor; the raw new is
  // immediately owned.
  std::unique_ptr<Soc> soc(new Soc());
  sim::Simulation& sim = soc->sim_;
  soc->bus_ = std::make_unique<tam::CasBusChain>(sim, width_, "bus");

  soc->wsc_.select_wir = &sim.wire("wsc.select_wir", Logic4::Zero);
  soc->wsc_.shift_wr = &sim.wire("wsc.shift_wr", Logic4::Zero);
  soc->wsc_.capture_wr = &sim.wire("wsc.capture_wr", Logic4::Zero);
  soc->wsc_.update_wr = &sim.wire("wsc.update_wr", Logic4::Zero);
  soc->wsi_pin_ = &sim.wire("wsi_pin", Logic4::Zero);

  sim::Wire* ring_prev = soc->wsi_pin_;
  std::size_t ring_links = 0;

  // Builds a wrapper around `model` attached to CAS `cas_idx` of `chain`,
  // threading the wrapper serial ring through it.
  const auto attach = [&](CoreInstance& inst, tam::CasBusChain& chain,
                          std::size_t cas_idx, CoreModel& model) {
    p1500::FunctionalPorts func;
    const CoreTerminals& t = model.terminals();
    for (std::size_t i = 0; i < t.func_in.size(); ++i) {
      sim::Wire& w =
          sim.wire(inst.name + ".sysin" + std::to_string(i), Logic4::Zero);
      func.sys_in.push_back(&w);
      inst.sys_in.push_back(&w);
    }
    func.core_in = t.func_in;
    func.core_out = t.func_out;
    for (std::size_t i = 0; i < t.func_out.size(); ++i) {
      sim::Wire& w =
          sim.wire(inst.name + ".sysout" + std::to_string(i), Logic4::Zero);
      func.sys_out.push_back(&w);
      inst.sys_out.push_back(&w);
    }

    p1500::CoreTestPorts ct;
    ct.scan_en = t.scan_en;
    ct.core_clk_en = t.core_clk_en;
    ct.scan_in = t.scan_in;
    ct.scan_out = t.scan_out;
    ct.chain_lengths = t.chain_lengths;
    ct.bist_start = t.bist_start;
    ct.bist_done = t.bist_done;
    ct.bist_pass = t.bist_pass;

    p1500::TamPorts tam_ports;
    tam_ports.wsi = ring_prev;
    tam_ports.wso =
        &sim.wire("ring" + std::to_string(ring_links++), Logic4::Zero);
    ring_prev = tam_ports.wso;
    tam_ports.wpi = to_ptrs(chain.cas_o(cas_idx));
    tam_ports.wpo = to_ptrs(chain.cas_i(cas_idx));

    inst.wrapper = std::make_unique<p1500::Wrapper>(
        sim, inst.name + ".wrap", std::move(func), std::move(ct),
        std::move(tam_ports), soc->wsc_);
    // Wrapper before core: the wrapper drives the core's scan-in and
    // functional inputs, so registering it first lets the core's one
    // gate-level sweep per cycle see this cycle's inputs instead of
    // sweeping again when the wrapper settles after it.
    sim.add(inst.wrapper.get());
    sim.add(&model);
    soc->ring_.push_back(inst.wrapper.get());
  };

  for (PendingCore& p : pending_) {
    CoreInstance inst;
    inst.name = p.name;
    inst.kind = p.kind;

    switch (p.kind) {
      case CoreKind::Scan:
      case CoreKind::External: {
        auto model = std::make_unique<NetlistCore>(
            sim, p.name, tpg::make_synthetic_core(p.spec));
        inst.cas_index =
            soc->bus_->size();  // about to add this CAS
        soc->bus_->add_cas(p.name,
                           static_cast<unsigned>(p.spec.n_chains));
        attach(inst, *soc->bus_, inst.cas_index, *model);
        inst.model = std::move(model);
        break;
      }
      case CoreKind::Bist: {
        auto model =
            std::make_unique<BistCore>(sim, p.name, p.spec, p.bist_cycles);
        inst.cas_index = soc->bus_->size();
        soc->bus_->add_cas(p.name, 1);
        attach(inst, *soc->bus_, inst.cas_index, *model);
        inst.model = std::move(model);
        break;
      }
      case CoreKind::Memory: {
        auto model = std::make_unique<MemoryCore>(sim, p.name, p.mem_words,
                                                  p.mem_bits);
        inst.cas_index = soc->bus_->size();
        soc->bus_->add_cas(p.name, 1);
        attach(inst, *soc->bus_, inst.cas_index, *model);
        inst.model = std::move(model);
        break;
      }
      case CoreKind::Hierarchical: {
        inst.cas_index = soc->bus_->size();
        soc->bus_->add_cas(p.name, p.child_width);

        auto body = std::make_unique<HierarchicalBody>();
        body->bus = std::make_unique<tam::CasBusChain>(
            sim, soc->bus_->cas_o(inst.cas_index), p.name + ".cbus");

        for (const ChildSpec& cs : p.children) {
          CoreInstance child;
          child.name = p.name + "." + cs.name;
          child.kind = CoreKind::Scan;
          auto model = std::make_unique<NetlistCore>(
              sim, child.name, tpg::make_synthetic_core(cs.logic));
          child.cas_index = body->bus->size();
          body->bus->add_cas(cs.name,
                             static_cast<unsigned>(cs.logic.n_chains));
          attach(child, *body->bus, child.cas_index, *model);
          child.model = std::move(model);
          body->children.push_back(std::move(child));
        }

        // Close the loop: child bus tail -> parent CAS i-ports.
        body->bridge = std::make_unique<WireBridge>(
            p.name + ".bridge", to_ptrs(body->bus->tail()),
            to_ptrs(soc->bus_->cas_i(inst.cas_index)));
        sim.add(body->bridge.get());
        inst.hier = std::move(body);
        break;
      }
    }
    soc->cores_.push_back(std::move(inst));
  }

  soc->wso_pin_ = ring_prev;

  // Resolve and build the functional interconnect.
  if (!connections_.empty()) {
    const auto index_of = [&](const std::string& core_name) {
      for (std::size_t i = 0; i < soc->cores_.size(); ++i)
        if (soc->cores_[i].name == core_name) return i;
      CASBUS_REQUIRE(false, "connect: unknown core " + core_name);
      return std::size_t{0};
    };
    std::vector<std::pair<sim::Wire*, sim::Wire*>> wire_pairs;
    std::vector<Connection> meta;
    for (const PendingConnection& pc : connections_) {
      Connection conn;
      conn.from_core = index_of(pc.from);
      conn.from_pin = pc.from_pin;
      conn.to_core = index_of(pc.to);
      conn.to_pin = pc.to_pin;
      CoreInstance& src = soc->cores_[conn.from_core];
      CoreInstance& dst = soc->cores_[conn.to_core];
      CASBUS_REQUIRE(conn.from_pin < src.sys_out.size(),
                     "connect: source pin out of range on " + pc.from);
      CASBUS_REQUIRE(conn.to_pin < dst.sys_in.size(),
                     "connect: destination pin out of range on " + pc.to);
      // One driver per input pin: a second connection would drive the
      // same wire from two sources in one Interconnect evaluation.
      for (const Connection& prior : meta)
        CASBUS_REQUIRE(prior.to_core != conn.to_core ||
                           prior.to_pin != conn.to_pin,
                       "connect: input pin " + std::to_string(pc.to_pin) +
                           " of core " + pc.to + " is already driven");
      wire_pairs.emplace_back(src.sys_out[conn.from_pin],
                              dst.sys_in[conn.to_pin]);
      meta.push_back(conn);
    }
    auto fabric = std::make_unique<Interconnect>(
        "interconnect", std::move(wire_pairs), std::move(meta));
    soc->interconnect_ = fabric.get();
    sim.add(fabric.get());
    soc->glue_.push_back(std::move(fabric));
  }

  soc->reset();
  return soc;
}

}  // namespace casbus::soc
