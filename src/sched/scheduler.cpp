#include "sched/scheduler.hpp"

#include <algorithm>
#include <numeric>

// Deliberate upward dependency (cpp-only, no header cycle): Strategy is
// the run-time selection vocabulary of the whole tree, so schedule_with
// must dispatch every strategy — including the branch-and-bound engine
// that lives a layer above in src/explore. The casbus library is a single
// archive; if sched ever needs to stand alone, this dispatch case is the
// one seam to cut.
#include "explore/branch_bound.hpp"

namespace casbus::sched {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::Single: return "single";
    case Strategy::PerCore: return "per_core";
    case Strategy::Greedy: return "greedy";
    case Strategy::Phased: return "phased";
    case Strategy::Best: return "best";
    case Strategy::Exact: return "exact";
    case Strategy::BranchBound: return "branch_bound";
  }
  return "unknown";
}

Strategy strategy_from_name(std::string_view name) {
  if (name == "single") return Strategy::Single;
  if (name == "per_core") return Strategy::PerCore;
  if (name == "greedy") return Strategy::Greedy;
  if (name == "phased") return Strategy::Phased;
  if (name == "best") return Strategy::Best;
  if (name == "exact") return Strategy::Exact;
  if (name == "branch_bound") return Strategy::BranchBound;
  CASBUS_REQUIRE(false, "unknown scheduling strategy: " + std::string(name));
  return Strategy::Greedy;  // unreachable
}

Schedule SessionScheduler::schedule_with(Strategy s,
                                         ScheduleStats* stats) const {
  switch (s) {
    case Strategy::Single: return single_session();
    case Strategy::PerCore: return per_core_sessions();
    case Strategy::Greedy: return greedy();
    case Strategy::Phased: return phased();
    case Strategy::Best: return best();
    case Strategy::Exact:
    case Strategy::BranchBound: {
      explore::BranchBoundConfig bb;
      if (s == Strategy::Exact) {
        const auto scan_cores = static_cast<std::size_t>(
            std::count_if(cores_.begin(), cores_.end(),
                          [](const CoreTestSpec& c) { return c.is_scan(); }));
        CASBUS_REQUIRE(scan_cores <= kExactMaxScanCores,
                       "Strategy::Exact: instance too large for "
                       "exhaustive search");
        bb.node_budget = SIZE_MAX;
      }
      const explore::BranchBoundResult result =
          explore::BranchBoundScheduler(*this, bb).run();
      CASBUS_ASSERT(s != Strategy::Exact || result.optimal,
                    "Strategy::Exact: unbudgeted search did not finish");
      if (stats != nullptr) {
        stats->nodes_expanded = result.nodes_expanded;
        stats->prunes = result.prunes;
        stats->incumbent_improvements = result.incumbent_improvements;
        stats->leaves_priced = result.leaves_priced;
      }
      return result.schedule;
    }
  }
  CASBUS_REQUIRE(false, "schedule_with: invalid strategy");
  return {};  // unreachable
}

Schedule schedule_with(const std::vector<CoreTestSpec>& cores,
                       unsigned bus_width, Strategy s, ScheduleStats* stats) {
  return SessionScheduler(cores, bus_width).schedule_with(s, stats);
}

SessionScheduler::SessionScheduler(std::vector<CoreTestSpec> cores,
                                   unsigned bus_width)
    : cores_(std::move(cores)), width_(bus_width) {
  CASBUS_REQUIRE(width_ >= 1, "SessionScheduler: bus width must be >= 1");
  CASBUS_REQUIRE(!cores_.empty(), "SessionScheduler: no cores");
  for (const CoreTestSpec& c : cores_)
    CASBUS_REQUIRE(c.is_scan() || c.bist_cycles > 0,
                   "core needs scan chains or BIST: " + c.name);
  std::vector<std::pair<unsigned, unsigned>> geometries;
  geometries.reserve(cores_.size());
  for (const CoreTestSpec& c : cores_) {
    const auto p = static_cast<unsigned>(
        c.is_scan() ? std::min<std::size_t>(c.chains.size(), width_) : 1);
    geometries.emplace_back(width_, p);
  }
  reconfig_cost_ = session_config_cycles(geometries, cores_.size());
}

ScheduledSession SessionScheduler::make_session(
    const std::vector<std::size_t>& scan,
    const std::vector<std::size_t>& bist) const {
  ScheduledSession s;
  s.scan_cores = scan;
  s.bist_cores = bist;
  s.config_cycles = reconfig_cost();

  // Each BIST core occupies one wire for its start/verdict handshake.
  CASBUS_REQUIRE(bist.size() <= width_, "more BIST cores than wires");
  const auto scan_wires = static_cast<unsigned>(width_ - bist.size());

  for (const std::size_t b : bist)
    s.bist_cycles = std::max(s.bist_cycles, cores_[b].bist_cycles);

  if (!scan.empty()) {
    CASBUS_REQUIRE(scan_wires >= 1,
                   "no wires left for scan after BIST allocation");
    std::size_t patterns = 0;
    for (const std::size_t c : scan) {
      for (std::size_t ch = 0; ch < cores_[c].chains.size(); ++ch)
        s.items.push_back(ChainItem{c, ch, cores_[c].chains[ch]});
      patterns = std::max(patterns, cores_[c].patterns);
    }
    s.patterns_applied = patterns;
    s.balance = assign_lpt_grouped_refined(s.items, scan_wires);
    s.scan_cycles = sched::scan_cycles(s.balance.max_load(), patterns);
  }
  return s;
}

Schedule SessionScheduler::single_session() const {
  std::vector<std::size_t> scan, bist;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      scan.push_back(i);
    else
      bist.push_back(i);
  }
  // Each BIST core needs its own wire, so a narrow bus may be physically
  // unable to host everything in one configuration; split off additional
  // BIST sessions only when forced.
  const std::size_t first_capacity =
      scan.empty() ? width_ : (width_ > 1 ? width_ - 1 : 0);
  std::vector<std::size_t> first_bist, overflow;
  for (const std::size_t b : bist) {
    if (first_bist.size() < first_capacity)
      first_bist.push_back(b);
    else
      overflow.push_back(b);
  }

  Schedule sched;
  sched.sessions.push_back(make_session(scan, first_bist));
  sched.total_cycles = sched.sessions[0].total_cycles();
  for (std::size_t i = 0; i < overflow.size(); i += width_) {
    std::vector<std::size_t> chunk(
        overflow.begin() + static_cast<std::ptrdiff_t>(i),
        overflow.begin() + static_cast<std::ptrdiff_t>(
                               std::min(i + width_, overflow.size())));
    sched.sessions.push_back(make_session({}, chunk));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  return sched;
}

Schedule SessionScheduler::per_core_sessions() const {
  Schedule sched;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      sched.sessions.push_back(make_session({i}, {}));
    else
      sched.sessions.push_back(make_session({}, {i}));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  return sched;
}

Schedule SessionScheduler::phased() const {
  // Partition cores.
  std::vector<std::size_t> scan, bist;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      scan.push_back(i);
    else
      bist.push_back(i);
  }

  Schedule sched;

  // Pure-BIST SoCs degenerate to chunked parallel BIST sessions.
  if (scan.empty()) {
    for (std::size_t i = 0; i < bist.size(); i += width_) {
      std::vector<std::size_t> chunk(
          bist.begin() + static_cast<std::ptrdiff_t>(i),
          bist.begin() + static_cast<std::ptrdiff_t>(
                             std::min(i + width_, bist.size())));
      sched.sessions.push_back(make_session({}, chunk));
      sched.total_cycles += sched.sessions.back().total_cycles();
    }
    return sched;
  }

  // BIST cores occupy dedicated wires for the duration of the scan
  // program (overflow beyond the wire budget gets chunked sessions).
  std::size_t resident_bist =
      std::min<std::size_t>(bist.size(), width_ - 1);
  const auto scan_wires = static_cast<unsigned>(width_ - resident_bist);
  std::uint64_t bist_time = 0;
  for (std::size_t i = 0; i < resident_bist; ++i)
    bist_time = std::max(bist_time, cores_[bist[i]].bist_cycles);

  // Phase boundaries: distinct pattern counts, ascending.
  std::stable_sort(scan.begin(), scan.end(), [&](auto a, auto b) {
    return cores_[a].patterns < cores_[b].patterns;
  });

  std::uint64_t scan_time = 0;
  std::size_t done_patterns = 0;
  std::size_t cursor = 0;
  bool first_phase = true;
  while (cursor < scan.size()) {
    // Active set: every core not yet retired.
    const std::size_t v_target = cores_[scan[cursor]].patterns;
    std::vector<std::size_t> active(scan.begin() +
                                        static_cast<std::ptrdiff_t>(cursor),
                                    scan.end());
    ScheduledSession session;
    session.scan_cores = active;
    if (first_phase) {
      for (std::size_t i = 0; i < resident_bist; ++i)
        session.bist_cores.push_back(bist[i]);
      session.bist_cycles = bist_time;
      first_phase = false;
    }
    session.config_cycles = reconfig_cost();

    for (const std::size_t c : active)
      for (std::size_t ch = 0; ch < cores_[c].chains.size(); ++ch)
        session.items.push_back(ChainItem{c, ch, cores_[c].chains[ch]});
    session.balance = assign_lpt_grouped_refined(session.items, scan_wires);
    const std::size_t load = session.balance.max_load();
    const std::size_t dv = v_target - done_patterns;
    session.patterns_applied = dv;
    session.scan_cycles = sched::scan_cycles(load, dv);
    scan_time += session.scan_cycles;
    sched.sessions.push_back(std::move(session));

    done_patterns = v_target;
    while (cursor < scan.size() &&
           cores_[scan[cursor]].patterns == v_target)
      ++cursor;
  }

  sched.bist_spans_sessions = resident_bist > 0;

  // Total: phases are sequential; resident BIST overlaps the whole scan
  // program (it only needs its wires held).
  std::uint64_t total = 0;
  for (const auto& session : sched.sessions)
    total += session.scan_cycles + session.config_cycles;
  total = std::max(total, bist_time +
                              (sched.sessions.empty()
                                   ? reconfig_cost()
                                   : sched.sessions[0].config_cycles));

  // Overflow BIST sessions.
  for (std::size_t i = resident_bist; i < bist.size(); i += width_) {
    std::vector<std::size_t> chunk(
        bist.begin() + static_cast<std::ptrdiff_t>(i),
        bist.begin() + static_cast<std::ptrdiff_t>(
                           std::min(i + width_, bist.size())));
    sched.sessions.push_back(make_session({}, chunk));
    total += sched.sessions.back().total_cycles();
  }
  sched.total_cycles = total;
  return sched;
}

Schedule SessionScheduler::rail_emulation(unsigned rails) const {
  CASBUS_REQUIRE(rails >= 1 && rails <= width_,
                 "rail_emulation: need 1 <= rails <= width");
  // Rail widths as equal as possible.
  std::vector<unsigned> rail_width(rails, width_ / rails);
  for (unsigned r = 0; r < width_ % rails; ++r) ++rail_width[r];

  // LPT over standalone core loads.
  std::vector<std::size_t> order(cores_.size());
  std::iota(order.begin(), order.end(), 0);
  const auto load_of = [&](std::size_t i) {
    const CoreTestSpec& c = cores_[i];
    if (c.is_scan())
      return static_cast<std::uint64_t>(c.patterns) * c.total_scan_bits();
    return c.bist_cycles;
  };
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return load_of(a) > load_of(b);
  });

  std::vector<std::uint64_t> rail_time(rails, 0);
  for (const std::size_t i : order) {
    const auto r = static_cast<unsigned>(
        std::min_element(rail_time.begin(), rail_time.end()) -
        rail_time.begin());
    const CoreTestSpec& c = cores_[i];
    if (c.is_scan()) {
      std::vector<ChainItem> items;
      for (std::size_t ch = 0; ch < c.chains.size(); ++ch)
        items.push_back(ChainItem{i, ch, c.chains[ch]});
      const Balance b = assign_lpt_grouped_refined(items, rail_width[r]);
      rail_time[r] += sched::scan_cycles(b.max_load(), c.patterns);
    }
    rail_time[r] += c.bist_cycles;
  }

  // One configuration; groups run in parallel, so the chip-level time is
  // the slowest group. Represent as a single coarse session.
  Schedule sched;
  ScheduledSession session;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      session.scan_cores.push_back(i);
    else
      session.bist_cores.push_back(i);
  }
  session.config_cycles = reconfig_cost();
  session.scan_cycles =
      *std::max_element(rail_time.begin(), rail_time.end());
  sched.sessions.push_back(std::move(session));
  sched.total_cycles = sched.sessions[0].total_cycles();
  sched.chip_synchronous = false;
  return sched;
}

Schedule SessionScheduler::best() const {
  Schedule result = single_session();
  for (const Schedule& candidate :
       {per_core_sessions(), greedy(), phased()}) {
    if (candidate.total_cycles < result.total_cycles) result = candidate;
  }
  // Rail-style plans: BIST cores need a wire each within their rail, so
  // only rail counts that keep every rail at least one wire wide apply.
  for (unsigned rails = 1; rails <= width_ && rails <= 8; ++rails) {
    const Schedule candidate = rail_emulation(rails);
    if (candidate.total_cycles < result.total_cycles) result = candidate;
  }
  return result;
}

Schedule SessionScheduler::greedy() const {
  // Order scan cores by pattern count descending so cores with similar
  // pattern budgets group together; BIST cores are slotted into whichever
  // session has a spare wire.
  std::vector<std::size_t> scan_order, bist_order;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      scan_order.push_back(i);
    else
      bist_order.push_back(i);
  }
  std::stable_sort(scan_order.begin(), scan_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cores_[a].patterns > cores_[b].patterns;
                   });

  Schedule sched;
  std::vector<std::vector<std::size_t>> groups;  // scan core groups
  for (const std::size_t core : scan_order) {
    bool placed = false;
    for (auto& group : groups) {
      // Marginal test: joining `group` must beat a dedicated session.
      std::vector<std::size_t> with = group;
      with.push_back(core);
      const std::uint64_t t_with = make_session(with, {}).total_cycles();
      const std::uint64_t t_without =
          make_session(group, {}).total_cycles();
      const std::uint64_t t_alone = make_session({core}, {}).total_cycles();
      if (t_with <= t_without + t_alone) {
        group.push_back(core);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({core});
  }

  // Slot BIST cores greedily into the group whose total grows least (they
  // consume one wire each); overflow gets dedicated sessions.
  std::vector<std::vector<std::size_t>> group_bist(groups.size());
  std::vector<std::vector<std::size_t>> extra_bist_sessions;
  for (const std::size_t core : bist_order) {
    std::size_t best_group = groups.size();
    std::uint64_t best_delta = make_session({}, {core}).total_cycles();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (group_bist[g].size() + 1 >= width_) continue;  // keep 1 scan wire
      std::vector<std::size_t> with = group_bist[g];
      with.push_back(core);
      const std::uint64_t t_with =
          make_session(groups[g], with).total_cycles();
      const std::uint64_t t_without =
          make_session(groups[g], group_bist[g]).total_cycles();
      if (t_with - t_without < best_delta) {
        best_delta = t_with - t_without;
        best_group = g;
      }
    }
    if (best_group < groups.size())
      group_bist[best_group].push_back(core);
    else
      extra_bist_sessions.push_back({core});
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    sched.sessions.push_back(make_session(groups[g], group_bist[g]));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  for (const auto& bist : extra_bist_sessions) {
    sched.sessions.push_back(make_session({}, bist));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  if (sched.sessions.empty()) sched.total_cycles = 0;
  return sched;
}

}  // namespace casbus::sched
