#include "sched/exact.hpp"

#include <algorithm>
#include <functional>

#include "sched/lower_bound.hpp"

namespace casbus::sched {

std::uint64_t price_scan_partition(
    const SessionScheduler& scheduler,
    const std::vector<std::vector<std::size_t>>& scan_groups,
    const std::vector<std::size_t>& bist_cores,
    std::vector<ScheduledSession>* out_sessions) {
  const unsigned width = scheduler.width();
  const std::uint64_t config = scheduler.reconfig_cost();
  const std::vector<CoreTestSpec>& cores = scheduler.cores();

  // Per-group session state. The only way a co-tenant BIST engine changes
  // the scan term is by occupying wires, so scan terms are memoized per
  // (group, occupied-wire count) — the greedy slotting loop below then
  // prices each geometry once instead of re-balancing per candidate.
  struct Group {
    std::vector<ChainItem> items;
    std::size_t patterns = 0;
    std::vector<std::uint64_t> term;  ///< scan term at k BIST wires; lazy
    std::uint64_t max_bist = 0;
    std::size_t n_bist = 0;
  };
  std::vector<Group> gs(scan_groups.size());
  for (std::size_t g = 0; g < scan_groups.size(); ++g) {
    for (const std::size_t c : scan_groups[g]) {
      for (std::size_t ch = 0; ch < cores[c].chains.size(); ++ch)
        gs[g].items.push_back(ChainItem{c, ch, cores[c].chains[ch]});
      gs[g].patterns = std::max(gs[g].patterns, cores[c].patterns);
    }
    gs[g].term.assign(width, UINT64_MAX);
  }
  const auto scan_term = [&](Group& g, std::size_t k) {
    if (g.term[k] == UINT64_MAX) {
      const auto wires = static_cast<unsigned>(width - k);
      g.term[k] = scan_cycles(
          assign_lpt_grouped_refined(g.items, wires).max_load(), g.patterns);
    }
    return g.term[k];
  };

  // Greedy BIST slotting, same policy (and same tie-breaks) as
  // SessionScheduler::greedy: each engine joins the session whose total
  // grows least, or gets a dedicated session when that is cheaper.
  std::vector<std::vector<std::size_t>> group_bist(scan_groups.size());
  std::vector<std::size_t> extra;
  for (const std::size_t core : bist_cores) {
    const std::uint64_t standalone = cores[core].bist_cycles + config;
    std::size_t best_group = scan_groups.size();
    std::uint64_t best_delta = standalone;
    for (std::size_t g = 0; g < scan_groups.size(); ++g) {
      if (gs[g].n_bist + 1 >= width) continue;  // keep 1 scan wire
      const std::uint64_t t_without =
          std::max(scan_term(gs[g], gs[g].n_bist), gs[g].max_bist) + config;
      const std::uint64_t t_with =
          std::max(scan_term(gs[g], gs[g].n_bist + 1),
                   std::max(gs[g].max_bist, cores[core].bist_cycles)) +
          config;
      if (t_with - t_without < best_delta) {
        best_delta = t_with - t_without;
        best_group = g;
      }
    }
    if (best_group < scan_groups.size()) {
      group_bist[best_group].push_back(core);
      gs[best_group].n_bist += 1;
      gs[best_group].max_bist =
          std::max(gs[best_group].max_bist, cores[core].bist_cycles);
    } else {
      extra.push_back(core);
    }
  }

  std::uint64_t total = 0;
  if (out_sessions != nullptr) out_sessions->clear();
  for (std::size_t g = 0; g < scan_groups.size(); ++g) {
    total += std::max(scan_term(gs[g], gs[g].n_bist), gs[g].max_bist) + config;
    if (out_sessions != nullptr)
      out_sessions->push_back(
          scheduler.price_session(scan_groups[g], group_bist[g]));
  }
  for (const std::size_t core : extra) {
    total += cores[core].bist_cycles + config;
    if (out_sessions != nullptr)
      out_sessions->push_back(scheduler.price_session({}, {core}));
  }
  return total;
}

std::vector<std::vector<std::size_t>> greedy_scan_groups(
    const SessionScheduler& scheduler) {
  std::vector<std::vector<std::size_t>> groups;
  for (const ScheduledSession& s : scheduler.greedy().sessions)
    if (!s.scan_cores.empty()) groups.push_back(s.scan_cores);
  return groups;
}

Schedule optimal_pure_bist_schedule(const SessionScheduler& scheduler) {
  std::vector<std::size_t> bist;
  for (std::size_t i = 0; i < scheduler.cores().size(); ++i) {
    CASBUS_REQUIRE(!scheduler.cores()[i].is_scan(),
                   "optimal_pure_bist_schedule: scan cores present");
    bist.push_back(i);
  }
  // Session cost is max(engine) + config, so sort by length and chunk
  // width at a time: session i's cost then equals its lower bound (the
  // i*width-th longest engine) and the session count is minimal — input-
  // order chunking (what single_session does) can be arbitrarily worse
  // when long and short engines interleave.
  std::stable_sort(bist.begin(), bist.end(), [&](std::size_t a,
                                                 std::size_t b) {
    return scheduler.cores()[a].bist_cycles >
           scheduler.cores()[b].bist_cycles;
  });
  Schedule schedule;
  const unsigned width = scheduler.width();
  for (std::size_t i = 0; i < bist.size(); i += width) {
    const std::vector<std::size_t> chunk(
        bist.begin() + static_cast<std::ptrdiff_t>(i),
        bist.begin() + static_cast<std::ptrdiff_t>(
                           std::min<std::size_t>(i + width, bist.size())));
    schedule.sessions.push_back(scheduler.price_session({}, chunk));
    schedule.total_cycles += schedule.sessions.back().total_cycles();
  }
  return schedule;
}

std::vector<std::size_t> canonical_scan_order(
    const SessionScheduler& scheduler) {
  const std::vector<CoreTestSpec>& cores = scheduler.cores();
  const unsigned width = scheduler.width();
  std::vector<std::size_t> scan;
  for (std::size_t i = 0; i < cores.size(); ++i)
    if (cores[i].is_scan()) scan.push_back(i);
  std::stable_sort(scan.begin(), scan.end(), [&](std::size_t a,
                                                 std::size_t b) {
    const std::uint64_t la = core_session_lower_bound(cores[a], width);
    const std::uint64_t lb = core_session_lower_bound(cores[b], width);
    if (la != lb) return la > lb;
    if (cores[a].patterns != cores[b].patterns)
      return cores[a].patterns > cores[b].patterns;
    return cores[a].chains > cores[b].chains;
  });
  return scan;
}

void for_each_partition(const std::vector<std::size_t>& items,
                        const PartitionVisitor& visit) {
  PartitionGroups groups;
  const std::function<void(std::size_t)> recurse = [&](std::size_t idx) {
    if (idx == items.size()) {
      visit(groups);
      return;
    }
    for (std::size_t g = 0; g <= groups.size(); ++g) {
      if (g == groups.size()) groups.emplace_back();
      groups[g].push_back(items[idx]);
      recurse(idx + 1);
      groups[g].pop_back();
      if (groups[g].empty()) groups.pop_back();
    }
  };
  recurse(0);
}

Schedule reference_optimal_schedule(const SessionScheduler& scheduler) {
  const std::vector<std::size_t> scan = canonical_scan_order(scheduler);
  std::vector<std::size_t> bist;
  for (std::size_t i = 0; i < scheduler.cores().size(); ++i)
    if (!scheduler.cores()[i].is_scan()) bist.push_back(i);
  const bool pure_bist = scan.empty();
  const std::vector<std::size_t>& items = pure_bist ? bist : scan;
  CASBUS_REQUIRE(items.size() <= kExactMaxScanCores,
                 "reference_optimal_schedule: instance too large to "
                 "enumerate");

  // A pure-BIST session's cost is its own, so a partition prices as the
  // sum of its sessions; scan partitions go through the shared evaluator.
  const auto price = [&](const PartitionGroups& groups,
                         std::vector<ScheduledSession>* sessions) {
    if (!pure_bist)
      return price_scan_partition(scheduler, groups, bist, sessions);
    std::uint64_t total = 0;
    for (const std::vector<std::size_t>& g : groups) {
      const ScheduledSession session = scheduler.price_session({}, g);
      total += session.total_cycles();
      if (sessions != nullptr) sessions->push_back(session);
    }
    return total;
  };

  std::uint64_t best_total = UINT64_MAX;
  PartitionGroups best_groups;
  for_each_partition(items, [&](const PartitionGroups& groups) {
    if (pure_bist)
      for (const std::vector<std::size_t>& g : groups)
        if (g.size() > scheduler.width()) return;  // one wire per engine
    const std::uint64_t total = price(groups, nullptr);
    if (total < best_total) {
      best_total = total;
      best_groups = groups;
    }
  });

  Schedule schedule;
  schedule.total_cycles = price(best_groups, &schedule.sessions);
  return schedule;
}

}  // namespace casbus::sched
