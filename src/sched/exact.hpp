/// \file exact.hpp
/// The session-partition model's shared pieces, and its reference optimum.
///
/// A partition schedule groups the scan cores into sessions and slots the
/// BIST engines greedily into them. price_scan_partition prices one such
/// partition; explore::BranchBoundScheduler searches the partitions with
/// it, and Strategy::Exact runs that search with no node budget.
/// reference_optimal_schedule is the independent ground truth those
/// engines are checked against: it prices every partition, without any
/// bound or pruning. It is a test and bench oracle, not an engine.

#pragma once

#include <functional>

#include "sched/scheduler.hpp"

namespace casbus::sched {

/// Prices one complete scan partition: each group becomes a session, then
/// BIST cores are slotted greedily into whichever session's total grows
/// least (one wire each, overflow gets dedicated sessions) — the same
/// policy as SessionScheduler::greedy, so searches over scan partitions
/// stay cost-consistent with the heuristics. This is the leaf evaluator
/// of explore::BranchBoundScheduler and of reference_optimal_schedule. When
/// \p out_sessions is non-null it receives the fully priced sessions.
std::uint64_t price_scan_partition(
    const SessionScheduler& scheduler,
    const std::vector<std::vector<std::size_t>>& scan_groups,
    const std::vector<std::size_t>& bist_cores,
    std::vector<ScheduledSession>* out_sessions = nullptr);

/// The scan-core groups of the greedy heuristic's sessions — an incumbent
/// seed of explore::BranchBoundScheduler (re-priced with
/// price_scan_partition so seeds and search leaves stay exactly
/// comparable).
std::vector<std::vector<std::size_t>> greedy_scan_groups(
    const SessionScheduler& scheduler);

/// The provably optimal schedule of a pure-BIST instance: engines sorted
/// by session length and chunked width at a time, so the i-th session's
/// cost meets its lower bound (the i*width-th longest engine) with the
/// minimum session count. explore::BranchBoundScheduler answers pure-BIST
/// instances with it, since they have no scan partition to search.
/// Requires at least one core and no scan cores.
Schedule optimal_pure_bist_schedule(const SessionScheduler& scheduler);

/// The scan cores of \p scheduler in canonical order: demanding first (by
/// core_session_lower_bound, then pattern count, then chain geometry,
/// stable on core index), so equal-geometry cores sit next to each other.
/// price_scan_partition is not a function of the set partition alone —
/// chain balancing inside a group and BIST slotting across groups break
/// ties by position — so a partition's price is defined on its canonical
/// presentation: groups in the order their first core appears here, each
/// group's cores in this order. explore::BranchBoundScheduler searches in
/// this order and reference_optimal_schedule enumerates in it.
std::vector<std::size_t> canonical_scan_order(
    const SessionScheduler& scheduler);

using PartitionGroups = std::vector<std::vector<std::size_t>>;
using PartitionVisitor = std::function<void(const PartitionGroups&)>;

/// The reference enumerator: calls \p visit once with every set partition
/// of \p items (B(n) of them for n items, in restricted-growth order —
/// item k joins one of the groups opened by items 0..k-1, or opens the
/// next one). Groups hold the items themselves, not their positions.
void for_each_partition(const std::vector<std::size_t>& items,
                        const PartitionVisitor& visit);

/// The reference optimum of the partition model, by plain enumeration:
/// every set partition of the scan cores, in canonical presentation (see
/// canonical_scan_order), is priced with price_scan_partition, and the
/// cheapest one wins (first found on ties).
/// A pure-BIST instance has no scan partition, so there every partition of
/// the engines into sessions of at most width engines is priced instead.
/// No bound, no pruning, no incumbent seeding: B(n) leaves for n cores,
/// so it throws PreconditionError beyond kExactMaxScanCores enumerated
/// cores. Use it to check search engines, not to schedule. An engine that
/// also prices a heuristic seed in its own presentation (as
/// explore::BranchBoundScheduler does with greedy_scan_groups) can
/// occasionally beat it.
Schedule reference_optimal_schedule(const SessionScheduler& scheduler);

}  // namespace casbus::sched
