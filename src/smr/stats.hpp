// Per-thread SMR statistics.
//
// Counters are the data source for the paper's Fig 5 (memory fences per
// traversed node) and Fig 6 (retired-but-unreclaimed nodes sampled at the
// start of each operation). Each thread owns one cache-line-padded record
// and bumps it with relaxed atomics; aggregation reads are racy by design
// (monotonic counters, so a snapshot is always a valid lower bound).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/align.hpp"

namespace mp::smr {

// The counter table: the one list every per-counter artifact is generated
// from — ThreadStats and StatsSnapshot fields, the snapshot arithmetic,
// obs::to_json(StatsSnapshot) and the report validator's required keys
// (obs/report.hpp; every counter is required). Adding a counter is one
// row.
//
//   X(name, merge, scope)
//     merge  sum: a flow counter. max: a high-water mark — max-merged
//            across threads, and a delta keeps the left-hand (later) value.
//     scope  thread: a ThreadStats field too. snapshot: StatsSnapshot only.
//
// Row order is ThreadStats' field order (the counters every read touches
// come first, so they share the record's first cache lines) and the JSON
// key order.
//
// Meanings worth spelling out:
//   retired_sum/retired_samples  retired-list sizes sampled at start_op
//                                (Fig 6: avg_retired() is their ratio).
//   peak_retired     highest per-thread retired-list size (Theorem 4.2's
//                    bound is per thread, hence max-merged).
//   orphaned/adopted nodes handed over at detach() / taken over by
//                    survivors. The allocation identity extends to
//                    retires == reclaims + drained + pending, where pending
//                    counts local retired lists and the orphan pool.
//   pool_*           node-pool traffic (pool.hpp); all zero with the pool
//                    off. depot_exchanges counts whole-magazine transfers.
//   unlinked_frees   never-linked nodes freed by delete_unlinked(tid, node):
//                    allocs == reclaims + unlinked + drained (+ pending).
//   offloaded, inline_fallbacks, peak_inflight
//                    background arm, producer side (reclaimer.hpp): nodes
//                    handed over, backpressure inline passes, and the
//                    queued+backlog high-water the watchdog's in-flight
//                    bound checks. All zero in the foreground arm.
//   bg_snapshots, bg_scans
//                    background arm, reclaimer side: protection snapshots
//                    taken, and retired sets filtered under them — each
//                    queued batch counts one, the carried backlog one — so
//                    bg_scans / bg_snapshots >= 1 measures snapshot
//                    amortization at every scan_quantum.
//   scan_increments  reclamation engine steps (DESIGN.md §12), foreground
//                    cursor and background chunks alike. At scan_quantum 0
//                    every pass is one step, so a foreground-only run has
//                    scan_increments == empties.
//   cursor_carryover nodes a step left unexamined for the next one, summed
//                    over steps — an amortization measure, not a
//                    population; always 0 at scan_quantum 0.
//   max_pause_ns     longest single reclamation increment, at every
//                    quantum, so an amortized-vs-deamortized A/B reads it.
//   drained          nodes freed by drain(). Kept apart from `reclaims`:
//                    drain runs on one thread over every thread's list, so
//                    bumping per-thread records would break their
//                    single-writer contract.
#define MP_SMR_COUNTERS(X)                                                \
  X(fences,            sum, thread)      /* seq_cst fences issued */      \
  X(reads,             sum, thread)      /* SMR read() calls */           \
  X(slow_protects,     sum, thread)      /* protection-slot writes */     \
  X(hp_fallbacks,      sum, thread)      /* MP reads served via HP */     \
  X(allocs,            sum, thread)                                       \
  X(retires,           sum, thread)                                       \
  X(reclaims,          sum, thread)      /* nodes actually freed */       \
  X(drained,           sum, snapshot)                                     \
  X(empties,           sum, thread)      /* scheduled passes */           \
  X(retired_sum,       sum, thread)                                       \
  X(retired_samples,   sum, thread)                                       \
  X(index_collisions,  sum, thread)      /* MP allocs forced to USE_HP */ \
  X(peak_retired,      max, thread)                                       \
  X(emergency_empties, sum, thread)      /* soft-cap passes */            \
  X(orphaned,          sum, thread)                                       \
  X(adopted,           sum, thread)                                       \
  X(pool_hits,         sum, thread)                                       \
  X(pool_misses,       sum, thread)                                       \
  X(depot_exchanges,   sum, thread)                                       \
  X(unlinked_frees,    sum, thread)                                       \
  X(offloaded,         sum, thread)                                       \
  X(inline_fallbacks,  sum, thread)                                       \
  X(bg_snapshots,      sum, thread)                                       \
  X(bg_scans,          sum, thread)                                       \
  X(peak_inflight,     max, thread)                                       \
  X(scan_increments,   sum, thread)                                       \
  X(cursor_carryover,  sum, thread)                                       \
  X(max_pause_ns,      max, thread)   

namespace stats_detail {

inline void merge_sum(std::uint64_t& into, std::uint64_t value) noexcept {
  into += value;
}
inline void merge_max(std::uint64_t& into, std::uint64_t value) noexcept {
  into = std::max(into, value);
}

/// Snapshot delta of one counter. Counters are monotonic, so when rhs is an
/// earlier snapshot of the same scheme it is a prefix of lhs; anything else
/// (different instances, swapped operands) saturates at 0 instead of
/// wrapping near 2^64, and debug builds assert the prefix invariant.
inline std::uint64_t delta_sum(std::uint64_t lhs, std::uint64_t rhs) noexcept {
  assert(lhs >= rhs && "StatsSnapshot subtraction: rhs is not a prefix");
  return lhs >= rhs ? lhs - rhs : 0;
}
/// High-water marks are not differentiable: keep the later value.
inline std::uint64_t delta_max(std::uint64_t lhs, std::uint64_t) noexcept {
  return lhs;
}

}  // namespace stats_detail

// Scope dispatch for the table's last column.
#define MP_SMR_IF_thread(...) __VA_ARGS__
#define MP_SMR_IF_snapshot(...)

struct ThreadStats {
#define MP_SMR_X(name, merge, scope) \
  MP_SMR_IF_##scope(std::atomic<std::uint64_t> name{0};)
  MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X

  void bump(std::atomic<std::uint64_t>& counter,
            std::uint64_t by = 1) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + by,
                  std::memory_order_relaxed);
  }

  /// Raise a high-water counter (single writer: the owning thread).
  void bump_max(std::atomic<std::uint64_t>& counter,
                std::uint64_t candidate) noexcept {
    if (candidate > counter.load(std::memory_order_relaxed)) {
      counter.store(candidate, std::memory_order_relaxed);
    }
  }
};

/// Plain aggregate of ThreadStats, for reporting.
struct StatsSnapshot {
#define MP_SMR_X(name, merge, scope) std::uint64_t name = 0;
  MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X

  StatsSnapshot& operator+=(const ThreadStats& t) noexcept {
#define MP_SMR_X(name, merge, scope)        \
  MP_SMR_IF_##scope(stats_detail::merge_##merge(   \
      name, t.name.load(std::memory_order_relaxed));)
    MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X
    return *this;
  }

  /// Merge another aggregate (e.g. accumulating per-run deltas).
  StatsSnapshot& operator+=(const StatsSnapshot& rhs) noexcept {
#define MP_SMR_X(name, merge, scope) \
  stats_detail::merge_##merge(name, rhs.name);
    MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X
    return *this;
  }

  /// Delta between two snapshots: flow counters subtract (saturating),
  /// high-water marks keep the left-hand value.
  StatsSnapshot operator-(const StatsSnapshot& rhs) const noexcept {
    StatsSnapshot out;
#define MP_SMR_X(name, merge, scope) \
  out.name = stats_detail::delta_##merge(name, rhs.name);
    MP_SMR_COUNTERS(MP_SMR_X)
#undef MP_SMR_X
    return out;
  }

  /// Fig 6 metric: mean retired-list size observed at operation starts.
  double avg_retired() const noexcept {
    return retired_samples == 0
               ? 0.0
               : static_cast<double>(retired_sum) /
                     static_cast<double>(retired_samples);
  }
};

#undef MP_SMR_IF_thread
#undef MP_SMR_IF_snapshot

/// Issue a sequentially consistent fence and account for it. Every fence on
/// an SMR hot path in this library goes through here so that Fig 5 counts
/// are exact.
inline void counted_fence(ThreadStats& stats) noexcept {
#if defined(__x86_64__)
  // The full barrier GCC emits for a seq_cst fence is `lock or $0,(%rsp)`.
  // When the caller keeps a spilled loop value at 0(%rsp), every reload of
  // it waits on that locked write: a traversal whose per-hop counter
  // pointer landed there ran 40% slower under HP. The same locked no-op
  // aimed inside the red zone is the same barrier without the false
  // dependency (it writes back the value it read).
  asm volatile("lock orq $0, -8(%%rsp)" ::: "memory", "cc");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  stats.bump(stats.fences);
}

}  // namespace mp::smr
