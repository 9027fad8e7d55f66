// Epoch-based reclamation (Fraser 2004 / McKenney & Slingwine 1998) — §3.2.
//
// A thread announces the global epoch when it starts an operation and marks
// itself idle when it ends. A retired node is reclaimed once its retirement
// epoch precedes every active thread's announced epoch. The per-operation
// cost is one announcement (a store + fence); reads are plain loads.
//
// EBR is NOT robust: a thread stalled mid-operation pins its announced
// epoch, so nothing retired at or after that epoch is ever reclaimed —
// wasted memory grows without bound (the ablation bench demonstrates this).
#pragma once

#include <cassert>
#include <limits>
#include <vector>

#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class EBR : public detail::SchemeBase<Node, EBR<Node>> {
  using Base = detail::SchemeBase<Node, EBR<Node>>;

 public:
  static constexpr const char* kName = "EBR";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = false;

  /// Announced value of a thread that is not inside an operation.
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  explicit EBR(const Config& config)
      : Base(config),
        slots_(std::make_unique<common::Padded<Slot>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      slots_[t]->announced.store(kIdle, std::memory_order_relaxed);
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its scan
  /// reads the announced epochs through collect_snapshot).
  ~EBR() { this->stop_reclaimer(); }

  void start_op(int tid) noexcept {
    this->sample_retired(tid);
    auto& slot = *slots_[tid];
    slot.announced.store(global_epoch_.load(std::memory_order_acquire),
                         std::memory_order_relaxed);
    // The announcement must be visible before any shared read of the
    // operation, or a reclaimer may miss this thread entirely.
    counted_fence(this->thread_stats(tid));
    this->oracle_start_op(tid);
  }

  void end_op(int tid) noexcept {
    // Oracle first (shadow references must die before the announcement
    // that justifies them is withdrawn).
    this->oracle_end_op(tid);
    slots_[tid]->announced.store(kIdle, std::memory_order_release);
  }

  /// Thread departure: mark the slot idle so a thread that died with an
  /// announced epoch stops holding back everyone's horizon.
  void on_detach(int tid) noexcept {
    slots_[tid]->announced.store(kIdle, std::memory_order_release);
  }

  TaggedPtr read(int tid, int refno, const AtomicTaggedPtr& src) noexcept {
    this->chaos_protect(tid);
    auto& stats = this->thread_stats(tid);
    stats.bump(stats.reads);
    return this->oracle_checked_read(
        tid, refno, src.load(std::memory_order_acquire), src);
  }

  /// Oracle coverage: an announced (non-idle) epoch covers every node not
  /// yet retired (retire == 0; epochs start at 1) or retired at/after the
  /// announcement — the one-thread mirror of the horizon predicate.
  bool oracle_covers(int tid, const Node* node) const noexcept {
    const std::uint64_t announced =
        slots_[tid]->announced.load(std::memory_order_relaxed);
    if (announced == kIdle) return false;
    const std::uint64_t retire = node->smr_header.retire_relaxed();
    return retire == 0 || retire >= announced;
  }

  std::uint64_t epoch_now() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }

  void chaos_advance_epoch(std::uint64_t by) noexcept {
    global_epoch_.fetch_add(by, std::memory_order_acq_rel);
  }

  void on_alloc_tick(int tid, std::uint64_t count) noexcept {
    if (count % this->config().effective_epoch_freq() == 0) {
      const std::uint64_t next =
          global_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
      this->trace_event(tid, obs::TraceEvent::kEpochAdvance, next);
    }
  }

  /// The reclamation horizon: the minimum epoch any thread has announced.
  /// A node retired strictly before it cannot be reachable by anyone.
  struct Snapshot {
    std::uint64_t horizon = kIdle;
  };

  void collect_snapshot(Snapshot& snapshot) const noexcept {
    snapshot.horizon = kIdle;
    for (std::size_t t = 0; t < this->config().max_threads; ++t) {
      const std::uint64_t announced =
          slots_[t]->announced.load(std::memory_order_acquire);
      snapshot.horizon = std::min(snapshot.horizon, announced);
    }
  }

  bool snapshot_protects(const Node* node,
                         const Snapshot& snapshot) const noexcept {
    return node->smr_header.retire_relaxed() >= snapshot.horizon;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> announced;
  };

  std::atomic<std::uint64_t> global_epoch_{1};
  std::unique_ptr<common::Padded<Slot>[]> slots_;
};

}  // namespace mp::smr
