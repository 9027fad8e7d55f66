// Stamp-it — epoch-based reclamation with O(1) thread-efficient stamp
// management (Pöter & Träff, SPAA 2018 brief announcement / CoRR 2018).
//
// EBR's weakness is the O(T) horizon computation: deciding "what is the
// oldest active operation?" scans every thread's announcement. Stamp-it
// keeps the active threads in a doubly-linked list ordered by *stamp* (the
// base's global epoch, ticked each time a thread enrolls), so the oldest
// active operation is simply the list head and the horizon is its stamp —
// O(1) to read, O(1) amortized to maintain:
//
//   * start_op fast path: one CAS flips the thread's own list entry from
//     quiescent back to active, keeping its position and stamp. The CAS
//     races only with a "popper" claiming the quiescent entry off the
//     head; whoever wins decides (lost claim -> the thread re-enrolls).
//   * end_op: one release store marks the entry quiescent; it stays in
//     the list, so the next start_op reactivates it in place. The horizon
//     advances only when a reclamation pass reaps the run of quiescent
//     heads (reap-on-collect), and on enroll and detach.
//   * DEBRA-style amortization: every kAnnounceFreq operations the fast
//     path is skipped and the thread re-enrolls at the tail with a fresh
//     stamp, bounding how far one busy thread's stale stamp can hold the
//     horizon back.
//
// List surgery (enroll, unlink, pop) runs under one mutex — it is off the
// per-operation fast path (taken every kAnnounceFreq ops, on a lost claim
// race, on detach, or by a pass's try_lock) and the paper's lock-free list
// machinery is orthogonal to what this reproduction measures. The
// active/quiescent/removed state word itself is always manipulated with
// atomic RMWs so the fast path never touches the mutex, and the
// quiescent->removed claim is the only cross-thread transition.
//
// Reclamation is the classic snapshot pass shared with EBR/HE/IBR: the
// snapshot is the single horizon stamp, and a retired node is freed once
// its retire stamp predates it. All the incremental-scan and background-
// reclaimer machinery applies unchanged (kSnapshotFree = false).
//
// Wasted-memory bound: none (the base's kUnboundedWaste default) — one
// thread stalled inside an operation pins the horizon at its stamp
// forever, like every EBR-family scheme. Not robust for the same reason.
// Chaos epoch storms only raise later enrollment and retire stamps; the
// horizon (and so reclamation) is unaffected until the threads re-enroll.
#pragma once

#include <cassert>
#include <cstdint>
#include <mutex>

#include "smr/detail/protection_tables.hpp"
#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class Stampit : public detail::SchemeBase<Node, Stampit<Node>> {
  using Base = detail::SchemeBase<Node, Stampit<Node>>;

 public:
  static constexpr const char* kName = "Stampit";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = false;

  /// Operations between forced re-enrollments (the DEBRA amortization):
  /// a busy thread's horizon contribution lags by at most this many ops.
  static constexpr std::uint64_t kAnnounceFreq = 64;

  explicit Stampit(const Config& config)
      : Base(config),
        entries_(
            std::make_unique<common::Padded<Entry>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      entries_[t]->state.store(kRemoved, std::memory_order_relaxed);
      entries_[t]->stamp.store(0, std::memory_order_relaxed);
    }
  }

  /// Joins the background reclaimer while entries_ is still alive (its
  /// scan reads the horizon through collect_snapshot).
  ~Stampit() { this->stop_reclaimer(); }

  void announce(int tid) noexcept {
    auto& entry = *entries_[tid];
    auto& stats = this->thread_stats(tid);
    if (++entry.ops % kAnnounceFreq != 0) {
      // Fast path: reactivate in place, keeping position and stamp. The
      // CAS is the announcement (no real fence; account it like one) and
      // the atomic arbitration against a popper's quiescent->removed
      // claim: exactly one of the two RMWs succeeds.
      std::uint64_t expected = kQuiescent;
      if (entry.state.compare_exchange_strong(expected, kActive,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        stats.bump(stats.fences);
        return;
      }
      // Lost the claim race (or first op on this tid): re-enroll.
      stats.bump(stats.slow_protects);
    }
    enroll(tid);
    stats.bump(stats.fences);
  }

  void withdraw(int tid) noexcept {
    auto& entry = *entries_[tid];
    assert(entry.state.load(std::memory_order_relaxed) == kActive);
    entry.state.store(kQuiescent, std::memory_order_release);
  }

  /// Thread departure: take the entry out of the list so a dead thread's
  /// stale stamp never holds the horizon back. The tid is quiescent by
  /// contract (kQuiescent in-list, or already popped to kRemoved).
  void on_detach(int tid) noexcept {
    std::lock_guard<std::mutex> lock(list_mutex_);
    auto& entry = *entries_[tid];
    if (entry.state.load(std::memory_order_relaxed) != kRemoved) {
      unlink_locked(tid);
      entry.state.store(kRemoved, std::memory_order_release);
    }
    entry.ops = 0;  // the tid's next leaseholder starts a fresh cadence
    advance_horizon_locked();
  }

  /// One horizon stamp — the whole protection snapshot. A retired node is
  /// freed once every operation that could have seen it (stamp < retire
  /// stamp is impossible for a reachable node) has left the list.
  using Snapshot = detail::HorizonSnapshot<Node>;

  /// One row: the entry's own stamp while it is active. The all-rows
  /// collection below reads the published head stamp instead of looping.
  void collect_row(int tid, Snapshot& snapshot) const noexcept {
    const auto& entry = *entries_[tid];
    if (entry.state.load(std::memory_order_acquire) == kActive) {
      snapshot.add(entry.stamp.load(std::memory_order_acquire));
    }
  }

  /// Concept-visible O(1) collection: read the published horizon.
  void collect_snapshot(Snapshot& snapshot) const noexcept {
    snapshot.horizon = horizon_.load(std::memory_order_acquire);
  }

  /// Non-const overload, preferred by the scan cursor and the background
  /// reclaimer (both hold a Scheme&): first reap any run of quiescent heads
  /// so the horizon is as fresh as a try_lock allows. With enroll and
  /// on_detach, this is where the horizon advances: end_op never does.
  void collect_snapshot(Snapshot& snapshot) noexcept {
    if (list_mutex_.try_lock()) {
      advance_horizon_locked();
      list_mutex_.unlock();
    }
    snapshot.horizon = horizon_.load(std::memory_order_acquire);
  }

 private:
  // Entry states. kRemoved <=> not in the list; only the owner leaves
  // kRemoved (under the mutex), and only a popper's CAS or the owner's
  // detach enters it.
  static constexpr std::uint64_t kRemoved = 0;
  static constexpr std::uint64_t kQuiescent = 1;
  static constexpr std::uint64_t kActive = 2;
  static constexpr int kNil = -1;

  struct Entry {
    std::atomic<std::uint64_t> state{kRemoved};
    std::atomic<std::uint64_t> stamp{0};
    // List links and the op counter: links only under list_mutex_; ops is
    // owner-local.
    int prev = kNil;
    int next = kNil;
    std::uint64_t ops = 0;
  };

  /// Slow path of start_op: (re-)enroll at the tail with a fresh stamp.
  void enroll(int tid) noexcept {
    std::lock_guard<std::mutex> lock(list_mutex_);
    auto& entry = *entries_[tid];
    if (entry.state.load(std::memory_order_relaxed) != kRemoved) {
      // Announce-refresh: still in the list (quiescent); move to the tail
      // so the list stays stamp-sorted once the new stamp lands.
      unlink_locked(tid);
    }
    const std::uint64_t stamp = this->advance_epoch();
    entry.stamp.store(stamp, std::memory_order_release);
    entry.state.store(kActive, std::memory_order_release);
    append_tail_locked(tid);
    // Enrolling may itself unblock the horizon (we might have been the
    // stale head) — and a previously empty list needs its first horizon.
    advance_horizon_locked();
  }

  /// Pop the run of quiescent heads (claiming each with a CAS that races
  /// the owner's fast-path reactivation) and publish the new horizon: the
  /// surviving head's stamp, or "everything retired so far is free" when
  /// the list drained. Caller holds list_mutex_.
  void advance_horizon_locked() noexcept {
    while (head_ != kNil) {
      auto& head = *entries_[head_];
      std::uint64_t expected = kQuiescent;
      if (!head.state.compare_exchange_strong(expected, kRemoved,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        break;  // active head (or its owner won the reactivation race)
      }
      unlink_locked(head_);
    }
    const std::uint64_t horizon =
        head_ != kNil
            ? entries_[head_]->stamp.load(std::memory_order_relaxed)
            : this->global_epoch_->load(std::memory_order_relaxed) + 1;
    horizon_.store(horizon, std::memory_order_release);
  }

  void append_tail_locked(int tid) noexcept {
    auto& entry = *entries_[tid];
    entry.prev = tail_;
    entry.next = kNil;
    if (tail_ != kNil) {
      entries_[tail_]->next = tid;
    } else {
      head_ = tid;
    }
    tail_ = tid;
  }

  void unlink_locked(int tid) noexcept {
    auto& entry = *entries_[tid];
    if (entry.prev != kNil) {
      entries_[entry.prev]->next = entry.next;
    } else {
      head_ = entry.next;
    }
    if (entry.next != kNil) {
      entries_[entry.next]->prev = entry.prev;
    } else {
      tail_ = entry.prev;
    }
    entry.prev = kNil;
    entry.next = kNil;
  }

  /// Published horizon: the oldest in-list stamp (release stores under
  /// the mutex, acquire loads anywhere).
  std::atomic<std::uint64_t> horizon_{1};
  std::unique_ptr<common::Padded<Entry>[]> entries_;
  /// Guards head_/tail_ and every Entry's prev/next.
  std::mutex list_mutex_;
  int head_ = kNil;
  int tail_ = kNil;
};

}  // namespace mp::smr
