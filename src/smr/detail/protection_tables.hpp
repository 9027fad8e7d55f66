// The two per-thread announcement tables more than one scheme shares.
//
// A scheme's protocol decides WHAT it announces and when; the table owns
// the announcement storage (one padded row per thread) and both halves of
// the question "does this announcement protect that node?": the snapshot
// half the reclamation engine filters retired lists with, and the
// one-thread oracle_covers half the ProtectionOracle asserts on every
// protected read.
//
//   HazardTable  Michael's hazard slots: HP's slots and MP's paired
//                hazards (the §4.3.2 fallback).
//   EpochTable   one announced epoch per thread and the minimum-epoch
//                horizon: EBR, and DTA's EBR-style reclamation.
//
// Each row can carry the scheme's other per-thread announcements as an
// `Extra` payload (MP's margins and epoch, DTA's anchor), so they stay on
// the row's padded lines exactly where they were before the table existed.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/align.hpp"
#include "smr/config.hpp"
#include "smr/stats.hpp"
#include "smr/tagged_ptr.hpp"

namespace mp::smr::detail {

/// Row payload of a scheme with nothing else to announce.
struct NoExtra {};

template <typename Node, typename Extra = NoExtra>
class HazardTable {
 public:
  struct Row {
    std::atomic<Node*> hazards[kMaxSlotsPerThread];
    [[no_unique_address]] Extra extra;
  };

  /// Every announced hazard, sorted for binary search: collected once and
  /// queried per retired node (the paper's §6 snapshot optimization).
  struct Snapshot {
    std::vector<const Node*> hazards;

    bool protects(const Node* node) const noexcept {
      return std::binary_search(hazards.begin(), hazards.end(), node);
    }
  };

  explicit HazardTable(const Config& config)
      : threads_(config.max_threads),
        per_thread_(config.slots_per_thread),
        rows_(std::make_unique<common::Padded<Row>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < threads_; ++t) {
      for (auto& hazard : rows_[t]->hazards) {
        hazard.store(nullptr, std::memory_order_relaxed);
      }
    }
  }

  Row& row(int tid) noexcept { return *rows_[tid]; }
  const Row& row(int tid) const noexcept { return *rows_[tid]; }

  /// One round of the hazard-pointer protocol for `node`, loaded from
  /// `src` as `observed`: announce it in slot `refno` unless the slot
  /// already names it, fence, and validate that `src` still holds the same
  /// word. True means the node is protected. `revoke` runs just before the
  /// slot is overwritten: the overwrite ends the old node's protection, so
  /// the oracle's shadow reference must die first (scheme_base.hpp).
  template <typename Revoke>
  bool try_protect(int tid, int refno, Node* node, TaggedPtr observed,
                   const AtomicTaggedPtr& src, ThreadStats& stats,
                   Revoke&& revoke) noexcept {
    auto& hazard = rows_[tid]->hazards[refno];
    if (hazard.load(std::memory_order_relaxed) == node) return true;
    revoke();
    hazard.store(node, std::memory_order_relaxed);
    stats.bump(stats.slow_protects);
    counted_fence(stats);
    return src.load(std::memory_order_acquire) == observed;
  }

  void store(int tid, int refno, Node* node) noexcept {
    rows_[tid]->hazards[refno].store(node, std::memory_order_relaxed);
  }

  /// Announce `node` without validation (the caller knows it is alive).
  void pin(int tid, int refno, Node* node, ThreadStats& stats) noexcept {
    store(tid, refno, node);
    counted_fence(stats);
  }

  /// Clear every slot of `tid`: relaxed at end_op (the caller's one fence
  /// publishes all clears, §6), release at detach.
  void clear(int tid, std::memory_order order) noexcept {
    auto& row = *rows_[tid];
    for (int i = 0; i < per_thread_; ++i) {
      row.hazards[i].store(nullptr, order);
    }
  }

  /// Oracle half: does one of `tid`'s slots name `node`?
  bool names(int tid, const Node* node) const noexcept {
    const auto& row = *rows_[tid];
    for (int i = 0; i < per_thread_; ++i) {
      if (row.hazards[i].load(std::memory_order_relaxed) == node) return true;
    }
    return false;
  }

  /// Snapshot half: gather every thread's non-null hazards and sort them.
  /// `on_row(row)` runs on each row before its hazards are loaded, for the
  /// scheme's own payload.
  template <typename OnRow>
  void collect(Snapshot& snapshot, OnRow&& on_row) const {
    snapshot.hazards.clear();
    snapshot.hazards.reserve(threads_ * static_cast<std::size_t>(per_thread_));
    for (std::size_t t = 0; t < threads_; ++t) {
      // Each row is its own padded block; fetch the next one while this
      // one's loads retire.
      if (t + 1 < threads_) __builtin_prefetch(&rows_[t + 1]);
      const auto& row = *rows_[t];
      on_row(row);
      for (int i = 0; i < per_thread_; ++i) {
        const Node* hazard = row.hazards[i].load(std::memory_order_acquire);
        if (hazard != nullptr) snapshot.hazards.push_back(hazard);
      }
    }
    std::sort(snapshot.hazards.begin(), snapshot.hazards.end());
  }

  void collect(Snapshot& snapshot) const {
    collect(snapshot, [](const Row&) noexcept {});
  }

 private:
  std::size_t threads_;
  int per_thread_;
  std::unique_ptr<common::Padded<Row>[]> rows_;
};

template <typename Node, typename Extra = NoExtra>
class EpochTable {
 public:
  /// Announced value of a thread that is not inside an operation.
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  struct Row {
    std::atomic<std::uint64_t> announced;
    [[no_unique_address]] Extra extra;
  };

  /// The reclamation horizon: the minimum announced epoch. A node retired
  /// strictly before it cannot be reachable by anyone.
  struct Snapshot {
    std::uint64_t horizon = kIdle;

    bool protects(const Node* node) const noexcept {
      return node->smr_header.retire_relaxed() >= horizon;
    }
  };

  explicit EpochTable(const Config& config)
      : threads_(config.max_threads),
        rows_(std::make_unique<common::Padded<Row>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < threads_; ++t) {
      rows_[t]->announced.store(kIdle, std::memory_order_relaxed);
    }
  }

  Row& row(int tid) noexcept { return *rows_[tid]; }

  /// Announce `epoch` for `tid`. The fence makes the announcement visible
  /// before any shared read of the operation, or a reclaimer may miss this
  /// thread entirely.
  void announce(int tid, std::uint64_t epoch, ThreadStats& stats) noexcept {
    rows_[tid]->announced.store(epoch, std::memory_order_relaxed);
    counted_fence(stats);
  }

  /// Withdraw `tid`'s announcement (end_op, or detach so a departed
  /// thread stops holding back everyone's horizon).
  void idle(int tid) noexcept {
    rows_[tid]->announced.store(kIdle, std::memory_order_release);
  }

  /// Oracle half: a non-idle announcement covers every node not yet
  /// retired (retire == 0; epochs start at 1) or retired at or after it.
  bool covers(int tid, const Node* node) const noexcept {
    const std::uint64_t announced =
        rows_[tid]->announced.load(std::memory_order_relaxed);
    if (announced == kIdle) return false;
    const std::uint64_t retire = node->smr_header.retire_relaxed();
    return retire == 0 || retire >= announced;
  }

  /// Snapshot half: the minimum over every thread's announcement.
  void collect(Snapshot& snapshot) const noexcept {
    snapshot.horizon = kIdle;
    for (std::size_t t = 0; t < threads_; ++t) {
      snapshot.horizon = std::min(
          snapshot.horizon, rows_[t]->announced.load(std::memory_order_acquire));
    }
  }

 private:
  std::size_t threads_;
  std::unique_ptr<common::Padded<Row>[]> rows_;
};

}  // namespace mp::smr::detail
