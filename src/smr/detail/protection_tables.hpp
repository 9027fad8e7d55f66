// The per-thread announcement tables more than one scheme shares, and the
// horizon snapshot the epoch-family schemes share.
//
// A scheme's protocol decides WHAT it announces and when; the table owns
// the announcement storage (one padded row per thread), appends one row's
// announcements to a snapshot (`collect_row`), and its Snapshot type holds
// the scheme's one protection predicate (`protects`). SchemeBase builds
// both consumers from those two pieces (scheme_base.hpp): the all-rows
// snapshot the reclamation engine filters retired lists with, and the
// one-row snapshot the ProtectionOracle asks on every protected read.
//
//   HazardTable      Michael's hazard slots: HP's slots and MP's paired
//                    hazards (the §4.3.2 fallback).
//   EpochTable       one announced epoch per thread: EBR, and DTA's
//                    EBR-style reclamation.
//   HorizonSnapshot  the minimum announced epoch: EpochTable's and
//                    Stamp-it's snapshot, Hyaline's one-row oracle check.
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

/// The reclamation horizon: the minimum epoch an active row announced. A
/// node whose lifetime ended before it cannot be reachable by any of those
/// rows. kIdle (no active row) protects nothing, live nodes included.
template <typename Node>
struct HorizonSnapshot {
  /// Announced value of a row that is not inside an operation.
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t horizon = kIdle;

  void reset(std::size_t /*entries*/) noexcept { horizon = kIdle; }
  void add(std::uint64_t epoch) noexcept { horizon = std::min(horizon, epoch); }
  void seal() noexcept {}

  bool protects(const Node* node) const noexcept {
    return horizon != kIdle && node->smr_header.lifetime_end() >= horizon;
  }
};

template <typename Node, typename Extra = NoExtra>
class HazardTable {
 public:
  struct Row {
    std::atomic<Node*> hazards[kMaxSlotsPerThread];
    [[no_unique_address]] Extra extra;
  };

  /// Every announced hazard, sorted for binary search: collected once and
  /// queried per retired node (the paper's §6 snapshot optimization). The
  /// algorithms take pointer ranges: the oracle sorts and searches a
  /// one-row snapshot on every protected read, and its Debug builds do not
  /// inline vector iterators.
  struct Snapshot {
    std::vector<const Node*> hazards;

    void reset(std::size_t entries) {
      hazards.clear();
      hazards.reserve(entries);
    }
    void seal() { std::sort(hazards.data(), hazards.data() + hazards.size()); }

    bool protects(const Node* node) const noexcept {
      return std::binary_search(hazards.data(),
                                hazards.data() + hazards.size(), node);
    }
  };

  explicit HazardTable(const Config& config)
      : per_thread_(config.slots_per_thread),
        rows_(std::make_unique<common::Padded<Row>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < config.max_threads; ++t) {
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

  /// Append `tid`'s non-null hazards.
  void collect_row(int tid, Snapshot& snapshot) const {
    const auto& row = *rows_[tid];
    for (int i = 0; i < per_thread_; ++i) {
      const Node* hazard = row.hazards[i].load(std::memory_order_acquire);
      if (hazard != nullptr) snapshot.hazards.push_back(hazard);
    }
  }

 private:
  int per_thread_;
  std::unique_ptr<common::Padded<Row>[]> rows_;
};

template <typename Node, typename Extra = NoExtra>
class EpochTable {
 public:
  using Snapshot = HorizonSnapshot<Node>;

  /// Announced value of a thread that is not inside an operation.
  static constexpr std::uint64_t kIdle = Snapshot::kIdle;

  struct Row {
    std::atomic<std::uint64_t> announced;
    [[no_unique_address]] Extra extra;
  };

  explicit EpochTable(const Config& config)
      : rows_(std::make_unique<common::Padded<Row>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < config.max_threads; ++t) {
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

  /// Lower the horizon to `tid`'s announcement (an idle row's kIdle
  /// leaves it unchanged).
  void collect_row(int tid, Snapshot& snapshot) const noexcept {
    snapshot.add(rows_[tid]->announced.load(std::memory_order_acquire));
  }

 private:
  std::unique_ptr<common::Padded<Row>[]> rows_;
};

}  // namespace mp::smr::detail
