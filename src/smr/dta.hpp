// Drop the Anchor (Braginsky, Kogan & Petrank, SPAA 2013) — paper §3.1.
//
// DTA reduces HP overhead by posting an *anchor* once every
// `anchor_distance` node traversals instead of a hazard pointer per
// dereference; the anchor conceptually protects every node within that
// distance. Reclamation runs EBR-style; anchors exist so that a stalled
// thread's neighborhood can be *frozen* (copied and made immutable),
// letting every other node be reclaimed.
//
// This implementation is faithful on the fast path (anchor posting with
// validation, EBR reclamation horizon) and conservative on recovery: the
// published freezing procedure exists only for linked lists and is the part
// of DTA the paper criticizes (an unbounded number of nodes can be frozen,
// §3.1), so when a stalled thread blocks the EBR horizon we keep its
// pre-stall retirees buffered rather than freeze — exactly the wasted-
// memory pathology the stall ablation bench demonstrates. In the paper's
// experiments (no indefinite stall) the two behaviors coincide. See
// DESIGN.md, deviation 7.
//
// As in the paper, DTA is evaluated only on the linked list — the freezing
// technique is list-specific — though the scheme compiles for any client.
#pragma once

#include <cassert>
#include <limits>
#include <vector>

#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class DTA : public detail::SchemeBase<Node, DTA<Node>> {
  using Base = detail::SchemeBase<Node, DTA<Node>>;

 public:
  static constexpr const char* kName = "DTA";
  static constexpr bool kBoundedWaste = false;  // frozen set can be unbounded
  static constexpr bool kRobust = false;        // see header comment

  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  explicit DTA(const Config& config)
      : Base(config),
        slots_(std::make_unique<common::Padded<Slot>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      slots_[t]->announced.store(kIdle, std::memory_order_relaxed);
      slots_[t]->anchor.store(nullptr, std::memory_order_relaxed);
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its scan
  /// reads the announced epochs through collect_snapshot).
  ~DTA() { this->stop_reclaimer(); }

  void start_op(int tid) noexcept {
    this->sample_retired(tid);
    auto& slot = *slots_[tid];
    slot.announced.store(global_epoch_.load(std::memory_order_acquire),
                         std::memory_order_relaxed);
    slot.hops = 0;
    counted_fence(this->thread_stats(tid));
    this->oracle_start_op(tid);
  }

  void end_op(int tid) noexcept {
    // Oracle first (shadow references must die before the announcement
    // that justifies them is withdrawn).
    this->oracle_end_op(tid);
    auto& slot = *slots_[tid];
    slot.anchor.store(nullptr, std::memory_order_relaxed);
    slot.announced.store(kIdle, std::memory_order_release);
  }

  TaggedPtr read(int tid, int refno, const AtomicTaggedPtr& src) noexcept {
    this->chaos_protect(tid);
    auto& stats = this->thread_stats(tid);
    auto& slot = *slots_[tid];
    stats.bump(stats.reads);
    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      Node* node = observed.template ptr<Node>();
      if (node == nullptr) return observed;
      if (++slot.hops < this->config().anchor_distance) {
        return this->oracle_checked_read(tid, refno, observed, src);
      }
      // Time to drop the anchor: post, publish, and validate that the node
      // is still linked (same protocol as a hazard pointer, but amortized
      // over anchor_distance traversals).
      slot.anchor.store(node, std::memory_order_relaxed);
      stats.bump(stats.slow_protects);
      counted_fence(stats);
      if (src.load(std::memory_order_acquire) == observed) {
        slot.hops = 0;
        return this->oracle_checked_read(tid, refno, observed, src);
      }
    }
  }

  /// Oracle coverage: reclamation is EBR-style (anchors play no role in
  /// the scan), so coverage is the per-thread horizon predicate.
  bool oracle_covers(int tid, const Node* node) const noexcept {
    const std::uint64_t announced =
        slots_[tid]->announced.load(std::memory_order_relaxed);
    if (announced == kIdle) return false;
    const std::uint64_t retire = node->smr_header.retire_relaxed();
    return retire == 0 || retire >= announced;
  }

  /// Thread departure: clear the anchor and mark the epoch slot idle, so a
  /// thread that died mid-traversal stops holding back the EBR horizon
  /// (the exact stall pathology the header comment describes — detach is
  /// the one recovery DTA gets without list-specific freezing).
  void on_detach(int tid) noexcept {
    auto& slot = *slots_[tid];
    slot.anchor.store(nullptr, std::memory_order_relaxed);
    slot.announced.store(kIdle, std::memory_order_release);
    slot.hops = 0;
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

  /// EBR-style reclamation horizon (anchors play no role in the scan; see
  /// the header comment on the conservative recovery deviation).
  struct Snapshot {
    std::uint64_t horizon = kIdle;
  };

  void collect_snapshot(Snapshot& snapshot) const noexcept {
    snapshot.horizon = kIdle;
    for (std::size_t t = 0; t < this->config().max_threads; ++t) {
      snapshot.horizon =
          std::min(snapshot.horizon,
                   slots_[t]->announced.load(std::memory_order_acquire));
    }
  }

  bool snapshot_protects(const Node* node,
                         const Snapshot& snapshot) const noexcept {
    return node->smr_header.retire_relaxed() >= snapshot.horizon;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> announced;
    std::atomic<Node*> anchor;
    // Owner-local traversal counter; sharing the padded line is fine since
    // only the owner touches it on the hot path.
    int hops = 0;
  };

  std::atomic<std::uint64_t> global_epoch_{1};
  std::unique_ptr<common::Padded<Slot>[]> slots_;
};

}  // namespace mp::smr
