// Drop the Anchor (Braginsky, Kogan & Petrank, SPAA 2013) — paper §3.1.
//
// DTA reduces HP overhead by posting an *anchor* once every
// kAnchorDistance node traversals instead of a hazard pointer per
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

#include "smr/detail/protection_tables.hpp"
#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class DTA : public detail::SchemeBase<Node, DTA<Node>> {
  using Base = detail::SchemeBase<Node, DTA<Node>>;

  /// The anchor, carried on each epoch-table row.
  struct Anchor {
    std::atomic<Node*> anchor{nullptr};
    // Owner-local traversal counter; sharing the padded line is fine since
    // only the owner touches it on the hot path.
    int hops = 0;
  };
  using Epochs = detail::EpochTable<Node, Anchor>;

 public:
  static constexpr const char* kName = "DTA";
  static constexpr bool kBoundedWaste = false;  // frozen set can be unbounded
  static constexpr bool kRobust = false;        // see header comment
  static constexpr detail::EpochClock kEpochClock = detail::EpochClock::kAllocs;

  /// Node traversals between anchor announcements (paper: 100).
  static constexpr int kAnchorDistance = 100;

  explicit DTA(const Config& config) : Base(config), epochs_(config) {}

  /// Joins the background reclaimer while epochs_ is still alive (its scan
  /// reads the announced epochs through collect_row).
  ~DTA() { this->stop_reclaimer(); }

  void announce(int tid) noexcept {
    epochs_.row(tid).extra.hops = 0;
    epochs_.announce(tid, this->global_epoch_->load(std::memory_order_acquire),
                     this->thread_stats(tid));
  }

  void withdraw(int tid) noexcept {
    epochs_.row(tid).extra.anchor.store(nullptr, std::memory_order_relaxed);
    epochs_.idle(tid);
  }

  TaggedPtr protect(int tid, int /*refno*/, const AtomicTaggedPtr& src,
                    ThreadStats& stats) noexcept {
    auto& slot = epochs_.row(tid).extra;
    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      Node* node = observed.template ptr<Node>();
      if (node == nullptr) return observed;
      if (++slot.hops < kAnchorDistance) return observed;
      // Time to drop the anchor: post, publish, and validate that the node
      // is still linked (same protocol as a hazard pointer, but amortized
      // over kAnchorDistance traversals).
      slot.anchor.store(node, std::memory_order_relaxed);
      stats.bump(stats.slow_protects);
      counted_fence(stats);
      if (src.load(std::memory_order_acquire) == observed) {
        slot.hops = 0;
        return observed;
      }
    }
  }

  /// Thread departure: clear the anchor and mark the epoch slot idle, so a
  /// thread that died mid-traversal stops holding back the EBR horizon
  /// (the exact stall pathology the header comment describes — detach is
  /// the one recovery DTA gets without list-specific freezing).
  void on_detach(int tid) noexcept {
    withdraw(tid);
    epochs_.row(tid).extra.hops = 0;
  }

  /// EBR-style reclamation horizon (anchors play no role in the scan; see
  /// the header comment on the conservative recovery deviation).
  using Snapshot = typename Epochs::Snapshot;

  void collect_row(int tid, Snapshot& snapshot) const noexcept {
    epochs_.collect_row(tid, snapshot);
  }

 private:
  Epochs epochs_;
};

}  // namespace mp::smr
