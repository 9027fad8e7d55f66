// Hazard pointers (Michael, IEEE TPDS 2004) — paper §3.1.
//
// Each thread owns `slots_per_thread` hazard slots (detail::HazardTable,
// shared with MP's fallback). read() announces the target node in the
// caller's slot, issues a fence, and validates that the source pointer is
// unchanged; success means the node was linked throughout, so it is
// protected until the slot is overwritten or the operation ends.
//
// Wasted memory is bounded by O(#slots × T): empty() frees every retired
// node not named by some hazard slot.
//
// Includes the paper's §6 optimizations: one fence when an operation ends
// (not one per cleared slot), and empty() snapshots all hazard slots once
// and queries the snapshot.
#pragma once

#include <cassert>

#include "smr/detail/protection_tables.hpp"
#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class HP : public detail::SchemeBase<Node, HP<Node>> {
  using Base = detail::SchemeBase<Node, HP<Node>>;

 public:
  static constexpr const char* kName = "HP";
  static constexpr bool kBoundedWaste = true;
  static constexpr bool kRobust = true;

  /// Per-thread wasted-memory bound: every retired node that survives an
  /// empty() is named by one of the #HP*T hazard slots, plus up to
  /// empty_freq nodes buffered since the last scheduled pass.
  static std::uint64_t waste_bound_per_thread(const Config& config) noexcept {
    return sat_add(
        sat_mul(static_cast<std::uint64_t>(config.slots_per_thread),
                config.max_threads),
        static_cast<std::uint64_t>(config.empty_freq));
  }

  explicit HP(const Config& config) : Base(config), hazards_(config) {}

  /// Joins the background reclaimer while hazards_ is still alive (its
  /// scan reads the hazard slots through collect_row).
  ~HP() { this->stop_reclaimer(); }

  void withdraw(int tid) noexcept {
    hazards_.clear(tid, std::memory_order_relaxed);
    // One fence for all clears (§6 "Optimizations to IBR Framework").
    counted_fence(this->thread_stats(tid));
  }

  TaggedPtr protect(int tid, int refno, const AtomicTaggedPtr& src,
                    ThreadStats& stats) noexcept {
    assert(refno >= 0 && refno < this->config().slots_per_thread);
    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      Node* node = observed.template ptr<Node>();
      // Once the announcement is globally visible and the source still
      // holds the same word, the node was linked throughout and is
      // protected.
      if (node == nullptr ||
          hazards_.try_protect(tid, refno, node, observed, src, stats, [&] {
            this->oracle_unprotect_hook(tid, refno);
          })) {
        return observed;
      }
    }
  }

  void unprotect(int tid, int refno) noexcept {
    this->oracle_unprotect_hook(tid, refno);
    hazards_.store(tid, refno, nullptr);
  }

  void pin(int tid, int refno, Node* node) noexcept {
    this->oracle_unprotect_hook(tid, refno);
    hazards_.pin(tid, refno, node, this->thread_stats(tid));
    this->oracle_pin_hook(tid, refno, node);
  }

  /// Thread departure: clear every hazard slot so nothing the dead thread
  /// announced keeps surviving empty() passes. Release stores, not the
  /// end_op fence: detach runs once per departure (cold), and the release
  /// ordering pairs with empty()'s acquire snapshot of the slots.
  void on_detach(int tid) noexcept {
    hazards_.clear(tid, std::memory_order_release);
  }

  /// One collected view of every hazard slot, sorted for binary search.
  /// Collected once and queried per retired node — by the owning thread once
  /// per pass, or once per wakeup for ALL queued batches by the background
  /// reclaimer (the §6 snapshot optimization, amortized further).
  using Snapshot = typename detail::HazardTable<Node>::Snapshot;

  void collect_row(int tid, Snapshot& snapshot) const {
    hazards_.collect_row(tid, snapshot);
  }

 private:
  detail::HazardTable<Node> hazards_;
};

}  // namespace mp::smr
