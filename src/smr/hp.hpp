// Hazard pointers (Michael, IEEE TPDS 2004) — paper §3.1.
//
// Each thread owns `slots_per_thread` hazard slots. read() announces the
// target node in the caller's slot, issues a fence, and validates that the
// source pointer is unchanged; success means the node was linked throughout,
// so it is protected until the slot is overwritten or the operation ends.
//
// Wasted memory is bounded by O(#slots × T): empty() frees every retired
// node not named by some hazard slot.
//
// Includes the paper's §6 optimizations: one fence when an operation ends
// (not one per cleared slot), and empty() snapshots all hazard slots once
// and queries the snapshot.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

// kMaxSlotsPerThread lives in config.hpp (Config::validate checks it).

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

  explicit HP(const Config& config)
      : Base(config),
        slots_(std::make_unique<common::Padded<Slots>[]>(config.max_threads)) {
    assert(config.slots_per_thread <= kMaxSlotsPerThread);
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      for (auto& slot : slots_[t]->hazard) {
        slot.store(nullptr, std::memory_order_relaxed);
      }
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its scan
  /// reads the hazard slots through collect_snapshot).
  ~HP() { this->stop_reclaimer(); }

  void start_op(int tid) noexcept {
    this->sample_retired(tid);
    this->oracle_start_op(tid);
  }

  void end_op(int tid) noexcept {
    // Oracle first (shadow references must die before the physical slots
    // they mirror are cleared; see the ordering contract in scheme_base).
    this->oracle_end_op(tid);
    auto& slots = *slots_[tid];
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      slots.hazard[i].store(nullptr, std::memory_order_relaxed);
    }
    // One fence for all clears (§6 "Optimizations to IBR Framework").
    counted_fence(this->thread_stats(tid));
  }

  TaggedPtr read(int tid, int refno, const AtomicTaggedPtr& src) noexcept {
    assert(refno >= 0 && refno < this->config().slots_per_thread);
    this->chaos_protect(tid);
    auto& stats = this->thread_stats(tid);
    auto& slot = slots_[tid]->hazard[refno];
    stats.bump(stats.reads);
    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      Node* node = observed.template ptr<Node>();
      if (node == nullptr) return observed;
      if (slot.load(std::memory_order_relaxed) == node) {
        return this->oracle_checked_read(tid, refno, observed, src);
      }
      // Overwriting the slot revokes whatever it protected: the shadow
      // reference must die first (ordering contract in scheme_base.hpp).
      this->oracle_unprotect_hook(tid, refno);
      slot.store(node, std::memory_order_relaxed);
      stats.bump(stats.slow_protects);
      counted_fence(stats);
      // The announcement is globally visible; if the source still holds the
      // same word, the node was linked throughout and is now protected.
      if (src.load(std::memory_order_acquire) == observed) {
        return this->oracle_checked_read(tid, refno, observed, src);
      }
    }
  }

  void unprotect(int tid, int refno) noexcept {
    this->oracle_unprotect_hook(tid, refno);
    slots_[tid]->hazard[refno].store(nullptr, std::memory_order_relaxed);
  }

  void pin(int tid, int refno, Node* node) noexcept {
    this->oracle_unprotect_hook(tid, refno);
    slots_[tid]->hazard[refno].store(node, std::memory_order_relaxed);
    counted_fence(this->thread_stats(tid));
    this->oracle_pin_hook(tid, refno, node);
  }

  /// Oracle coverage (one-thread mirror of snapshot_protects): a node is
  /// covered for `tid` iff one of its hazard slots names the node.
  bool oracle_covers(int tid, const Node* node) const noexcept {
    const auto& slots = *slots_[tid];
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      if (slots.hazard[i].load(std::memory_order_relaxed) == node) return true;
    }
    return false;
  }

  /// Thread departure: clear every hazard slot so nothing the dead thread
  /// announced keeps surviving empty() passes. Release stores, not the
  /// end_op fence: detach runs once per departure (cold), and the release
  /// ordering pairs with empty()'s acquire snapshot of the slots.
  void on_detach(int tid) noexcept {
    auto& slots = *slots_[tid];
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      slots.hazard[i].store(nullptr, std::memory_order_release);
    }
  }

  /// One collected view of every hazard slot, sorted for binary search.
  /// Collected once and queried per retired node — by the owning thread once
  /// per pass, or once per wakeup for ALL queued batches by the background
  /// reclaimer (the §6 snapshot optimization, amortized further).
  struct Snapshot {
    std::vector<const Node*> hazards;
  };

  void collect_snapshot(Snapshot& snapshot) const {
    snapshot.hazards.clear();
    const int per_thread = this->config().slots_per_thread;
    snapshot.hazards.reserve(this->config().max_threads *
                             static_cast<std::size_t>(per_thread));
    for (std::size_t t = 0; t < this->config().max_threads; ++t) {
      // Each thread's slots live on their own padded line; fetch the next
      // line while this one's loads retire.
      if (t + 1 < this->config().max_threads) {
        __builtin_prefetch(&slots_[t + 1]);
      }
      for (int i = 0; i < per_thread; ++i) {
        const Node* hazard =
            slots_[t]->hazard[i].load(std::memory_order_acquire);
        if (hazard != nullptr) snapshot.hazards.push_back(hazard);
      }
    }
    std::sort(snapshot.hazards.begin(), snapshot.hazards.end());
  }

  bool snapshot_protects(const Node* node,
                         const Snapshot& snapshot) const noexcept {
    return std::binary_search(snapshot.hazards.begin(),
                              snapshot.hazards.end(), node);
  }

 private:
  struct Slots {
    std::atomic<Node*> hazard[kMaxSlotsPerThread];
  };

  std::unique_ptr<common::Padded<Slots>[]> slots_;
};

}  // namespace mp::smr
