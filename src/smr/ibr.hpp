// Interval-based reclamation, 2GE variant (Wen et al., PPoPP 2018) — §3.3.
//
// Each thread reserves an epoch interval [lower, upper]: lower is the epoch
// announced at operation start, upper is bumped to the current global epoch
// whenever the thread observes it changed during a read. Any node the
// thread can access has its birth epoch inside the reservation, so a
// retired node is reclaimable if, for every active thread, it was retired
// before the reservation started or born after it ended.
//
// Unlike HE there is one reservation per thread (not per slot), so an epoch
// change costs a single store + fence — IBR's published advantage over HE.
// Robust but not bounded, like HE.
#pragma once

#include <cassert>
#include <limits>
#include <vector>

#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class IBR : public detail::SchemeBase<Node, IBR<Node>> {
  using Base = detail::SchemeBase<Node, IBR<Node>>;

 public:
  static constexpr const char* kName = "IBR";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = true;
  static constexpr detail::EpochClock kEpochClock = detail::EpochClock::kAllocs;

  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  explicit IBR(const Config& config)
      : Base(config),
        slots_(std::make_unique<common::Padded<Slot>[]>(config.max_threads)) {
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      slots_[t]->lower.store(kIdle, std::memory_order_relaxed);
      slots_[t]->upper.store(kIdle, std::memory_order_relaxed);
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its scan
  /// reads the interval reservations through collect_row).
  ~IBR() { this->stop_reclaimer(); }

  void announce(int tid) noexcept {
    auto& slot = *slots_[tid];
    const std::uint64_t epoch =
        this->global_epoch_->load(std::memory_order_acquire);
    slot.lower.store(epoch, std::memory_order_relaxed);
    slot.upper.store(epoch, std::memory_order_relaxed);
    slot.cached_upper = epoch;
    counted_fence(this->thread_stats(tid));
  }

  void withdraw(int tid) noexcept {
    auto& slot = *slots_[tid];
    slot.lower.store(kIdle, std::memory_order_relaxed);
    slot.upper.store(kIdle, std::memory_order_release);
  }

  TaggedPtr protect(int tid, int /*refno*/, const AtomicTaggedPtr& src,
                    ThreadStats& stats) noexcept {
    auto& slot = *slots_[tid];
    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      const std::uint64_t epoch =
          this->global_epoch_->load(std::memory_order_acquire);
      // Common case: the epoch is unchanged since our reservation covered
      // it, so the observed node's birth epoch is within the reservation.
      if (epoch == slot.cached_upper) return observed;
      slot.upper.store(epoch, std::memory_order_relaxed);
      stats.bump(stats.slow_protects);
      counted_fence(stats);
      slot.cached_upper = epoch;
      // Retry: the node observed before the reservation was published may
      // have been reclaimed in the meantime.
    }
  }

  void pin(int tid, int refno, Node* node) noexcept {
    // Extend the reservation to the node's birth epoch: the node was born
    // inside this operation, possibly after the last upper refresh.
    auto& slot = *slots_[tid];
    const std::uint64_t epoch =
        this->global_epoch_->load(std::memory_order_acquire);
    if (epoch != slot.cached_upper) {
      slot.upper.store(epoch, std::memory_order_relaxed);
      counted_fence(this->thread_stats(tid));
      slot.cached_upper = epoch;
    }
    this->oracle_pin_hook(tid, refno, node);
  }

  /// Thread departure: drop the interval reservation. `cached_upper` is
  /// owner-local state; resetting it here is safe because detach requires
  /// the tid to be quiescent (no owner running).
  void on_detach(int tid) noexcept {
    auto& slot = *slots_[tid];
    slot.lower.store(kIdle, std::memory_order_relaxed);
    slot.upper.store(kIdle, std::memory_order_release);
    slot.cached_upper = kIdle;
  }

  /// One collected view of every active interval reservation. A node is
  /// protected when its [birth, lifetime_end] lifetime intersects some
  /// reservation [lower, upper]; idle rows are never collected.
  struct Snapshot {
    struct Reservation {
      std::uint64_t lower, upper;
    };
    std::vector<Reservation> reservations;

    void reset(std::size_t entries) {
      reservations.clear();
      reservations.reserve(entries);
    }
    void seal() noexcept {}

    bool protects(const Node* node) const noexcept {
      const std::uint64_t birth = node->smr_header.birth_relaxed();
      const std::uint64_t end = node->smr_header.lifetime_end();
      for (const auto& [lower, upper] : reservations) {
        if (end >= lower && birth <= upper) return true;
      }
      return false;
    }
  };

  void collect_row(int tid, Snapshot& snapshot) const {
    const auto& slot = *slots_[tid];
    const std::uint64_t lower = slot.lower.load(std::memory_order_acquire);
    const std::uint64_t upper = slot.upper.load(std::memory_order_acquire);
    if (lower != kIdle) snapshot.reservations.push_back({lower, upper});
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> lower;
    std::atomic<std::uint64_t> upper;
    // Owner-local mirror of `upper`, avoiding an atomic load per read.
    std::uint64_t cached_upper = kIdle;
  };

  std::unique_ptr<common::Padded<Slot>[]> slots_;
};

}  // namespace mp::smr
