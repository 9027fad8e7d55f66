// Hazard eras (Ramalhete & Correia, SPAA 2017) — paper §3.3.
//
// HP's interface with EBR's granularity: each protection slot announces an
// *era* (global epoch value) instead of a node address. A retired node is
// reclaimable when no announced era falls inside its [birth, retire]
// lifetime. A slot only needs re-announcing (store + fence) when the global
// era has changed since its last announcement, so multiple nodes are
// typically protected by one fence — the source of HE's low overhead.
//
// HE is robust but not bounded: a stalled thread pins every node whose
// lifetime contains its announced era, which can be the entire data
// structure at stall time.
#pragma once

#include <cassert>
#include <vector>

#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class HE : public detail::SchemeBase<Node, HE<Node>> {
  using Base = detail::SchemeBase<Node, HE<Node>>;

 public:
  static constexpr const char* kName = "HE";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = true;
  static constexpr detail::EpochClock kEpochClock = detail::EpochClock::kAllocs;

  /// Era value of an unused slot. Global eras start at 1.
  static constexpr std::uint64_t kNoEra = 0;

  explicit HE(const Config& config)
      : Base(config),
        slots_(std::make_unique<common::Padded<Slots>[]>(config.max_threads)) {
    assert(config.slots_per_thread <= kMaxSlotsPerThread);
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      for (auto& era : slots_[t]->eras) {
        era.store(kNoEra, std::memory_order_relaxed);
      }
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its scan
  /// reads the era reservations through collect_row).
  ~HE() { this->stop_reclaimer(); }

  void withdraw(int tid) noexcept {
    auto& slots = *slots_[tid];
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      slots.eras[i].store(kNoEra, std::memory_order_relaxed);
    }
    counted_fence(this->thread_stats(tid));
  }

  TaggedPtr protect(int tid, int refno, const AtomicTaggedPtr& src,
                    ThreadStats& stats) noexcept {
    assert(refno >= 0 && refno < this->config().slots_per_thread);
    auto& era = slots_[tid]->eras[refno];
    std::uint64_t announced = era.load(std::memory_order_relaxed);
    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      const std::uint64_t current =
          this->global_epoch_->load(std::memory_order_acquire);
      // If the era announced in this slot is still current, the observed
      // node's birth era is <= the announced era, so it is protected.
      if (current == announced) return observed;
      // A new era in this slot can end the old node's coverage: drop the
      // shadow reference before the physical reservation moves.
      this->oracle_unprotect_hook(tid, refno);
      era.store(current, std::memory_order_relaxed);
      stats.bump(stats.slow_protects);
      counted_fence(stats);
      announced = current;
      // Re-read the pointer: the node observed before the announcement was
      // published may already have been reclaimed.
    }
  }

  void unprotect(int tid, int refno) noexcept {
    this->oracle_unprotect_hook(tid, refno);
    slots_[tid]->eras[refno].store(kNoEra, std::memory_order_relaxed);
  }

  void pin(int tid, int refno, Node* node) noexcept {
    // The current era lies inside the node's lifetime (birth <= now, and it
    // will be retired at an era >= now), so announcing it pins the node.
    this->oracle_unprotect_hook(tid, refno);
    slots_[tid]->eras[refno].store(
        this->global_epoch_->load(std::memory_order_acquire),
        std::memory_order_relaxed);
    counted_fence(this->thread_stats(tid));
    this->oracle_pin_hook(tid, refno, node);
  }

  /// Thread departure: release every era reservation so a thread that died
  /// mid-operation stops pinning all nodes whose lifetime contains its era.
  void on_detach(int tid) noexcept {
    auto& slots = *slots_[tid];
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      slots.eras[i].store(kNoEra, std::memory_order_release);
    }
  }

  /// One collected view of every announced era. A node is protected when
  /// any announced era falls inside its [birth, lifetime_end] lifetime
  /// (eras start at 1 and kNoEra slots are never collected).
  struct Snapshot {
    std::vector<std::uint64_t> eras;

    void reset(std::size_t entries) {
      eras.clear();
      eras.reserve(entries);
    }
    void seal() noexcept {}

    bool protects(const Node* node) const noexcept {
      const std::uint64_t birth = node->smr_header.birth_relaxed();
      const std::uint64_t end = node->smr_header.lifetime_end();
      for (const std::uint64_t era : eras) {
        if (era >= birth && era <= end) return true;
      }
      return false;
    }
  };

  void collect_row(int tid, Snapshot& snapshot) const {
    const auto& slots = *slots_[tid];
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      const std::uint64_t era = slots.eras[i].load(std::memory_order_acquire);
      if (era != kNoEra) snapshot.eras.push_back(era);
    }
  }

 private:
  struct Slots {
    std::atomic<std::uint64_t> eras[kMaxSlotsPerThread];
  };

  std::unique_ptr<common::Padded<Slots>[]> slots_;
};

}  // namespace mp::smr
