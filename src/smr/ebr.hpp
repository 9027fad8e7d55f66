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

#include "smr/detail/protection_tables.hpp"
#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class EBR : public detail::SchemeBase<Node, EBR<Node>> {
  using Base = detail::SchemeBase<Node, EBR<Node>>;
  using Epochs = detail::EpochTable<Node>;

 public:
  static constexpr const char* kName = "EBR";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = false;
  static constexpr detail::EpochClock kEpochClock = detail::EpochClock::kAllocs;

  explicit EBR(const Config& config) : Base(config), epochs_(config) {}

  /// Joins the background reclaimer while epochs_ is still alive (its scan
  /// reads the announced epochs through collect_row).
  ~EBR() { this->stop_reclaimer(); }

  void announce(int tid) noexcept {
    epochs_.announce(tid, this->global_epoch_->load(std::memory_order_acquire),
                     this->thread_stats(tid));
  }

  void withdraw(int tid) noexcept { epochs_.idle(tid); }

  /// Thread departure: mark the slot idle so a thread that died with an
  /// announced epoch stops holding back everyone's horizon.
  void on_detach(int tid) noexcept { epochs_.idle(tid); }

  /// The horizon: the minimum announced epoch.
  using Snapshot = typename Epochs::Snapshot;

  void collect_row(int tid, Snapshot& snapshot) const noexcept {
    epochs_.collect_row(tid, snapshot);
  }

 private:
  Epochs epochs_;
};

}  // namespace mp::smr
