// Margin pointers — the paper's contribution (§4, Listing 10).
//
// MP is pointer-based reclamation whose protection variables cover *logical
// subsets* of a search data structure: an announced 32-bit index i plus a
// margin M protects every node whose index lies in [i - M/2, i + M/2].
// Because one announcement covers many physically-close nodes (indices are
// assigned so that physical proximity implies index proximity), most reads
// take a fence-free fast path, yet the number of retired nodes a thread can
// pin is bounded — the property HP has and EBR/HE/IBR lack.
//
// Components, mirroring Listing 10:
//   * per-thread margin slots + paired hazard slots (the §4.3.2 fallback)
//   * per-thread announced epoch, global epoch advanced every epoch_freq
//     allocations (§6 parameters), node birth/retire stamps
//   * index creation: insert operations report the shrinking search
//     interval via update_lower_bound/update_upper_bound; alloc() assigns
//     the midpoint, or USE_HP when the gap has no room (index collision)
//   * read(): margin fast path -> margin install (fence + validate) ->
//     hazard-pointer path for USE_HP nodes or after the epoch advances
//     mid-operation ("use HPs from now, but old MPs remain")
//
// Wasted-memory bound (Theorem 4.2): per thread at most
//   #HP + #MP*M + #MP*M*(epoch_freq*T)  retired nodes stay pinned.
//
// Deviations from the paper's pseudocode (argued in DESIGN.md):
//   1. empty()'s epoch filter uses the closed interval [birth, retire].
//   2. empty() checks hazard slots for every node, not only USE_HP ones.
//   3. A margin slot stores the lower bound of the pointer tag's index
//      range; protection requires the margin interval to contain the whole
//      range, hence margin >= 2^17 is enforced.
//   4. update_*_bound with a USE_HP donor, or an inverted interval, poisons
//      the search interval so the next alloc falls back to USE_HP.
//   8. *Every* read (including the fast path) verifies that the global
//      epoch still equals the operation's announced epoch and otherwise
//      switches to hazard pointers: a margin installed at epoch e must not
//      be trusted for nodes born after e, because reclaimers ignore this
//      thread for such nodes.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "smr/detail/protection_tables.hpp"
#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class MP : public detail::SchemeBase<Node, MP<Node>> {
  using Base = detail::SchemeBase<Node, MP<Node>>;

  /// Per-thread announcements: the paired hazard slots (the §4.3.2
  /// fallback, HP's table) carrying the margin slots and announced epoch.
  struct Margins {
    std::atomic<std::uint32_t> margins[kMaxSlotsPerThread];
    std::atomic<std::uint64_t> epoch;
  };
  using Slots = detail::HazardTable<Node, Margins>;

 public:
  static constexpr const char* kName = "MP";
  static constexpr bool kBoundedWaste = true;
  static constexpr bool kRobust = true;
  static constexpr detail::EpochClock kEpochClock = detail::EpochClock::kAllocs;

  /// Margin-slot value meaning "no protection" (Listing 10's NO_MARGIN).
  static constexpr std::uint32_t kNoMargin = 0xFFFFFFFFu;

  /// Theorem 4.2's per-thread bound: #HP + #MP*M*(1 + epoch_freq*T)
  /// retired nodes can stay pinned (#HP = #MP = slots_per_thread here),
  /// plus up to empty_freq nodes buffered since the last scheduled pass.
  static std::uint64_t waste_bound_per_thread(const Config& config) noexcept {
    const auto slots = static_cast<std::uint64_t>(config.slots_per_thread);
    const std::uint64_t margin_term = sat_mul(slots, config.margin);
    const std::uint64_t epoch_window = sat_add(
        1, sat_mul(config.effective_epoch_freq(), config.max_threads));
    return sat_add(sat_add(slots, sat_mul(margin_term, epoch_window)),
                   static_cast<std::uint64_t>(config.empty_freq));
  }

  explicit MP(const Config& config)
      : Base(config),
        margin_half_(config.margin / 2),
        slots_(config),
        owner_(std::make_unique<common::Padded<Owner>[]>(config.max_threads)) {
    // §4.3.1: a margin must be able to cover one full 16-bit tag range
    // ("the margin must be larger than 2^16"; with the slot holding the
    // range's lower bound, half the margin must cover the range width).
    // Enforced in all build types — a release build silently running with
    // an uncovering margin would be a correctness bug, not a perf knob.
    config.validate_margin();
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      auto& announced = slots_.row(static_cast<int>(t)).extra;
      for (auto& margin : announced.margins) {
        margin.store(kNoMargin, std::memory_order_relaxed);
      }
      announced.epoch.store(0, std::memory_order_relaxed);
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its scan
  /// reads margins, hazards, and announced epochs via collect_row).
  ~MP() { this->stop_reclaimer(); }

  // ---- Operation brackets (Listing 10 start_op / end_op) ----

  void announce(int tid) noexcept {
    auto& owner = *owner_[tid];
    const std::uint64_t epoch =
        this->global_epoch_->load(std::memory_order_acquire);
    slots_.row(tid).extra.epoch.store(epoch, std::memory_order_relaxed);
    owner.epoch = epoch;
    // "No predecessor reported yet" is soundly modeled by the space
    // minimum (any index below the successor's preserves the order); the
    // upper endpoint has no such safe default and starts unknown.
    owner.lower_bound = kMinIndex;
    owner.lower_known = true;
    owner.upper_bound = kMinIndex;
    owner.upper_known = false;
    owner.hp_mode = false;
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      owner.cover_lo[i] = 1;  // empty interval: nothing covered
      owner.cover_hi[i] = 0;
    }
    counted_fence(this->thread_stats(tid));
  }

  void withdraw(int tid) noexcept {
    auto& margins = slots_.row(tid).extra.margins;
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      margins[i].store(kNoMargin, std::memory_order_relaxed);
    }
    slots_.clear(tid, std::memory_order_relaxed);
    counted_fence(this->thread_stats(tid));
  }

  // ---- Protection (Listing 10 read) ----

  TaggedPtr protect(int tid, int refno, const AtomicTaggedPtr& src,
                    ThreadStats& stats) noexcept {
    assert(refno >= 0 && refno < this->config().slots_per_thread);
    auto& margin = slots_.row(tid).extra.margins[refno];
    auto& owner = *owner_[tid];

    while (true) {
      const TaggedPtr observed = src.load(std::memory_order_acquire);
      Node* node = observed.template ptr<Node>();
      if (node == nullptr) return observed;

      const std::uint32_t range_lo = observed.index_lower_bound();
      const std::uint32_t range_hi = observed.index_upper_bound();

      // Margin fast path (the common case): the owner-local mirror of this
      // slot's coverage interval makes it two compares plus the epoch
      // check. A USE_HP-range tag never satisfies it (cover_hi < kUseHp).
      if (!owner.hp_mode && range_lo >= owner.cover_lo[refno] &&
          range_hi <= owner.cover_hi[refno]) {
        // Deviation 8: a margin is only trustworthy while the global epoch
        // equals our announcement — later-born covered nodes are invisible
        // to reclaimers through our margins.
        if (this->global_epoch_->load(std::memory_order_acquire) ==
            owner.epoch) {
          return observed;
        }
        owner.hp_mode = true;
      }

      bool use_hp = owner.hp_mode || range_hi == kUseHp;
      if (!use_hp &&
          this->global_epoch_->load(std::memory_order_acquire) !=
              owner.epoch) {
        owner.hp_mode = true;
        use_hp = true;
      }

      if (use_hp) {
        // Note: in hp_mode, margins installed earlier keep protecting nodes
        // *already returned* by read() ("old MPs remain"), but they must not
        // serve new reads — a freshly loaded node inside the margin could
        // have been born after our announced epoch, and reclaimers ignore
        // our margins for such nodes.
        stats.bump(stats.hp_fallbacks);
        if (slots_.try_protect(tid, refno, node, observed, src, stats, [&] {
              this->oracle_unprotect_hook(tid, refno);
            })) {
          return observed;
        }
        continue;
      }

      // Install a margin around the node's index range and validate. The
      // new interval may not contain the previously protected node, so the
      // old shadow reference dies before the physical slot moves.
      this->oracle_unprotect_hook(tid, refno);
      margin.store(range_lo, std::memory_order_relaxed);
      owner.cover_lo[refno] =
          range_lo >= margin_half_ ? range_lo - margin_half_ : 0;
      owner.cover_hi[refno] =
          range_lo <= (kUseHp - 1) - margin_half_ ? range_lo + margin_half_
                                                  : kUseHp - 1;
      stats.bump(stats.slow_protects);
      counted_fence(stats);
      if (src.load(std::memory_order_acquire) == observed) {
        if (this->global_epoch_->load(std::memory_order_acquire) !=
            owner.epoch) {
          // Epoch advanced under us: the node may have been born in the new
          // epoch; retry via the hazard-pointer path (Listing 10).
          owner.hp_mode = true;
          continue;
        }
        return observed;
      }
      // Source changed: the margin stays (it can only over-protect) and the
      // protocol repeats for the new target.
    }
  }

  void pin(int tid, int refno, Node* node) noexcept {
    // The hazard slot (not a margin) is used so the protection survives
    // hp_mode and is honored by empty() regardless of the node's birth
    // epoch relative to our announcement.
    this->oracle_unprotect_hook(tid, refno);
    slots_.pin(tid, refno, node, this->thread_stats(tid));
    this->oracle_pin_hook(tid, refno, node);
  }

  /// Oracle edge staleness: MP protection is keyed by *index*, not
  /// address, so a pointer whose tag names a different 2^16 index block
  /// than the node's current header is an edge minted for an earlier
  /// incarnation of the block (the pool recycled it under a frozen dead
  /// edge). A margin covering the old tag range says nothing about the new
  /// index, so such reads are dead-edge results to tolerate, not covered
  /// reads to assert.
  bool oracle_edge_stale(TaggedPtr word, const Node* node) const noexcept {
    return word.index_lower_bound() !=
           (node->smr_header.index_relaxed() & ~0xFFFFu);
  }

  /// Thread departure: clear every margin and hazard slot and zero the
  /// announced epoch. A dead thread's margin pins up to #MP*M*(epochs)
  /// nodes forever — the worst wasted-memory leak any scheme here has —
  /// so this is MP's most important lifecycle duty. The epoch slot is
  /// owner-written elsewhere; detach may write it because the tid is
  /// quiescent (detach's precondition).
  void on_detach(int tid) noexcept {
    auto& announced = slots_.row(tid).extra;
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      announced.margins[i].store(kNoMargin, std::memory_order_release);
    }
    slots_.clear(tid, std::memory_order_release);
    announced.epoch.store(0, std::memory_order_release);
  }

  // ---- Index creation (Listing 5 / 10 alloc path) ----

  // Endpoint tracking is per-endpoint and *recoverable* (deviation 4): an
  // update with a USE_HP node marks that endpoint unknown, and a later
  // update with a real index restores it. Only the FINAL interval
  // endpoints matter for correctness (Listing 5: they are the key's
  // predecessor and successor), so a USE_HP node merely passed at an upper
  // skip-list level must not condemn the insert — a sticky poison flag
  // makes collisions avalanche (each USE_HP node poisons every traversal
  // through it, minting more USE_HP nodes).
  void update_lower_bound(int tid, const Node* node) noexcept {
    auto& owner = *owner_[tid];
    const std::uint32_t index = node->smr_header.index_relaxed();
    if (index == kUseHp) {
      owner.lower_known = false;
      return;
    }
    owner.lower_bound = index;
    owner.lower_known = true;
  }

  void update_upper_bound(int tid, const Node* node) noexcept {
    auto& owner = *owner_[tid];
    const std::uint32_t index = node->smr_header.index_relaxed();
    if (index == kUseHp) {
      owner.upper_known = false;
      return;
    }
    owner.upper_bound = index;
    owner.upper_known = true;
  }

  std::uint32_t assign_index(int tid) noexcept {
    auto& owner = *owner_[tid];
    if (FaultInjector* chaos = this->config().fault_injector;
        chaos != nullptr && chaos->force_collision(tid)) {
      // Injected index-collision pressure: behave exactly as if the search
      // interval had no room (§4.3.2) so the USE_HP degradation path is
      // exercised at a chosen rate.
      auto& stats = this->thread_stats(tid);
      stats.bump(stats.index_collisions);
      return kUseHp;
    }
    const std::uint32_t lo = owner.lower_bound;
    const std::uint32_t hi = owner.upper_bound;
    if (!owner.lower_known || !owner.upper_known || lo > hi || hi - lo <= 1) {
      // Index collision (§4.3.2), inverted interval, or an unknown
      // endpoint: fall back to hazard-pointer protection for this node.
      auto& stats = this->thread_stats(tid);
      stats.bump(stats.index_collisions);
      return kUseHp;
    }
    return lo + (hi - lo) / 2;  // Listing 5
  }

  // ---- Reclamation (Listing 10 empty) ----

  /// One collected view of every thread's announcement: active margin
  /// intervals (with the announcing thread's epoch, Theorem 4.2's filter)
  /// plus the paired hazard slots, sorted for binary search. Collected
  /// once per foreground pass — or once per reclaimer wakeup for ALL queued
  /// batches (§6's snapshot optimization, amortized further). Compact
  /// lists holding only *active* protections — the spirit of the
  /// interval-index optimization §4.3 suggests.
  struct Snapshot {
    struct MarginEntry {
      std::uint32_t lo;
      std::uint32_t hi;
      std::uint64_t epoch;  ///< owning thread's announced epoch
    };
    std::vector<MarginEntry> margin_entries;
    typename Slots::Snapshot hazards;

    void reset(std::size_t entries) {
      margin_entries.clear();
      margin_entries.reserve(entries);
      hazards.reset(entries);
    }
    void seal() { hazards.seal(); }

    bool protects(const Node* node) const noexcept {
      // Hazard slots are honored unconditionally (deviation 2): an HP set
      // in hp_mode can legitimately protect a node born after the thread's
      // announced epoch, so no epoch filter gates this check.
      if (hazards.protects(node)) return true;
      const std::uint32_t index = node->smr_header.index_relaxed();
      if (index == kUseHp) return false;  // only hazards protect USE_HP nodes

      // Margins are only trusted by readers for nodes whose lifetime
      // contains the reader's announced epoch (Theorem 4.2's filter;
      // closed interval per deviation 1), so the reclaimer mirrors that
      // gate. A detached row's epoch 0 precedes every birth.
      const std::uint64_t birth = node->smr_header.birth_relaxed();
      const std::uint64_t end = node->smr_header.lifetime_end();
      const std::uint32_t range_lo = index & ~0xFFFFu;
      const std::uint32_t range_hi = index | 0xFFFFu;
      for (const auto& entry : margin_entries) {
        if (entry.epoch < birth || entry.epoch > end) continue;
        if (entry.lo <= range_lo && range_hi <= entry.hi) return true;
      }
      return false;
    }
  };

  /// Append `tid`'s active margins, then its hazards. The epoch is read
  /// before the margins (see DESIGN.md: protections installed after the
  /// snapshot cannot cover nodes already retired before it).
  void collect_row(int tid, Snapshot& snapshot) const {
    const auto& announced = slots_.row(tid).extra;
    const std::uint64_t epoch = announced.epoch.load(std::memory_order_acquire);
    for (int i = 0; i < this->config().slots_per_thread; ++i) {
      const std::uint32_t margin =
          announced.margins[i].load(std::memory_order_acquire);
      if (margin != kNoMargin) {
        snapshot.margin_entries.push_back(
            {interval_lo(margin), interval_hi(margin), epoch});
      }
    }
    slots_.collect_row(tid, snapshot.hazards);
  }

 private:
  struct Owner {
    std::uint64_t epoch = 0;
    std::uint32_t lower_bound = kMinIndex;
    std::uint32_t upper_bound = kMinIndex;
    bool lower_known = false;
    bool upper_known = false;
    bool hp_mode = false;
    // Owner-local mirror of each margin slot's protection interval,
    // precomputed at install so the fast path is two compares. cover_hi is
    // capped at kUseHp - 1 so a USE_HP-range tag never matches.
    std::uint32_t cover_lo[kMaxSlotsPerThread];
    std::uint32_t cover_hi[kMaxSlotsPerThread];
  };

  /// Saturating bounds of the protection interval around an announced
  /// margin value.
  std::uint32_t interval_lo(std::uint32_t margin) const noexcept {
    return margin >= margin_half_ ? margin - margin_half_ : 0;
  }
  std::uint32_t interval_hi(std::uint32_t margin) const noexcept {
    return margin <= kUseHp - margin_half_ ? margin + margin_half_ : kUseHp;
  }

  const std::uint32_t margin_half_;
  Slots slots_;
  std::unique_ptr<common::Padded<Owner>[]> owner_;
};

}  // namespace mp::smr
