// Hyaline — snapshot-free reclamation by reference-counted batch handover
// (Nikolaev & Ravindran, SPAA 2019 / PPoPP 2021).
//
// Every other scheme in this library answers "is this retired node still
// protected?" by collecting a snapshot of all threads' announcements and
// filtering the retired list against it. Hyaline never asks the question:
// when a thread's retired list reaches the reclamation threshold it wraps
// the list in a *batch* and hands one reference to every thread currently
// inside an operation. Each such thread drops its reference when its
// operation ends; whoever drops the last reference frees the whole batch.
// There is no scan, no per-node predicate, and no O(T*slots) snapshot —
// reclamation cost is O(active threads) per handover plus O(1) per
// operation end.
//
// Per-slot state is one atomic word, `head`:
//   kInactive  — the thread is between operations (holds no references)
//   nullptr    — inside an operation, no batches handed over yet
//   BatchRef*  — inside an operation, stack of handed-over batch refs
// start_op exchanges kInactive -> nullptr; end_op exchanges back to
// kInactive, taking the accumulated ref stack and decrementing each
// batch's counter. The handover pushes refs with a CAS, so activation,
// deactivation and handover on one slot are totally ordered RMWs — no
// standalone fences anywhere (TSan can model every ordering here).
//
// For a slot observed kInactive the handover still performs a
// kInactive -> kInactive CAS: the successful RMW lands in the slot's
// modification order *before* the owner's next activation exchange, so a
// thread that activates later synchronizes with this handover and
// therefore observes the unlinks that preceded it — it can never reach a
// node in the batch. That closes the only ordering gap the skip path
// would otherwise have.
//
// Exactly-once free protocol (the published scheme's REFS/ADJS trick):
// `refs` starts at 0; decrementers subtract 1 each, and the handover adds
// the final insert count once it is known. A decrementer frees when its
// fetch_sub returns 1 (counter reached 0 after adjustment: before the
// adjustment the counter is never positive); the adjuster frees when its
// fetch_add returns exactly -inserts (every decrement already happened).
// Exactly one of the two conditions fires.
//
// Adaptation notes for this codebase: batches carry std::vector node lists
// (swapped wholesale from the per-thread retired list, so the handover is
// O(1) in list length) instead of intrusive per-node links; the background
// arm reuses the RetiredBatch shells and their spare-slot recycling via
// bg_reclaim_nodes(). The base's global epoch (the era, ticked at each
// handover) exists only for retire-epoch stamps and the debug oracle's
// coverage predicate — reclamation itself never reads it, so chaos epoch
// storms only make that predicate stricter.
//
// kSnapshotFree: there is no Snapshot/collect_snapshot/snapshot_protects
// triple (Snapshot is void). The background reclaimer and the waste
// watchdog dispatch on the trait (smr.hpp's capability split), the
// foreground on the shadowed empty() below, so the reclamation engine's
// cursor never runs; Config::validate_snapshot_free rejects a nonzero
// scan_quantum.
//
// Wasted-memory bound: none (the base's kUnboundedWaste default). A thread
// stalled *inside* an operation receives a reference to every batch handed
// over while it stalls and never decrements, so every retired batch in the
// system stays allocated — unbounded waste, and not robust either (the
// paper's Table 1 row for EBR-like guarantees applies; the Hyaline-1S
// variant with birth eras restores robustness and is future work here).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "smr/detail/protection_tables.hpp"
#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class Hyaline : public detail::SchemeBase<Node, Hyaline<Node>> {
  using Base = detail::SchemeBase<Node, Hyaline<Node>>;

 public:
  static constexpr const char* kName = "Hyaline";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = false;
  static constexpr bool kSnapshotFree = true;

  /// No snapshot triple (see the capability split in smr.hpp): naming the
  /// type is a substitution failure in SnapshotReclaimable, and every
  /// snapshot consumer is `if constexpr`-discarded for this scheme.
  using Snapshot = void;

  explicit Hyaline(const Config& config)
      : Base(config),
        slots_(std::make_unique<common::Padded<Slot>[]>(config.max_threads)) {
    this->config().validate_snapshot_free(kName);
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      slots_[t]->head.store(inactive(), std::memory_order_relaxed);
      slots_[t]->activation_era.store(0, std::memory_order_relaxed);
    }
  }

  /// Joins the background reclaimer while slots_ is still alive (its pass
  /// hands batches over through bg_reclaim_nodes below).
  ~Hyaline() { this->stop_reclaimer(); }

  void announce(int tid) noexcept {
    auto& slot = *slots_[tid];
    [[maybe_unused]] BatchRef* prev =
        slot.head.exchange(nullptr, std::memory_order_acq_rel);
    assert(prev == inactive() && "start_op while already inside an op");
    slot.activation_era.store(
        this->global_epoch_->load(std::memory_order_acquire),
        std::memory_order_relaxed);
    // The activation exchange is the announcement; account it where other
    // schemes count their announcement fence (no real fence is issued).
    auto& stats = this->thread_stats(tid);
    stats.bump(stats.fences);
  }

  void withdraw(int tid) noexcept {
    auto& slot = *slots_[tid];
    BatchRef* ref = slot.head.exchange(inactive(), std::memory_order_acq_rel);
    auto& stats = this->thread_stats(tid);
    stats.bump(stats.fences);
    assert(ref != inactive() && "end_op without a matching start_op");
    while (ref != nullptr) {
      BatchRef* next = ref->next;
      drop_ref(ref->batch,
               [this, tid](Node* node) noexcept { this->free_node(tid, node); });
      delete ref;
      ref = next;
    }
  }

  /// Oracle coverage: the whole operation is covered while the slot is
  /// active — any node this thread read was either live at the activation
  /// or retired afterwards (retire-era at or past the activation era), and
  /// every handover since the activation holds its batch for us. With no
  /// Snapshot of its own, the scheme asks the epoch family's horizon
  /// predicate of a one-row horizon at the activation era.
  bool oracle_covers(int tid, const Node* node) const noexcept {
    const auto& slot = *slots_[tid];
    detail::HorizonSnapshot<Node> row;
    if (slot.head.load(std::memory_order_relaxed) != inactive()) {
      row.add(slot.activation_era.load(std::memory_order_relaxed));
    }
    return row.protects(node);
  }

  /// Thread departure. The tid is quiescent by contract, so its slot holds
  /// kInactive and no references; this defensively drops any refs anyway
  /// (a crashed thread reaped mid-operation by the registry).
  void on_detach(int tid) noexcept {
    auto& slot = *slots_[tid];
    BatchRef* ref = slot.head.exchange(inactive(), std::memory_order_acq_rel);
    if (ref == inactive()) return;
    while (ref != nullptr) {
      BatchRef* next = ref->next;
      drop_ref(ref->batch,
               [this, tid](Node* node) noexcept { this->free_node(tid, node); });
      delete ref;
      ref = next;
    }
  }

  /// Reclamation "pass", shadowing the base's engine pass: hand the
  /// caller's whole retired list over as one reference-counted batch.
  /// O(active threads), no scan.
  void empty(int tid) {
    auto& local = this->local(tid);
    if (local.retired.empty()) return;
    hand_over(local.retired,
              [this, tid](Node* node) noexcept { this->free_node(tid, node); });
    this->sync_retired(tid);
  }

  /// Background-reclaimer arm (reclaimer.hpp's snapshot-free pass): hand
  /// `nodes` over exactly like a foreground empty(), attributing any
  /// immediately-freeable nodes to the reclaimer's stats shard. Leaves
  /// `nodes` empty. Public because the reclaimer is a friend of the base
  /// class only.
  void bg_reclaim_nodes(std::vector<Node*>& nodes) {
    if (nodes.empty()) return;
    hand_over(nodes, [this](Node* node) noexcept { this->bg_free(node); });
  }

 private:
  struct Batch;

  /// One handed-over reference: a node in the per-slot Treiber stack.
  struct BatchRef {
    Batch* batch = nullptr;
    BatchRef* next = nullptr;
  };

  struct Batch {
    std::vector<Node*> nodes;
    /// Decrements land first (counter goes negative), the handover adds
    /// the insert count once known; see the exactly-once protocol above.
    std::atomic<std::int64_t> refs{0};
  };

  struct Slot {
    std::atomic<BatchRef*> head;
    /// Era sampled at activation; only the oracle predicate reads it.
    std::atomic<std::uint64_t> activation_era;
  };

  /// Sentinel for "between operations" (never a valid BatchRef address).
  static BatchRef* inactive() noexcept {
    return reinterpret_cast<BatchRef*>(std::uintptr_t{1});
  }

  /// Drop one reference; free the batch when this was the last (the
  /// fetch_sub acq_rel chains every holder's accesses before the free).
  template <typename FreeFn>
  void drop_ref(Batch* batch, FreeFn&& free_one) noexcept {
    if (batch->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      for (Node* node : batch->nodes) free_one(node);
      delete batch;
    }
  }

  /// The handover: wrap `nodes` in a batch, push one reference onto every
  /// active slot, then publish the insert count into the refcount. Frees
  /// the batch immediately when nobody was active (or everybody already
  /// dropped their reference by the time the count lands).
  template <typename FreeFn>
  void hand_over(std::vector<Node*>& nodes, FreeFn&& free_one) {
    auto* batch = new Batch;
    // Copy-and-clear rather than swap: the caller's vector keeps its
    // steady-state capacity (the base reserved empty_freq+1 slots; the
    // reclaimer's backlog grows once), and the copy is O(empty_freq)
    // pointer words per handover — noise next to the batch allocation.
    batch->nodes.assign(nodes.begin(), nodes.end());
    nodes.clear();
    // Era tick per handover: keeps retire-epoch stamps advancing for the
    // oracle/trace machinery (reclamation itself never reads it).
    this->advance_epoch();
    std::int64_t inserts = 0;
    BatchRef* ref = nullptr;  // reused across failed CASes / skipped slots
    const std::size_t threads = this->config().max_threads;
    for (std::size_t t = 0; t < threads; ++t) {
      auto& slot = *slots_[t];
      BatchRef* head = slot.head.load(std::memory_order_acquire);
      while (true) {
        if (head == inactive()) {
          // RMW even on the skip path: a successful kInactive->kInactive
          // CAS orders this handover before the slot's next activation
          // exchange, so a later-activating thread observes the unlinks
          // preceding this handover (class comment).
          if (slot.head.compare_exchange_weak(head, inactive(),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            break;
          }
          continue;
        }
        if (ref == nullptr) {
          ref = new BatchRef;
          ref->batch = batch;
        }
        ref->next = head;
        if (slot.head.compare_exchange_weak(head, ref,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
          ++inserts;
          ref = nullptr;
          break;
        }
      }
    }
    delete ref;  // leftover from a slot that went inactive mid-push
    if (inserts == 0) {
      for (Node* node : batch->nodes) free_one(node);
      delete batch;
      return;
    }
    if (batch->refs.fetch_add(inserts, std::memory_order_acq_rel) ==
        -inserts) {
      // Every holder already dropped its reference; the adjuster frees.
      for (Node* node : batch->nodes) free_one(node);
      delete batch;
    }
  }

  std::unique_ptr<common::Padded<Slot>[]> slots_;
};

}  // namespace mp::smr
