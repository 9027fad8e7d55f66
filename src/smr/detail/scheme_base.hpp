// Shared plumbing for all SMR schemes (CRTP base).
//
// Owns what every scheme in the paper has in common: the operation bracket
// (Listing 1's start_op/end_op/read), the one global epoch, the per-thread
// retired lists and retire counters (Listing 4), allocation bookkeeping
// (Listing 5 / 10's alloc), per-thread statistics, and teardown draining.
// The schemes differ only in what an announcement protects (§3, Table 1),
// so a derived scheme supplies just its protection protocol through hooks:
//
//   announce(tid)                   start_op's announcement (default: none)
//   withdraw(tid)                   end_op's withdrawal (default: none)
//   protect(tid, refno, src, stats) read()'s protect loop, returning the
//                                   protected word (default: a plain load)
//   kEpochClock                     when the shared epoch ticks by itself
//   assign_index(tid)               32-bit MP index for a fresh node
//   Snapshot                        its one protection predicate,
//                                   Snapshot::protects(node)
//   collect_row(tid, snapshot)      append one thread's announcements
//
// From those two the base defines every consumer of the predicate once:
// collect_snapshot (all rows, then Snapshot::seal) and snapshot_protects
// for the reclamation engine, oracle_covers (a one-row snapshot) for the
// ProtectionOracle, so the oracle checks the code that frees.
//
// The bracket runs the hooks in the oracle's ordering contract (below), so
// no scheme repeats it: start_op samples the retired list, announces, then
// opens the oracle's operation; end_op closes the oracle's operation, then
// withdraws; read hits the chaos point, counts the read, protects, then
// records the oracle's shadow reference.
//
// The global epoch (epoch_now) stamps every node's birth and retirement.
// It starts at 1 and ticks per the scheme's kEpochClock: every
// effective_epoch_freq() allocations (HE, IBR, EBR, DTA, MP), inside
// the scheme's own protocol (Stamp-it's enrollment, Hyaline's handover), or
// never (HP, Leaky). Chaos epoch storms advance it for every scheme.
//
// Reclamation has one engine (DESIGN.md §12): filter a retired list against
// one protection snapshot, a bounded step at a time (reclaimer.hpp's
// filter_step). The foreground cursor and the background reclaimer both run
// it; scan_quantum 0 is one unbounded step. A scheme that reclaims some
// other way (Hyaline's snapshot-free handover, Leaky's never) shadows
// empty() and owns its pass instead.
//
// Lifetime rules (paper §2): retire() is only passed removed nodes, at most
// once; drain()/the destructor may only run when no thread is inside an
// operation.
//
// Thread lifecycle (DESIGN.md §6): the paper models T immortal threads; this
// base adds a detach(tid) protocol for departing ones. detach clears the
// thread's protection state (per-scheme on_detach hook) so a departed thread
// never again blocks anyone's empty(), and hands its retired list to a
// lock-free orphan pool that surviving threads adopt during their own
// reclamation passes. Adopted frees land in the adopter's `reclaims`; the
// handover itself is tracked by the `orphaned`/`adopted` stats pair.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/chaos.hpp"
#include "smr/config.hpp"
#include "smr/handle.hpp"
#include "smr/node.hpp"
#include "smr/oracle.hpp"
#include "smr/pool.hpp"
#include "smr/reclaimer.hpp"
#include "smr/stats.hpp"
#include "smr/tagged_ptr.hpp"

namespace mp::smr::detail {

/// When the shared global epoch ticks by itself (Derived::kEpochClock).
enum class EpochClock {
  /// Only where the scheme's own protocol ticks it, or never.
  kManual,
  /// Every Config::effective_epoch_freq() allocations.
  kAllocs,
};

/// Ceiling on the emergency-empty backoff interval, in retire() calls
/// (Config::retired_soft_cap). Bounds worst-case retire() latency: at most
/// one emergency scan per this many retirements even when reclamation
/// stays blocked.
inline constexpr std::uint64_t kEmergencyBackoffLimit = 4096;

template <typename Node, typename Derived>
class SchemeBase {
  /// The background reclaimer (reclaimer.hpp) drives the bg_* plumbing
  /// below from its own thread.
  template <typename, typename>
  friend class mp::smr::BackgroundReclaimer;

 public:
  using node_type = Node;

  explicit SchemeBase(const Config& config)
      : config_(validated(config)),
        stats_(std::make_unique<common::Padded<ThreadStats>[]>(
            config.max_threads)),
        local_(std::make_unique<common::Padded<PerThread>[]>(
            config.max_threads)),
        pool_(config_) {
    // Steady-state retire() must never reallocate mid-run: a scheduled
    // empty() fires every empty_freq retires, so that is the list's
    // working size (soft-cap overshoot grows it once, then sticks).
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      local_[i]->retired.reserve(
          static_cast<std::size_t>(config_.empty_freq) + 1);
    }
    if (config_.background_reclaim) {
      // The reclaimer thread starts here, before Derived finishes
      // constructing; every pass early-outs without touching derived
      // state until a retire()/detach() proves construction completed.
      reclaimer_ = std::make_unique<BackgroundReclaimer<Node, Derived>>(
          derived(), config_, *bg_stats_);
    }
  }

  SchemeBase(const SchemeBase&) = delete;
  SchemeBase& operator=(const SchemeBase&) = delete;

  ~SchemeBase() {
    // Backstop join (every scheme destructor already stopped the
    // reclaimer while its members were alive; this covers the path where
    // the derived constructor threw and only early-out passes ever ran).
    stop_reclaimer();
    drain();
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      auto& cursor = local_[i]->cursor;
      if (cursor.snapshot != nullptr) cursor.snapshot_deleter(cursor.snapshot);
      delete local_[i]->spare.load(std::memory_order_relaxed);
    }
  }

  const Config& config() const noexcept { return config_; }

  /// Allocate a node through the scheme (paper's alloc). Sets the SMR
  /// header (birth epoch, index) before handing the node to the client.
  /// Both failure paths — chaos-injected std::bad_alloc and a genuine
  /// OOM/throwing node constructor — unwind *before* any scheme state
  /// changes (no epoch tick, no alloc-counter bump, no block consumed: a
  /// pooled block taken for a throwing constructor goes straight back to
  /// the magazine), so callers see an ordinary side-effect-free OOM either
  /// way. The chaos fail_alloc point fires before block acquisition.
  template <typename... Args>
  Node* alloc(int tid, Args&&... args) {
    FaultInjector* chaos = config_.fault_injector;
    if (chaos != nullptr) {
      chaos->point(tid, ChaosPoint::kAlloc);
      if (chaos->fail_alloc(tid)) throw std::bad_alloc{};
    }
    // Construction runs before the epoch tick: ticking first would advance
    // the scheme's epoch for a node that never existed when the allocation
    // throws. Birth is stamped after the tick either way, so success-path
    // behavior (a node born in the post-tick epoch) is unchanged.
    Node* node = construct(tid, std::forward<Args>(args)...);
    oracle_alloc_hook(tid, node);
    if constexpr (Derived::kEpochClock != EpochClock::kManual) {
      if (++local_[tid]->alloc_counter % config_.effective_epoch_freq() == 0) {
        tick_epoch(tid);
      }
    }
    if (chaos != nullptr) {
      if (const std::uint32_t storm = chaos->epoch_storm(tid); storm != 0) {
        chaos_advance_epoch(storm);
        trace_event(tid, obs::TraceEvent::kEpochAdvance, epoch_now());
      }
    }
    node->smr_header.birth_epoch.store(epoch_now(), std::memory_order_relaxed);
    node->smr_header.index.store(derived().assign_index(tid),
                                 std::memory_order_relaxed);
    auto& stats = *stats_[tid];
    stats.bump(stats.allocs);
    return node;
  }

  /// Retire a removed node (Listing 4). Buffers the node and triggers a
  /// reclamation attempt every empty_freq retirements. When a soft cap is
  /// configured and the buffered list crosses it, retire() escalates to
  /// emergency empty() passes — with bounded exponential backoff between
  /// futile passes, so a stalled peer degrades reclamation gracefully
  /// instead of either growing the list unboundedly *or* turning every
  /// retire into an O(retired) scan.
  void retire(int tid, Node* node) {
    oracle_retire_hook(tid, node);
    node->smr_header.retire_epoch.store(epoch_now(), std::memory_order_relaxed);
    auto& local = *local_[tid];
    local.retired.push_back(node);
    sync_retired(tid);
    auto& stats = *stats_[tid];
    stats.bump(stats.retires);
    stats.bump_max(stats.peak_retired, local.retired.size());
    trace_event(tid, obs::TraceEvent::kRetire, local.retired.size());
    FaultInjector* chaos = config_.fault_injector;
    if (chaos != nullptr) chaos->point(tid, ChaosPoint::kRetire);
    bool emptied = false;
    if (++local.retire_counter % config_.empty_freq == 0) {
      if (chaos != nullptr && chaos->delay_reclamation(tid)) {
        // Injected delay: this scheduled pass is skipped; the soft cap (if
        // any) below is the backstop the delay is probing.
      } else if (reclaimer_ != nullptr && try_offload(tid)) {
        emptied = true;  // the list was emptied by handover
      } else {
        if (reclaimer_ != nullptr) {
          // Backpressure (the in-flight cap) or a shell OOM: fall back to
          // exactly the foreground pass, so waste_bound_per_thread keeps
          // holding with only the bounded in-flight term added on top.
          stats.bump(stats.inline_fallbacks);
        }
        scheduled_pass(tid);
        emptied = true;
      }
    } else if (local.cursor.active) {
      // Continuation: one bounded step per retire while a pass is open, so
      // a pass over L nodes completes within ceil(L/quantum) retires and
      // no single operation ever absorbs more than O(quantum) scan work.
      run_reclaim_increment(tid);
      emptied = true;  // an increment ran; no emergency work on top of it
    }
    if (config_.retired_soft_cap == 0) return;
    if (local.retired.size() < config_.retired_soft_cap) {
      local.emergency_backoff = 1;  // healthy again: rearm fast response
      return;
    }
    if (emptied || local.retire_counter < local.next_emergency) return;
    stats.bump(stats.emergency_empties);
    scheduled_pass(tid, obs::TraceEvent::kEmergencyEmpty);
    if (local.retired.size() >= config_.retired_soft_cap) {
      // The pass was futile (e.g. a stalled peer pins everything): back
      // off exponentially, capped so retire() latency stays bounded.
      local.emergency_backoff =
          std::min(local.emergency_backoff * 2, kEmergencyBackoffLimit);
    } else {
      local.emergency_backoff = 1;
    }
    local.next_emergency = local.retire_counter + local.emergency_backoff;
  }

  /// Free a node that was never linked (e.g. a failed insert's spare node).
  /// No other thread can reference it, so it is freed immediately, and the
  /// block returns to `tid`'s magazine when the pool is on. The free_hook
  /// fires here too: unlinked frees must be visible to the waste watchdog
  /// and client-side destructor hooks, same as free_node()/drain().
  void delete_unlinked(int tid, Node* node) noexcept {
    oracle_unlinked_free_hook(tid, node);
    run_free_hook(node);
    auto& stats = *stats_[tid];
    stats.bump(stats.unlinked_frees);
    destroy(tid, node);
  }

  /// Tid-less overload for callers outside any operation (data-structure
  /// destructors, teardown helpers). Thread-safe, but cannot recycle into a
  /// magazine — the block goes straight back to the allocator. Prefer the
  /// tid overload on hot paths.
  void delete_unlinked(Node* node) noexcept {
    oracle_unlinked_free_hook(ProtectionOracle::kNoTid, node);
    run_free_hook(node);
    stray_frees_.fetch_add(1, std::memory_order_relaxed);
    destroy_unowned(node);
  }

  /// Mint a typed handle binding this scheme and `tid` (handle.hpp): the
  /// preferred way to carry a thread identity, so a raw int never has to
  /// cross a public API boundary again. Cheap enough to re-mint at will.
  ThreadHandle<Derived> handle(int tid) noexcept {
    return ThreadHandle<Derived>(derived(), tid);
  }

  // ---- The operation bracket (Listing 1), in the oracle's contract order
  // (see the ProtectionOracle call sites below) ----

  void start_op(int tid) noexcept {
    sample_retired(tid);
    derived().announce(tid);
    oracle_start_op(tid);
  }

  void end_op(int tid) noexcept {
    oracle_end_op(tid);
    derived().withdraw(tid);
  }

  /// Protect-and-load the link word in `src` for local reference `refno`.
  TaggedPtr read(int tid, int refno, const AtomicTaggedPtr& src) noexcept {
    chaos_protect(tid);
    auto& stats = *stats_[tid];
    stats.bump(stats.reads);
    return oracle_checked_read(tid, refno,
                               derived().protect(tid, refno, src, stats), src);
  }

  /// Current global epoch (the birth/retire stamp of a node made now).
  std::uint64_t epoch_now() const noexcept {
    return global_epoch_->load(std::memory_order_acquire);
  }

  /// Chaos hook: advance the global epoch by `by` (epoch storms).
  void chaos_advance_epoch(std::uint64_t by) noexcept {
    global_epoch_->fetch_add(by, std::memory_order_acq_rel);
  }

  // ---- Thread lifecycle (DESIGN.md §6) ----

  /// Depart thread `tid`: clear its protection state so it never again
  /// blocks a reclaimer (per-scheme on_detach hook), then hand its retired
  /// list to the orphan pool for adoption by surviving threads.
  ///
  /// Preconditions: the departing thread is not inside an operation (its
  /// last guard has exited), and `tid` is not granted to a new thread until
  /// detach() returns. Callable by the departing thread itself or — for a
  /// thread that died — by whoever reaps it (e.g. a ThreadRegistry detach
  /// hook), as long as the tid is quiescent.
  ///
  /// May throw std::bad_alloc (the batch node) under genuine OOM; the
  /// retired list then simply stays with the tid, to be inherited by its
  /// next leaseholder or drained at teardown — never leaked.
  void detach(int tid) {
    // Oracle first: a scope still open on this tid (an OperationScope
    // outliving its ThreadLease) must be rejected before the protection
    // state it relies on is revoked below.
    oracle_detach_hook(tid);
    derived().on_detach(tid);
    auto& local = *local_[tid];
    // Rearm the soft-cap degradation state: the id's next leaseholder
    // starts with a fresh emergency-backoff schedule.
    local.next_emergency = 0;
    local.emergency_backoff = 1;
    trace_event(tid, obs::TraceEvent::kDetach, local.retired.size());
    // Departing threads also surrender their buffered free blocks: a
    // half-full magazine would otherwise idle until the tid's next
    // leaseholder while other threads hit the allocator.
    pool_.flush(tid, *stats_[tid]);
    if (local.retired.empty()) return;
    auto* batch = new OrphanBatch;
    batch->nodes.swap(local.retired);
    // An open cursor pass indexed the list just handed over; invalidate it
    // so the tid's next leaseholder starts from a clean pass.
    cursor_reset(tid);
    sync_retired(tid);
    auto& stats = *stats_[tid];
    stats.bump(stats.orphaned, batch->nodes.size());
    orphan_count_.fetch_add(batch->nodes.size(), std::memory_order_relaxed);
    // Treiber push. The release CAS publishes the batch contents (and the
    // retire-epoch stamps written before it) to the adopter's acquire
    // exchange; ABA is impossible because adoption pops the whole stack.
    OrphanBatch* head = orphans_.load(std::memory_order_relaxed);
    do {
      batch->next = head;
    } while (!orphans_.compare_exchange_weak(head, batch,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
  }

  /// Adopt every batch currently in the orphan pool into `tid`'s retired
  /// list, so the next pass scans (and can reclaim) them. Runs
  /// automatically before every scheduled, emergency and nudged pass.
  void adopt_orphans(int tid) {
    auto& local = *local_[tid];
    const std::uint64_t adopted =
        take_orphans([&](const std::vector<Node*>& nodes) {
          local.retired.insert(local.retired.end(), nodes.begin(),
                               nodes.end());
        });
    if (adopted == 0) return;
    sync_retired(tid);
    auto& stats = *stats_[tid];
    stats.bump(stats.adopted, adopted);
    stats.bump_max(stats.peak_retired, local.retired.size());
    trace_event(tid, obs::TraceEvent::kAdopt, adopted);
  }

  /// Nodes parked in the orphan pool, awaiting adoption.
  std::uint64_t orphan_count() const noexcept {
    return orphan_count_.load(std::memory_order_relaxed);
  }

  /// Total retired-but-unreclaimed backlog: every thread's buffered list
  /// plus the orphan pool. Exact when quiescent; a monitoring-grade
  /// approximation while threads run. Foreign list sizes are read from the
  /// per-thread `retired_size` mirror (a relaxed atomic each owner refreshes
  /// after every retired-list mutation) — reading std::vector::size()
  /// concurrently with the owner's push_back was a genuine data race.
  std::uint64_t retired_backlog() const noexcept {
    std::uint64_t total = orphan_count();
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      total += local_[i]->retired_size.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Encode a link word for a node (or null), per §4.3.1.
  TaggedPtr make_link(const Node* node, unsigned mark = 0) const noexcept {
    if (node == nullptr) return TaggedPtr{static_cast<std::uint64_t>(mark)};
    return TaggedPtr::make(node, node->smr_header.tag(), mark);
  }

  /// Assign an explicit index to a sentinel node before it is linked
  /// (paper §5.1 step 3). Meaningful for MP; harmless elsewhere.
  void set_index(Node* node, std::uint32_t index) noexcept {
    node->smr_header.index.store(index, std::memory_order_relaxed);
  }

  /// Give `node` the index of `donor` (NM-tree internal routers share their
  /// equal-keyed child's index; see DESIGN.md deviation 5).
  void copy_index(Node* node, const Node* donor) noexcept {
    node->smr_header.index.store(donor->smr_header.index_relaxed(),
                                 std::memory_order_relaxed);
  }

  /// Number of nodes currently buffered in `tid`'s retired list (reads the
  /// race-free size mirror, so any thread may call it).
  std::size_t retired_count(int tid) const noexcept {
    return local_[tid]->retired_size.load(std::memory_order_relaxed);
  }

  /// Nodes allocated and not yet freed (live + retired-but-unreclaimed).
  /// Summed from the per-thread shards, so concurrent snapshots can
  /// transiently observe frees before the matching allocs; the subtraction
  /// saturates at 0 instead of wrapping. Exact when quiescent.
  std::uint64_t outstanding() const noexcept {
    const std::uint64_t allocated = total_allocated();
    const std::uint64_t freed = total_freed();
    return allocated >= freed ? allocated - freed : 0;
  }

  /// Sum of the per-thread alloc shards (ThreadStats::allocs). The global
  /// fetch_add this used to read was one of two shared-cacheline RMWs on
  /// every alloc/free hot path.
  std::uint64_t total_allocated() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      const auto& stats = *stats_[i];
      total += stats.allocs.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Every free path, sharded: per-thread reclaims (free_node) and unlinked
  /// frees, plus the two scheme-wide quiescent/compat paths.
  std::uint64_t total_freed() const noexcept {
    std::uint64_t total = drained_.load(std::memory_order_relaxed) +
                          stray_frees_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      const auto& stats = *stats_[i];
      total += stats.reclaims.load(std::memory_order_relaxed) +
               stats.unlinked_frees.load(std::memory_order_relaxed);
    }
    // The background reclaimer's frees land on its own shard.
    total += bg_stats_->reclaims.load(std::memory_order_relaxed);
    return total;
  }

  /// Nodes currently in flight to the background reclaimer (queued batches
  /// plus its unreclaimed backlog); 0 in the foreground arm. The watchdog's
  /// in-flight bound checks this against reclaim_inflight_cap + T * the
  /// per-thread bound.
  std::uint64_t reclaim_inflight() const noexcept {
    return reclaimer_ != nullptr ? reclaimer_->inflight() : 0;
  }

  /// Run one reclaimer scan pass synchronously on the calling thread
  /// (no-op in the foreground arm). Test hook: makes "the reclaimer has
  /// caught up" deterministic without sleeping.
  void reclaim_sync() {
    if (reclaimer_ != nullptr) reclaimer_->force_pass();
  }

  /// Degradation hook (svc::HealthMonitor): a retired backlog is pressing
  /// against the waste bound, reclaim sooner than the schedule would. In
  /// the background arm this wakes the reclaimer thread early (cheap, the
  /// caller never scans); in the foreground arm it runs one off-schedule
  /// empty() pass on the calling thread — exactly the scheduled-pass
  /// sequence, so every invariant the watchdog checks is preserved.
  void reclaim_nudge(int tid) {
    if (reclaimer_ != nullptr) {
      reclaimer_->wake();
      return;
    }
    // Deamortized configs keep the nudge bounded too: it begins (or
    // continues) a pass with one engine step.
    scheduled_pass(tid);
  }

  /// The node pool (introspection: arm actually in effect, magazine and
  /// depot occupancy).
  const NodePool<Node>& pool() const noexcept { return pool_; }

  ThreadStats& thread_stats(int tid) noexcept { return *stats_[tid]; }

  StatsSnapshot stats_snapshot() const {
    StatsSnapshot snapshot;
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      snapshot += *stats_[i];
    }
    snapshot += *bg_stats_;
    snapshot.drained = drained_.load(std::memory_order_relaxed);
    return snapshot;
  }

  /// Nodes freed by drain() so far (teardown / between bench phases).
  std::uint64_t total_drained() const noexcept {
    return drained_.load(std::memory_order_relaxed);
  }

  /// Unconditionally free every buffered retired node. Only callable when
  /// no thread is inside an operation (typical use: teardown, or between
  /// benchmark phases). Frees are attributed to the scheme-wide `drained`
  /// counter, NOT to the per-thread `reclaims` records: those are written
  /// with relaxed load+store under a single-writer contract (ThreadStats::
  /// bump), and drain runs on one thread across every tid's retired list —
  /// bumping foreign records here both raced with their owners and skewed
  /// the reclaim counts Fig 6 is derived from.
  void drain() noexcept {
    const auto free_one = [this](Node* node) noexcept {
      oracle_free_hook(ProtectionOracle::kNoTid, node);
      run_free_hook(node);
      destroy_quiescent(node);
    };
    const auto free_all = [&](const std::vector<Node*>& nodes) noexcept {
      for (Node* node : nodes) free_one(node);
      return static_cast<std::uint64_t>(nodes.size());
    };
    std::uint64_t freed = 0;
    // Whatever is in flight to the background reclaimer is backlog too:
    // queued batches and the reclaimer's survivor list are freed in place
    // under its pass mutex (allocation-free, serialized with any
    // concurrent scan), so drain() works both at teardown and between
    // bench phases with the reclaimer thread still running.
    if (reclaimer_ != nullptr) freed += reclaimer_->drain_pending(free_one);
    for (std::size_t i = 0; i < config_.max_threads; ++i) {
      auto& local = *local_[i];
      freed += free_all(local.retired);
      local.retired.clear();
      cursor_reset(static_cast<int>(i));
      sync_retired(static_cast<int>(i));
    }
    // The orphan pool is part of the backlog too: without this, batches
    // stranded between a detach() and the next adoption would leak at
    // teardown and break `retires == reclaims + drained` post-drain.
    freed += take_orphans(free_all);
    drained_.fetch_add(freed, std::memory_order_relaxed);
  }

  // MP's optional interface (paper §4.1); no-ops for every other scheme so
  // client data structures are written once. Derived (MP) shadows these.
  void update_lower_bound(int /*tid*/, const Node* /*node*/) noexcept {}
  void update_upper_bound(int /*tid*/, const Node* /*node*/) noexcept {}

  /// Dropping a local reference (paper Listing 1). Default: no-op on the
  /// scheme's own state, matching MP/EBR/IBR semantics (the oracle's shadow
  /// reference is dropped either way); HP-family schemes shadow it.
  void unprotect(int tid, int refno) noexcept {
    oracle_unprotect_hook(tid, refno);
  }

  /// Pin a node without validation. Legal only when the caller knows the
  /// node cannot be freed at the call: it is this thread's own unpublished
  /// allocation, or it is currently protected/alive within this operation.
  /// Uses: a skip-list inserter keeps accessing its node after linking it
  /// (a concurrent deleter may retire it); an NM-tree deleter holds its
  /// flagged leaf across re-seeks that recycle the seek slots. Default:
  /// no-op (operation-scoped schemes already cover the whole operation).
  void pin(int tid, int refno, Node* node) noexcept {
    oracle_pin_hook(tid, refno, node);
  }

  /// Does `tid`'s *current* protection state (hazard slots, margin
  /// intervals, epoch/era reservations) cover `node` — i.e. would every
  /// reclamation scan running right now be forced to keep it alive for
  /// this thread? The oracle asserts this on every protected read. It is
  /// the reclaimer's own predicate asked of a one-row snapshot holding
  /// only `tid`'s announcements; the snapshot is per-thread scratch, so a
  /// read allocates nothing once its row has been collected.
  bool oracle_covers(int tid, const Node* node) const {
    thread_local typename Derived::Snapshot row;
    row.reset(static_cast<std::size_t>(config_.slots_per_thread));
    derived().collect_row(tid, row);
    row.seal();
    return row.protects(node);
  }

  /// Does the observed pointer's identity tag disagree with `node`'s
  /// current header — i.e. was the edge minted for an *earlier incarnation*
  /// of the block, since recycled by the pool? Only a scheme whose
  /// protection is keyed by per-node identity rather than address or time
  /// (MP's index) can both detect and suffer this; for everyone else an
  /// edge is never stale. The oracle tolerates a stale-edge read the same
  /// way it tolerates the other dead-edge shapes (oracle.hpp).
  bool oracle_edge_stale(TaggedPtr /*word*/,
                         const Node* /*node*/) const noexcept {
    return false;
  }

  /// Guard::operator-> routes here: assert the shadow model still shows a
  /// (tid, node) reference before the dereference is allowed.
  void oracle_deref(int tid, const Node* node) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_deref(tid, node);
      }
    }
  }

  // Default protocol hooks (see the list at the top); schemes shadow them.
  static constexpr EpochClock kEpochClock = EpochClock::kManual;
  void announce(int /*tid*/) noexcept {}
  void withdraw(int /*tid*/) noexcept {}
  TaggedPtr protect(int /*tid*/, int /*refno*/, const AtomicTaggedPtr& src,
                    ThreadStats& /*stats*/) noexcept {
    return src.load(std::memory_order_acquire);
  }
  std::uint32_t assign_index(int /*tid*/) noexcept { return kUseHp; }

  /// Lifecycle hook: clear `tid`'s protection state (hazard slots, era/epoch
  /// reservations, margin intervals) so the departed thread never again pins
  /// anyone's garbage. Default: nothing to clear (Leaky). Every real scheme
  /// shadows this.
  void on_detach(int /*tid*/) noexcept {}

  /// Theoretical per-thread cap on retired-but-unreclaimed nodes implied by
  /// `config` (the wasted-memory watchdog's reference value). Default:
  /// no finite bound; HP and MP shadow this with their real formulas.
  static std::uint64_t waste_bound_per_thread(const Config&) noexcept {
    return kUnboundedWaste;
  }

  // ---- Snapshot-scan interface (reclaimer.hpp) ----
  //
  // A scheme's Snapshot captures everything its reclamation predicate
  // needs (hazard slots, epoch horizon, era reservations, margin
  // intervals), decoupled from the scan itself so one collected snapshot
  // can filter many batches: the foreground cursor collects one per pass
  // over its own list; the background reclaimer collects ONCE per wakeup
  // and filters every queued batch against it. A scheme supplies the
  // Snapshot type (reset(entries), seal(), protects(node)) and
  // collect_row; the defaults give Leaky semantics — an empty snapshot
  // that protects everything, so nothing is ever freed.
  //
  // Capability trait (smr.hpp's SnapshotReclaimable): a scheme that
  // reclaims without any snapshot pass — Hyaline's reference-counted
  // handover — shadows kSnapshotFree with true, defines
  // `using Snapshot = void;`, shadows empty() and oracle_covers. The
  // background reclaimer and the waste watchdog dispatch on the trait via
  // `if constexpr`, the foreground on the shadowed empty(), so the
  // snapshot machinery is never instantiated for such a scheme.

  static constexpr bool kSnapshotFree = false;

  /// One full foreground pass over `tid`'s retired list: the engine at an
  /// unbounded quantum, restarting any open cursor pass. SmrSchemeCore's
  /// per-thread reclamation entry point; a scheme that reclaims some other
  /// way shadows it.
  void empty(int tid) {
    cursor_begin_pass(tid);
    cursor_step(tid, step_quantum(0));
  }

  struct Snapshot {
    void reset(std::size_t /*entries*/) noexcept {}
    void seal() noexcept {}
    bool protects(const Node* /*node*/) const noexcept { return true; }
  };
  void collect_row(int /*tid*/, Snapshot& /*snapshot*/) const noexcept {}

  /// Every thread's row, then seal: the one loop that builds a snapshot.
  /// Room is reserved for slots_per_thread entries per row, an upper
  /// bound for every scheme's announcements.
  template <typename D = Derived>
  void collect_snapshot(typename D::Snapshot& snapshot) const {
    snapshot.reset(config_.max_threads *
                   static_cast<std::size_t>(config_.slots_per_thread));
    for (std::size_t t = 0; t < config_.max_threads; ++t) {
      derived().collect_row(static_cast<int>(t), snapshot);
    }
    snapshot.seal();
  }

  template <typename D = Derived>
  bool snapshot_protects(const Node* node,
                         const typename D::Snapshot& snapshot) const noexcept {
    return snapshot.protects(node);
  }

 protected:
  /// One departed thread's retired list, handed over wholesale. Linked into
  /// a Treiber stack; adopters detach the entire stack with one exchange.
  struct OrphanBatch {
    std::vector<Node*> nodes;
    OrphanBatch* next = nullptr;
  };

  /// Resumable foreground reclamation pass (Config::scan_quantum,
  /// DESIGN.md §12): the [pos, limit) window of the owner's retired list
  /// that filter_step (reclaimer.hpp) works through. The protection
  /// snapshot is collected by the pass's first step, cached across steps
  /// and re-collected only when the scheme's epoch advances mid-pass. It is
  /// also the scheme's only snapshot scratch, stored type-erased:
  /// Derived::Snapshot is still incomplete when the base instantiates
  /// PerThread, so the concrete type is only named inside cursor_step
  /// (where Derived is complete).
  struct ScanCursor {
    std::size_t pos = 0;
    std::size_t limit = 0;
    bool active = false;
    bool collected = false;  ///< this pass has collected its snapshot
    std::uint64_t snapshot_epoch = 0;
    void* snapshot = nullptr;
    void (*snapshot_deleter)(void*) noexcept = nullptr;
  };

  struct PerThread {
    std::vector<Node*> retired;
    ScanCursor cursor;
    /// retired.size(), mirrored after every mutation so foreign threads
    /// (retired_backlog, retired_count, the waste watchdog) never touch the
    /// vector's internals concurrently with the owner's push_back.
    std::atomic<std::size_t> retired_size{0};
    std::uint64_t retire_counter = 0;
    std::uint64_t alloc_counter = 0;
    // Soft-cap graceful degradation state (see retire()).
    std::uint64_t next_emergency = 0;
    std::uint64_t emergency_backoff = 1;
    /// Spare offload-batch shell: the reclaimer CASes an emptied shell
    /// back (release), the owner takes it with an acquire exchange, so
    /// steady-state offloads never allocate. Null while the shell is in
    /// flight; vector capacity circulates with the shell.
    std::atomic<RetiredBatch<Node>*> spare{nullptr};
  };

  /// Construction-time gate: throws std::invalid_argument (all build
  /// types) before any member sized from the Config is allocated.
  static const Config& validated(const Config& config) {
    config.validate();
    return config;
  }

  /// Chaos point inside read(), before the protection attempt: an injected
  /// stall parks the thread mid-operation — the Theorem 4.2 adversary.
  void chaos_protect(int tid) noexcept {
    if (FaultInjector* chaos = config_.fault_injector; chaos != nullptr) {
      chaos->point(tid, ChaosPoint::kProtect);
    }
  }

  // ---- ProtectionOracle call sites (oracle.hpp) ----
  //
  // Every hook is `if constexpr (kOracleEnabled)` so that with the
  // SMR_ORACLE CMake option OFF these compile to nothing — no branch on
  // config_.oracle, no load, nothing on the read paths. Ordering contract
  // that keeps the shadow model a SUBSET of the scheme's physical
  // protection state at all times (so a correct execution can never
  // false-positive): shadow references are ADDED only after the physical
  // protection is established (read() records them after the scheme's
  // protect hook validated, pin hooks run after the slot store + fence),
  // and REMOVED before the physical protection is revoked (end_op closes
  // the oracle's operation before the scheme's withdraw hook clears its
  // slots; schemes call the unprotect hook before clearing a slot, and
  // inside a protect loop or pin() before OVERWRITING one — a slot
  // overwrite revokes the old node's protection, so a shadow reference
  // surviving it would be a stale holder and a false free-of-protected).
  // The bracket above enforces the operation-level half of this order; the
  // slot-level half is part of each protect loop.

  /// Wraps every value read() returns: asserts the discipline
  /// (operation open, source cell not inside shadow-freed memory, tid's
  /// own state covers a live node per oracle_covers) and records
  /// the (tid, refno) shadow reference. `src` is the cell the read loaded
  /// `word` from. Null words pass through untouched.
  TaggedPtr oracle_checked_read(int tid, int refno, TaggedPtr word,
                                const AtomicTaggedPtr& src) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        if (const Node* node = word.template ptr<Node>(); node != nullptr) {
          oracle->on_protect(tid, refno, node,
                             derived().oracle_covers(tid, node), &src,
                             derived().oracle_edge_stale(word, node));
        }
      }
    }
    return word;
  }

  void oracle_start_op(int tid) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_start_op(tid);
      }
    }
  }

  void oracle_end_op(int tid) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_end_op(tid);
      }
    }
  }

  void oracle_unprotect_hook(int tid, int refno) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_unprotect(tid, refno);
      }
    }
  }

  void oracle_pin_hook(int tid, int refno, const Node* node) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_pin(tid, refno, node);
      }
    }
  }

  void oracle_alloc_hook(int tid, const Node* node) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_alloc(tid, node, sizeof(Node));
      }
    }
  }

  void oracle_retire_hook(int tid, const Node* node) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_retire(tid, node);
      }
    }
  }

  void oracle_detach_hook(int tid) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_detach(tid);
      }
    }
  }

  /// Reclamation-path frees (inline empty(), background scan, drain):
  /// the free-of-protected / double-free gate, fired BEFORE free_hook and
  /// the actual destruction.
  void oracle_free_hook(int tid, const Node* node) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_reclaim_free(tid, node);
      }
    }
  }

  void oracle_unlinked_free_hook(int tid, const Node* node) noexcept {
    if constexpr (kOracleEnabled) {
      if (ProtectionOracle* oracle = config_.oracle; oracle != nullptr) {
        oracle->on_unlinked_free(tid, node);
      }
    }
  }

  Derived& derived() noexcept { return static_cast<Derived&>(*this); }
  const Derived& derived() const noexcept {
    return static_cast<const Derived&>(*this);
  }

  void free_node(int tid, Node* node) noexcept {
    oracle_free_hook(tid, node);
    auto& stats = *stats_[tid];
    stats.bump(stats.reclaims);
    trace_event(tid, obs::TraceEvent::kReclaim,
                reinterpret_cast<std::uintptr_t>(node));
    run_free_hook(node);
    destroy(tid, node);
  }

  /// Config::free_hook, fired on every free path just before destruction.
  void run_free_hook(Node* node) const noexcept {
    if (config_.free_hook != nullptr) {
      config_.free_hook(config_.free_hook_context, node);
    }
  }

  // ---- Pool-aware construction / destruction ----
  //
  // Every node a scheme hands out or takes back funnels through these four
  // helpers, so the pool arm is decided in exactly one place. With the pool
  // off (config or ASan force-off) they are plain new/delete.

  /// Build a node in a pooled block (alloc()'s backend). A throwing Node
  /// constructor returns the block to the magazine and unwinds, so callers
  /// observe a side-effect-free failure.
  template <typename... Args>
  Node* construct(int tid, Args&&... args) {
    if (!pool_.enabled()) return new Node(std::forward<Args>(args)...);
    auto& stats = *stats_[tid];
    void* block = pool_.acquire(tid, stats);
    try {
      return ::new (block) Node(std::forward<Args>(args)...);
    } catch (...) {
      pool_.release(tid, stats, block);
      throw;
    }
  }

  /// Destroy a node and recycle its block into `tid`'s magazine.
  void destroy(int tid, Node* node) noexcept {
    if (!pool_.enabled()) {
      delete node;
      return;
    }
    node->~Node();
    pool_.release(tid, *stats_[tid], node);
  }

  /// Destroy with no owning tid (tid-less delete_unlinked): thread-safe,
  /// block returns to the allocator instead of racing for a magazine.
  void destroy_unowned(Node* node) noexcept {
    if (!pool_.enabled()) {
      delete node;
      return;
    }
    node->~Node();
    NodePool<Node>::release_unpooled(node);
  }

  /// Destroy under drain()'s quiescence: blocks recycle through the pool's
  /// tid-less drain magazine (drain between bench phases must not bleed the
  /// pool dry).
  void destroy_quiescent(Node* node) noexcept {
    if (!pool_.enabled()) {
      delete node;
      return;
    }
    node->~Node();
    pool_.release_quiescent(node);
  }

  /// Refresh `tid`'s retired-size mirror. Owner-thread (or quiescent) only;
  /// schemes call this at the end of empty() after the survivor swap.
  void sync_retired(int tid) noexcept {
    auto& local = *local_[tid];
    local.retired_size.store(local.retired.size(), std::memory_order_relaxed);
  }

  /// Tracer hook: one null-check when tracing is disabled. Called from
  /// retire/empty/free_node here and the derived schemes' epoch ticks;
  /// never from any read() path.
  void trace_event(int tid, obs::TraceEvent event,
                   std::uint64_t arg = 0) noexcept {
    if (obs::Tracer* tracer = config_.tracer; tracer != nullptr) {
      tracer->record(tid, event, arg);
    }
  }

  /// Record the retired-list size at an operation start (Fig 6's metric).
  void sample_retired(int tid) noexcept {
    auto& stats = *stats_[tid];
    stats.bump(stats.retired_sum, local_[tid]->retired.size());
    stats.bump(stats.retired_samples);
  }

  // ---- The global epoch (kEpochClock) ----

  /// Advance the global epoch by one; returns the new value.
  std::uint64_t advance_epoch() noexcept {
    return global_epoch_->fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// One scheduled tick: advance by one and trace it.
  void tick_epoch(int tid) noexcept {
    trace_event(tid, obs::TraceEvent::kEpochAdvance, advance_epoch());
  }

  // ---- The reclamation engine's foreground arm (DESIGN.md §12) ----

  /// Monotonic clock read for the max_pause_ns high-water mark. Only ever
  /// called around actual reclamation work (one increment each) — never on
  /// the retire() fast path.
  static std::uint64_t pause_clock_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Does Derived shadow empty(), i.e. own its reclamation pass instead of
  /// running the engine (Hyaline's snapshot-free handover, Leaky)?
  static constexpr bool owns_pass() noexcept {
    return !std::is_same_v<decltype(&Derived::empty),
                           decltype(&SchemeBase::empty)>;
  }

  /// One scheduled foreground pass: adopt parked orphans, count it, then
  /// run one reclamation increment. retire()'s schedule, its emergency
  /// path and reclaim_nudge() all enter reclamation here.
  void scheduled_pass(int tid,
                      obs::TraceEvent event = obs::TraceEvent::kEmpty) {
    adopt_orphans(tid);
    auto& stats = *stats_[tid];
    stats.bump(stats.empties);
    trace_event(tid, event, local_[tid]->retired.size());
    run_reclaim_increment(tid);
  }

  /// One unit of foreground reclamation on the calling thread, timed into
  /// max_pause_ns: begin-or-continue the cursor pass with one engine step
  /// of at most scan_quantum nodes (all of them at quantum 0), or the
  /// scheme's own pass when it owns one.
  void run_reclaim_increment(int tid) {
    auto& stats = *stats_[tid];
    const std::uint64_t start = pause_clock_ns();
    if constexpr (owns_pass()) {
      derived().empty(tid);
    } else {
      if (!local_[tid]->cursor.active) cursor_begin_pass(tid);
      cursor_step(tid, step_quantum(config_.scan_quantum));
    }
    stats.bump_max(stats.max_pause_ns, pause_clock_ns() - start);
  }

  /// Open a cursor pass over everything currently buffered by freezing the
  /// examination window at the current list size. Nodes retired after
  /// this point land beyond `limit` and are never filtered against this
  /// pass's snapshot, which the first step collects — after every node in
  /// the window was retired, the ordering that makes the cached snapshot
  /// sound (the same release/acquire argument the background reclaimer's
  /// one-snapshot-many-batches scan rests on).
  void cursor_begin_pass(int tid) noexcept {
    auto& local = *local_[tid];
    auto& cursor = local.cursor;
    cursor.pos = 0;
    cursor.limit = local.retired.size();
    cursor.active = cursor.limit != 0;
    cursor.collected = false;
  }

  /// One engine step: filter at most `quantum` unexamined nodes against
  /// the cached snapshot, carrying survivors in place. The snapshot is
  /// re-collected only when the scheme's epoch advanced mid-pass (a fresh
  /// collection can only widen what is freeable for nodes retired before
  /// the original one, so mid-pass refresh is sound and lets epoch-horizon
  /// schemes make progress a stale horizon would block).
  template <typename D = Derived>
  void cursor_step(int tid, std::uint64_t quantum) {
    auto& local = *local_[tid];
    auto& cursor = local.cursor;
    if (!cursor.active) return;
    using Snap = typename D::Snapshot;
    if (cursor.snapshot == nullptr) {
      cursor.snapshot = new Snap();
      cursor.snapshot_deleter = +[](void* p) noexcept {
        delete static_cast<Snap*>(p);
      };
    }
    auto& snapshot = *static_cast<Snap*>(cursor.snapshot);
    const std::uint64_t epoch = epoch_now();
    if (!cursor.collected || epoch != cursor.snapshot_epoch) {
      derived().collect_snapshot(snapshot);
      cursor.snapshot_epoch = epoch;
      cursor.collected = true;
    }
    const std::uint64_t examined = filter_step(
        local.retired, cursor.pos, cursor.limit, quantum,
        [&](const Node* node) {
          return derived().snapshot_protects(node, snapshot);
        },
        [&](Node* node) { free_node(tid, node); });
    auto& stats = *stats_[tid];
    stats.bump(stats.scan_increments);
    trace_event(tid, obs::TraceEvent::kScanStep, examined);
    if (cursor.pos >= cursor.limit) {
      cursor.active = false;
    } else {
      stats.bump(stats.cursor_carryover, cursor.limit - cursor.pos);
    }
    sync_retired(tid);
  }

  /// Invalidate `tid`'s in-flight cursor pass: the retired list it indexed
  /// was swapped or cleared (detach handover, offload, drain). The cached
  /// snapshot allocation is kept — it is scratch, reused by the next pass.
  void cursor_reset(int tid) noexcept {
    auto& cursor = local_[tid]->cursor;
    cursor.pos = 0;
    cursor.limit = 0;
    cursor.active = false;
  }

  /// Detach the whole orphan stack with one exchange — wait-free, and no
  /// two takers can ever receive the same batch — and hand each parked
  /// batch's nodes to `take`. Returns the node count taken.
  template <typename Take>
  std::uint64_t take_orphans(Take&& take) {
    OrphanBatch* batch = orphans_.exchange(nullptr, std::memory_order_acquire);
    std::uint64_t taken = 0;
    while (batch != nullptr) {
      take(batch->nodes);
      taken += batch->nodes.size();
      OrphanBatch* next = batch->next;
      delete batch;
      batch = next;
    }
    if (taken != 0) orphan_count_.fetch_sub(taken, std::memory_order_relaxed);
    return taken;
  }

  // ---- Background-reclaimer plumbing (driven via friendship by
  // BackgroundReclaimer, except stop_reclaimer/try_offload) ----

  /// Join the background reclaimer (idempotent; no-op in the foreground
  /// arm). Every scheme destructor calls this FIRST, so the reclaimer can
  /// never scan derived members that are already destroyed; ~SchemeBase
  /// calls it again as a backstop.
  void stop_reclaimer() noexcept {
    if (reclaimer_ != nullptr) reclaimer_->stop_and_join();
  }

  /// retire()'s offload path: hand the whole retired list to the reclaimer
  /// as one batch. Fails — and the caller falls back to an inline pass —
  /// on backpressure (in-flight cap) or when no batch shell can be had
  /// without blocking (spare slot empty and nothrow-new exhausted).
  bool try_offload(int tid) noexcept {
    if (reclaimer_->inflight() >= config_.reclaim_inflight_cap) {
      return false;
    }
    auto& local = *local_[tid];
    if (local.retired.empty()) return true;
    RetiredBatch<Node>* batch =
        local.spare.exchange(nullptr, std::memory_order_acquire);
    if (batch == nullptr) {
      batch = new (std::nothrow) RetiredBatch<Node>;
      if (batch == nullptr) return false;
      batch->origin = tid;
    }
    batch->nodes.swap(local.retired);
    // The swap emptied the list an open cursor pass was indexing.
    cursor_reset(tid);
    sync_retired(tid);
    auto& stats = *stats_[tid];
    stats.bump(stats.offloaded, batch->nodes.size());
    trace_event(tid, obs::TraceEvent::kOffload, batch->nodes.size());
    stats.bump_max(stats.peak_inflight, reclaimer_->enqueue(batch));
    return true;
  }

  /// Reclaimer free path. Touches base-only state (the bg stats shard and
  /// the pool's dedicated bg magazine), so it is safe even on the teardown
  /// backstop path where the derived scheme is already gone.
  void bg_free(Node* node) noexcept {
    oracle_free_hook(ProtectionOracle::kNoTid, node);
    auto& stats = *bg_stats_;
    stats.bump(stats.reclaims);
    run_free_hook(node);
    if (!pool_.enabled()) {
      delete node;
      return;
    }
    node->~Node();
    pool_.release_bg(stats, node);
  }

  /// Reclaimer-side orphan adoption: splice every parked batch into the
  /// reclaimer's backlog (the bg-arm replacement for adopt_orphans —
  /// scheduled mutator passes are offloads in that arm, so without this a
  /// dead thread's garbage would wait for an inline fallback). Returns the
  /// node count taken; the caller adds it to its in-flight total.
  std::uint64_t bg_adopt_orphans(std::vector<Node*>& backlog) {
    const std::uint64_t adopted =
        take_orphans([&](const std::vector<Node*>& nodes) {
          backlog.insert(backlog.end(), nodes.begin(), nodes.end());
        });
    if (adopted == 0) return 0;
    auto& stats = *bg_stats_;
    stats.bump(stats.adopted, adopted);
    bg_trace(obs::TraceEvent::kAdopt, adopted);
    return adopted;
  }

  /// Return an emptied batch shell to its producer's spare slot so the
  /// next offload is allocation-free; delete it if the slot is occupied.
  void recycle_batch_shell(RetiredBatch<Node>* batch) noexcept {
    batch->nodes.clear();  // capacity kept: it circulates with the shell
    auto& slot = local_[batch->origin]->spare;
    RetiredBatch<Node>* expected = nullptr;
    if (!slot.compare_exchange_strong(expected, batch,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
      delete batch;
    }
  }

  /// Reclaimer-thread tracing. Per-thread rings are single-producer, so
  /// the reclaimer records only when the tracer was sized with a spare
  /// lane past max_threads (lane max_threads is the reclaimer's).
  void bg_trace(obs::TraceEvent event, std::uint64_t arg) noexcept {
    obs::Tracer* tracer = config_.tracer;
    if (tracer == nullptr) return;
    if (tracer->max_threads() <= config_.max_threads) return;
    tracer->record(static_cast<int>(config_.max_threads), event, arg);
  }

  PerThread& local(int tid) noexcept { return *local_[tid]; }

  Config config_;
  /// The one global epoch. Its own padded line: MP's read() fast path
  /// loads it on every read, and the ticks must not invalidate neighbours.
  common::Padded<std::atomic<std::uint64_t>> global_epoch_{1};
  std::unique_ptr<common::Padded<ThreadStats>[]> stats_;
  std::unique_ptr<common::Padded<PerThread>[]> local_;
  NodePool<Node> pool_;
  std::atomic<std::uint64_t> drained_{0};
  /// Frees through the tid-less delete_unlinked compat path (not part of
  /// any thread's shard).
  std::atomic<std::uint64_t> stray_frees_{0};
  /// Orphan pool head (Treiber stack of departed threads' retired lists).
  std::atomic<OrphanBatch*> orphans_{nullptr};
  /// Nodes currently parked in the orphan pool — not the node pool of
  /// pool.hpp — awaiting adoption (relaxed; monitoring only).
  std::atomic<std::uint64_t> orphan_count_{0};
  /// The background reclaimer's stats shard (single writer: that thread).
  /// Its frees land in `reclaims` here, keeping the post-drain identity
  /// retires == reclaims + drained intact in both arms; it never writes
  /// peak_retired (a per-mutator-thread bound metric).
  common::Padded<ThreadStats> bg_stats_;
  /// Background reclaimer (Config::background_reclaim); null in the
  /// foreground arm, so retire() pays one predictable branch. Declared
  /// last: it is destroyed first, while pool_/bg_stats_ are still alive
  /// for its teardown-backstop frees.
  std::unique_ptr<BackgroundReclaimer<Node, Derived>> reclaimer_;
};

}  // namespace mp::smr::detail
