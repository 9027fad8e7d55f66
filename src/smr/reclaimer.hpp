// Background reclamation (DESIGN.md §8): a dedicated thread that drains an
// MPSC queue of retired batches and runs the scan/free pass off the
// application threads.
//
// Why: every scheme otherwise runs its empty() scan synchronously inside
// retire() on the application thread, so reclamation cost lands directly on
// operation tail latencies — and the snapshot that scan needs (all T*slots
// hazard/era announcements) is rebuilt per thread per pass. Handing whole
// batches to one reclaimer amortizes that: the reclaimer snapshots the
// protection state **once per wakeup** and scans every queued batch (plus
// its carried-over backlog) against that one snapshot.
//
// Queue discipline — the same Treiber handover as the orphan pool in
// scheme_base.hpp:
//   * producers (retire() at an empty_freq boundary) push one RetiredBatch
//     with a release CAS; the hot path is allocation-free and noexcept
//     because batch shells recycle through a per-thread spare slot;
//   * the reclaimer detaches the whole stack with one acquire exchange —
//     ABA-immune, and the acquire pairs with the producers' release so
//     every node in a drained batch was retired (and its retire_epoch
//     stamped) before the snapshot that scans it is taken. That is the
//     same argument that makes the foreground empty() and orphan adoption
//     safe.
//
// Bounded in-flight waste: enqueue() maintains a node count covering the
// queue plus the reclaimer's unreclaimed backlog. retire() checks it
// against Config::reclaim_inflight_cap *before* offloading and falls back
// to an inline pass when the cap is hit, so total wasted memory stays
// within reclaim_inflight_cap + T * waste_bound_per_thread (the in-flight
// term; see DESIGN.md §8 for the derivation).
//
// Liveness: producers wake the reclaimer only on the queue's
// empty->nonempty transition (at most one notify per empty_freq retires
// per thread); a reclaim_poll_ms poll timeout is the watchdog that re-runs
// the scan even without wakeups, so backlog nodes blocked by a
// since-released protection are eventually freed, and the reclaimer keeps
// adopting orphans while the mutators are stalled or dead.
//
// Lifecycle: the thread starts in the SchemeBase constructor — possibly
// before the derived scheme finishes constructing — and every pass
// early-outs without touching any derived-scheme state until something is
// queued (which implies construction completed). Each scheme's destructor
// calls stop_reclaimer() so the join happens while the derived members the
// scan reads are still alive; the reclaimer's own destructor is an
// idempotent stop+join backstop for the constructor-throw path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "smr/config.hpp"
#include "smr/stats.hpp"

namespace mp::smr {

namespace detail {

/// Config::scan_quantum as a step bound: 0 means one unbounded step.
constexpr std::uint64_t step_quantum(std::uint64_t scan_quantum) noexcept {
  return scan_quantum == 0 ? std::numeric_limits<std::uint64_t>::max()
                           : scan_quantum;
}

/// The reclamation engine's one filter step (DESIGN.md §12), shared by the
/// foreground ScanCursor and the background pass. `list` is partitioned
/// into three regions:
///   [0, pos)       survivors this pass (protected when examined)
///   [pos, limit)   retired before the snapshot, not yet examined
///   [limit, size)  retired after the snapshot — the next pass's input
/// Examines at most `quantum` nodes of [pos, limit): protected ones stay as
/// survivors, the rest are swap-removed in O(1) — the hole takes the last
/// unexamined node, whose slot takes the overall tail (both moves
/// degenerate to self-assignment at the boundaries) — and handed to
/// `free`. Returns the number of nodes examined.
template <typename Node, typename Protects, typename Free>
std::uint64_t filter_step(std::vector<Node*>& list, std::size_t& pos,
                          std::size_t& limit, std::uint64_t quantum,
                          Protects&& protects, Free&& free) {
  std::uint64_t examined = 0;
  while (pos < limit && examined < quantum) {
    Node* node = list[pos];
    ++examined;
    if (protects(node)) {
      ++pos;
      continue;
    }
    list[pos] = list[limit - 1];
    list[limit - 1] = list.back();
    list.pop_back();
    --limit;
    free(node);
  }
  return examined;
}

}  // namespace detail

/// One producer's retired list, handed over wholesale. `origin` names the
/// producing tid forever: after a scan the emptied shell is CASed back into
/// that thread's spare slot so steady-state offloads never allocate.
template <typename Node>
struct RetiredBatch {
  std::vector<Node*> nodes;
  RetiredBatch* next = nullptr;
  int origin = 0;
};

template <typename Node, typename Scheme>
class BackgroundReclaimer {
 public:
  BackgroundReclaimer(Scheme& scheme, const Config& config,
                      ThreadStats& bg_stats)
      : scheme_(scheme),
        poll_ms_(config.reclaim_poll_ms),
        quantum_(detail::step_quantum(config.scan_quantum)),
        bg_stats_(bg_stats),
        thread_([this] { run(); }) {}

  BackgroundReclaimer(const BackgroundReclaimer&) = delete;
  BackgroundReclaimer& operator=(const BackgroundReclaimer&) = delete;

  ~BackgroundReclaimer() {
    stop_and_join();
    // The scheme's drain() (which runs before this destructor) collects
    // everything pending; anything still here means drain was skipped, so
    // free through the base-only bg path rather than leak.
    RetiredBatch<Node>* batch =
        queue_.exchange(nullptr, std::memory_order_acquire);
    while (batch != nullptr) {
      for (Node* node : batch->nodes) scheme_.bg_free(node);
      RetiredBatch<Node>* next = batch->next;
      delete batch;
      batch = next;
    }
    for (Node* node : backlog_) scheme_.bg_free(node);
  }

  /// Producer path (any thread, inside retire()): push one batch and
  /// return the post-push in-flight node count (for the producer's
  /// peak_inflight high-water). Allocation-free, noexcept.
  std::uint64_t enqueue(RetiredBatch<Node>* batch) noexcept {
    const std::uint64_t count = batch->nodes.size();
    RetiredBatch<Node>* head = queue_.load(std::memory_order_relaxed);
    do {
      batch->next = head;
    } while (!queue_.compare_exchange_weak(head, batch,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
    const std::uint64_t now =
        inflight_.fetch_add(count, std::memory_order_relaxed) + count;
    if (head == nullptr) {
      // Empty->nonempty transition: at most one mutex+notify per
      // empty_freq retires per thread; steady-state pushes skip it.
      {
        std::lock_guard<std::mutex> lock(cv_mutex_);
        kicked_ = true;
      }
      cv_.notify_one();
    }
    return now;
  }

  /// Nodes queued or parked in the backlog (relaxed; the backpressure
  /// check and monitoring).
  std::uint64_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Early wake (degradation hook, svc::HealthMonitor): nudge the
  /// reclaimer thread out of its poll sleep so a building backlog is
  /// scanned now instead of at the next watchdog tick. Safe from any
  /// thread; a no-op if a pass is already pending.
  void wake() noexcept {
    {
      std::lock_guard<std::mutex> lock(cv_mutex_);
      kicked_ = true;
    }
    cv_.notify_one();
  }

  /// Stop the reclaimer thread and join it. Idempotent; called from every
  /// scheme's destructor (while derived members are still alive) and again
  /// from ~BackgroundReclaimer as a backstop.
  void stop_and_join() noexcept {
    // The atomic flag is what a chunked pass checks between quanta, so a
    // stop interrupts it at the next chunk boundary instead of waiting
    // out the whole backlog scan.
    stop_flag_.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(cv_mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// drain() support: free every queued/backlogged node in place via
  /// `free_fn` (quiescent free path), under the pass mutex so it cannot
  /// interleave with a concurrent pass. Allocation-free, so the scheme's
  /// noexcept drain() stays honest. Returns the number freed.
  template <typename FreeFn>
  std::uint64_t drain_pending(FreeFn&& free_fn) noexcept {
    std::lock_guard<std::mutex> lock(pass_mutex_);
    std::uint64_t taken = 0;
    RetiredBatch<Node>* batch =
        queue_.exchange(nullptr, std::memory_order_acquire);
    while (batch != nullptr) {
      for (Node* node : batch->nodes) {
        free_fn(node);
        ++taken;
      }
      RetiredBatch<Node>* next = batch->next;
      delete batch;
      batch = next;
    }
    for (Node* node : backlog_) {
      free_fn(node);
      ++taken;
    }
    backlog_.clear();
    ++backlog_gen_;  // tells a yielded chunked pass its index state is stale
    if (taken != 0) inflight_.fetch_sub(taken, std::memory_order_relaxed);
    return taken;
  }

  /// Run one scan pass synchronously on the calling thread (tests: makes
  /// "the reclaimer has caught up" deterministic without sleeping).
  void force_pass() { pass(); }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(cv_mutex_);
    while (!stop_) {
      // Wait for a kick or the poll timeout — the timeout path is the
      // watchdog: it re-scans the backlog against a fresh snapshot even
      // when no mutator offloads (or none are left alive).
      cv_.wait_for(lock, std::chrono::milliseconds(poll_ms_),
                   [this] { return stop_ || kicked_; });
      if (stop_) break;
      kicked_ = false;
      lock.unlock();
      pass();
      lock.lock();
    }
  }

  /// One wakeup: drain the queue, adopt orphans, take ONE protection
  /// snapshot, scan everything against it. Serialized with drain_pending()
  /// by pass_mutex_. The scan runs in quantum-bounded chunks and yields
  /// pass_mutex_ between them, so a concurrent drain_pending()/stop
  /// interleaves at a chunk boundary instead of waiting out the whole pass
  /// (DESIGN.md §12); at scan_quantum 0 the one chunk covers everything.
  void pass() {
    std::unique_lock<std::mutex> lock(pass_mutex_);
    // A chunked pass on another thread (force_pass vs. the reclaimer
    // thread) may be parked at a yield point; its snapshot/index state
    // cannot tolerate a second pass mutating the backlog underneath it.
    if (pass_active_) return;
    pass_active_ = true;
    struct ActiveGuard {
      bool& flag;
      ~ActiveGuard() { flag = false; }  // runs before `lock` unlocks
    } active_guard{pass_active_};
    // Order matters: the queue exchange and orphan adoption happen BEFORE
    // the snapshot, so every node scanned was retired before the snapshot
    // was taken (release push / acquire pop) — a protection announced
    // after that cannot reference an already-unlinked node.
    RetiredBatch<Node>* batch =
        queue_.exchange(nullptr, std::memory_order_acquire);
    const std::uint64_t adopted = scheme_.bg_adopt_orphans(backlog_);
    if (adopted != 0) {
      inflight_.fetch_add(adopted, std::memory_order_relaxed);
    }
    if (batch == nullptr && backlog_.empty()) return;
    // Reaching here implies a retire() or detach() ran, i.e. the derived
    // scheme finished constructing: the hook calls below are safe even
    // though the thread itself started in the base-class constructor.
    if constexpr (Scheme::kSnapshotFree) {
      // Snapshot-free arm (Hyaline): there is nothing to scan — every node
      // is handed over to the scheme's own reference-counted reclamation
      // path, which frees it as soon as the operations concurrent with its
      // retirement finish. No bg_snapshots bump: no snapshot was taken.
      bg_stats_.bump_max(bg_stats_.peak_inflight, inflight());
      std::uint64_t handed = 0;
      if (!backlog_.empty()) {
        handed += backlog_.size();
        scheme_.bg_reclaim_nodes(backlog_);
      }
      while (batch != nullptr) {
        RetiredBatch<Node>* next = batch->next;
        handed += batch->nodes.size();
        scheme_.bg_reclaim_nodes(batch->nodes);
        scheme_.recycle_batch_shell(batch);
        batch = next;
      }
      if (handed != 0) inflight_.fetch_sub(handed, std::memory_order_relaxed);
      bg_stats_.bump(bg_stats_.bg_scans);
      scheme_.bg_trace(obs::TraceEvent::kBgScan, handed);
      return;
    } else {
      typename Scheme::Snapshot snapshot;
      scheme_.collect_snapshot(snapshot);
      bg_stats_.bump(bg_stats_.bg_snapshots);
      bg_stats_.bump_max(bg_stats_.peak_inflight, inflight());
      chunked_scan(lock, batch, snapshot);
    }
  }

  /// The snapshot arm of pass(): splice every queued batch into the
  /// backlog (all of those nodes predate the snapshot — release push /
  /// acquire exchange), then filter the backlog with the engine's step in
  /// chunks of <= quantum_ nodes, dropping and re-taking pass_mutex_
  /// between chunks. New offloads land in queue_ (picked up by the NEXT
  /// pass), so only drain_pending() can mutate the backlog at a yield
  /// point — detected via backlog_gen_. Templated on the snapshot type (not
  /// `typename Scheme::Snapshot` directly): snapshot-free schemes define
  /// Snapshot = void, and a void parameter in a member declaration would
  /// be ill-formed at class instantiation even though the function is
  /// never called.
  template <typename Snapshot>
  void chunked_scan(std::unique_lock<std::mutex>& lock,
                    RetiredBatch<Node>* batch, const Snapshot& snapshot) {
    // bg_scans: each batch filtered under this snapshot counts one, and so
    // does the carried backlog — bg_scans / bg_snapshots is the snapshot
    // amortization at every quantum.
    std::uint64_t scans = backlog_.empty() ? 0 : 1;
    while (batch != nullptr) {
      RetiredBatch<Node>* next = batch->next;
      backlog_.insert(backlog_.end(), batch->nodes.begin(),
                      batch->nodes.end());
      scheme_.recycle_batch_shell(batch);
      batch = next;
      ++scans;
    }
    bg_stats_.bump(bg_stats_.bg_scans, scans);
    const std::uint64_t generation = backlog_gen_;
    // [limit, size) stays empty here: drain_pending is the only other
    // backlog writer and it aborts the pass.
    std::size_t pos = 0;
    std::size_t limit = backlog_.size();
    const std::uint64_t scanned = limit;
    while (true) {
      const std::size_t before = limit;
      const std::uint64_t examined = detail::filter_step(
          backlog_, pos, limit, quantum_,
          [&](const Node* node) {
            return scheme_.snapshot_protects(node, snapshot);
          },
          [&](Node* node) { scheme_.bg_free(node); });
      if (limit != before) {
        inflight_.fetch_sub(before - limit, std::memory_order_relaxed);
      }
      bg_stats_.bump(bg_stats_.scan_increments);
      scheme_.bg_trace(obs::TraceEvent::kScanStep, examined);
      if (pos >= limit) break;
      bg_stats_.bump(bg_stats_.cursor_carryover, limit - pos);
      // Quantum boundary: let stop_and_join()/drain_pending() in.
      lock.unlock();
      lock.lock();
      if (stop_flag_.load(std::memory_order_relaxed) ||
          backlog_gen_ != generation) {
        return;  // drained or stopping; whatever remains is theirs
      }
    }
    scheme_.bg_trace(obs::TraceEvent::kBgScan, scanned);
  }

  Scheme& scheme_;
  const std::uint32_t poll_ms_;
  /// Chunk size: Config::scan_quantum, unbounded when that is 0.
  const std::uint64_t quantum_;
  /// The reclaimer thread's own stats shard (single-writer: this thread,
  /// plus construction-time zeroes). Producer counters stay on the
  /// producers' shards.
  ThreadStats& bg_stats_;

  /// MPSC Treiber stack of offloaded batches.
  std::atomic<RetiredBatch<Node>*> queue_{nullptr};
  /// Queued + backlogged node count (the backpressure signal).
  std::atomic<std::uint64_t> inflight_{0};
  /// Survivors of previous scans, rescanned against each fresh snapshot.
  /// Reclaimer-thread-only (under pass_mutex_ for drain_pending).
  std::vector<Node*> backlog_;

  std::mutex pass_mutex_;
  /// Guarded by pass_mutex_: true while any pass (possibly parked at a
  /// chunk yield) is in flight; a second caller backs off instead of
  /// interleaving with it.
  bool pass_active_ = false;
  /// Guarded by pass_mutex_: bumped by drain_pending() so a yielded
  /// chunked pass knows the backlog was cleared out from under it.
  std::uint64_t backlog_gen_ = 0;
  /// Checked between chunks (no cv_mutex_ needed mid-pass).
  std::atomic<bool> stop_flag_{false};
  std::mutex cv_mutex_;
  std::condition_variable cv_;
  bool kicked_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace mp::smr
