// Sharded key-value service layer (DESIGN.md §10–§11): the "millions of
// users" front-end over the library's concurrent search structures.
//
// The paper's waste bound (Theorem 4.2) is stated *per scheme instance* —
// one domain's stalled reader cannot block another domain's reclamation.
// Everything below makes that per-domain story first-class at service
// scale:
//
//   * ShardedMap<Structure> owns N shards. Each shard is a complete,
//     independent SMR domain: its own Structure, its own scheme instance
//     (so its own protection slots, epochs, retired lists and waste bound),
//     its own node-pool magazines/depot, and — when the per-shard Config
//     asks for it — its own BackgroundReclaimer thread. A stall, fault
//     injector, oracle or tracer attached to one shard never perturbs the
//     others; Config plumbing, stats, and the WasteWatchdog all resolve
//     per shard.
//
//   * Requests route by key hash (a murmur3-style finalizer, deliberately
//     distinct from MichaelHashSet's Fibonacci bucket hash so shard choice
//     and in-shard bucket choice stay decorrelated). Routing is a pure
//     function of the key — independent of which thread asks, how many
//     shards' worth of traffic preceded it, or any thread churn — which is
//     what makes a key findable from any client forever.
//
//   * ShardedMap::Client is the async front-end: submit() enqueues a
//     request into a per-shard pending batch and returns a ticket without
//     touching any shard; flush() (or hitting the batch limit) executes
//     each shard's batch back-to-back against that one shard — shard-local
//     cache/SMR state is touched once per batch, not once per request —
//     and pushes results into the client's fixed-capacity completion ring.
//     try_complete() pops them. One OS thread can therefore drive many
//     in-flight operations: submit k requests, flush, then harvest k
//     completions, with backpressure (submit() returns nullopt) when the
//     ring is full instead of unbounded queue growth.
//
//   * Failure semantics are typed (svc/resilience.hpp): every ticket
//     completes exactly once with a Status. The flush contract is
//     exactly-once — a structure-op bad_alloc completes that one request
//     with kAllocFailed and the batch continues; on any other exception
//     the executed prefix is removed from the batch before unwinding, so
//     a retried flush() can never re-execute a completed mutation.
//     Requests may carry a deadline (expired ops are shed at flush with
//     kDeadlineExceeded, unexecuted); an optional per-client admission
//     gate (token bucket + in-flight cap) completes refused requests with
//     kRejected before any shard is touched; a Shedding shard answers
//     writes with kShedWrite while still serving reads.
//
//   * Each shard has a HealthMonitor sampling its retired backlog (local
//     retired lists + reclaimer in-flight) against a capacity derived from
//     the shard's waste bound, after every flush that touched the shard.
//     Degraded nudges reclamation early (Scheme::reclaim_nudge); Shedding
//     turns on the write-shedding above. Transitions are traced
//     (kHealthTransition) through the shard's own tracer.
//
// Threading contract: a Client belongs to one OS thread (its tid must be a
// valid tid of every shard's scheme, i.e. < Config::max_threads). Different
// clients on different threads operate concurrently; the shards' lock-free
// structures and SMR schemes provide the synchronization. HealthMonitor
// updates are thread-safe (many clients flush against one shard).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "smr/chaos.hpp"  // WasteWatchdog, sat_mul
#include "smr/smr.hpp"
#include "svc/resilience.hpp"

namespace mp::svc {

enum class OpType : std::uint8_t { kGet, kContains, kInsert, kRemove };

inline bool is_write(OpType op) noexcept {
  return op == OpType::kInsert || op == OpType::kRemove;
}

/// One service request. `user` is opaque and echoed in the completion —
/// the benches stamp intended-arrival deadlines there to measure latency
/// without a side table. `deadline_ns` (svc::now_ns clock) is optional:
/// 0 means no deadline; an op whose deadline has passed when its batch is
/// flushed is shed with kDeadlineExceeded instead of executed.
struct Request {
  OpType op = OpType::kGet;
  std::uint64_t key = 0;
  std::uint64_t value = 0;        ///< insert payload; ignored by other ops
  std::uint64_t user = 0;         ///< opaque, echoed in the Completion
  std::uint64_t deadline_ns = 0;  ///< 0 = none; else svc::now_ns() deadline
};

struct Completion {
  using Status = svc::Status;  ///< Completion::Status, per the service API

  std::uint64_t ticket = 0;
  std::uint64_t user = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  ///< get: the value found (unchanged on miss)
  OpType op = OpType::kGet;
  Status status = Status::kOk;  ///< how the request ended (resilience.hpp)
  bool ok = false;  ///< get/contains: present; insert: inserted; remove: removed

  /// The structure op actually ran (`ok` is meaningful).
  bool executed() const noexcept { return svc::executed(status); }
};

template <typename Structure>
class ShardedMap {
 public:
  using Scheme = typename Structure::Scheme;
  using Handle = smr::ThreadHandle<Scheme>;
  using Key = typename Structure::Key;
  using Value = typename Structure::Value;

  /// Homogeneous shards: `shard_count` (rounded up to a power of two)
  /// copies of `config`, extra `args` forwarded to every Structure
  /// constructor (e.g. MichaelHashSet's bucket count).
  template <typename... Args>
  ShardedMap(std::size_t shard_count, const smr::Config& config,
             Args&&... args)
      : ShardedMap(std::vector<smr::Config>(round_up_pow2(shard_count),
                                            config),
                   std::forward<Args>(args)...) {}

  /// Heterogeneous shards: one Config per shard (count must be a power of
  /// two). This is how a tracer, fault injector, oracle, or background
  /// reclaimer is attached to an individual shard's domain.
  template <typename... Args>
  explicit ShardedMap(const std::vector<smr::Config>& per_shard,
                      Args&&... args) {
    if (per_shard.empty() || (per_shard.size() & (per_shard.size() - 1))) {
      throw std::invalid_argument(
          "svc::ShardedMap: shard count must be a nonzero power of two");
    }
    shards_.reserve(per_shard.size());
    for (const smr::Config& config : per_shard) {
      shards_.push_back(std::make_unique<Structure>(config, args...));
    }
    rebuild_health(HealthOptions{});
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Pure function of the key: murmur3's 64-bit finalizer, masked. Stable
  /// across threads, clients, map instances, and process restarts.
  std::size_t shard_of(Key key) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & (shards_.size() - 1);
  }

  Structure& shard(std::size_t index) noexcept { return *shards_[index]; }
  const Structure& shard(std::size_t index) const noexcept {
    return *shards_[index];
  }
  Scheme& scheme(std::size_t index) noexcept {
    return shards_[index]->scheme();
  }
  const Scheme& scheme(std::size_t index) const noexcept {
    return shards_[index]->scheme();
  }

  /// Stats for one shard's domain (deltas and conservation identities are
  /// per shard, exactly like a standalone structure's).
  smr::StatsSnapshot shard_stats(std::size_t index) const {
    return shards_[index]->scheme().stats_snapshot();
  }

  /// Service-wide aggregate (peaks max-merge across shards, flows sum).
  smr::StatsSnapshot stats_total() const {
    smr::StatsSnapshot total;
    for (const auto& shard : shards_) {
      total += shard->scheme().stats_snapshot();
    }
    return total;
  }

  /// Quiesce every shard (between bench phases / at teardown). After this,
  /// each shard individually satisfies retires == reclaims + drained.
  void drain_all() noexcept {
    for (auto& shard : shards_) shard->scheme().drain();
  }

  /// Every shard's WasteWatchdog invariants, service-wide: the measured
  /// per-thread retired peak within Theorem 4.2's bound, and (in the bg
  /// arm) the in-flight backlog within cap + T * bound.
  bool waste_ok(std::uint64_t slack = 0) const {
    for (const auto& shard : shards_) {
      if (!smr::WasteWatchdog<Scheme>(shard->scheme()).ok(slack)) return false;
    }
    return true;
  }
  bool inflight_ok() const {
    for (const auto& shard : shards_) {
      if (!smr::WasteWatchdog<Scheme>(shard->scheme()).inflight_ok()) {
        return false;
      }
    }
    return true;
  }

  // ---- Memory-pressure health (DESIGN.md §11) ----

  /// Replace every shard's HealthMonitor with one built from `options`.
  /// Call before traffic starts (monitors are rebuilt, counters reset).
  void set_health_options(const HealthOptions& options) {
    options.validate();
    rebuild_health(options);
  }

  HealthMonitor& health(std::size_t index) noexcept {
    return *health_[index];
  }
  const HealthMonitor& health(std::size_t index) const noexcept {
    return *health_[index];
  }
  HealthState health_state(std::size_t index) const noexcept {
    return health_[index]->state();
  }

  /// Feed one backlog sample (local retired lists + reclaimer in-flight)
  /// to `index`'s monitor. Clients call this after every flush that
  /// touched the shard; tests/benches may call it directly to force a
  /// deterministic observation point. Transitions are traced through the
  /// shard's own tracer; while non-Healthy, reclamation is nudged (rate
  /// limited by HealthOptions::nudge_period).
  void sample_health(std::size_t index, int tid) {
    HealthMonitor& monitor = *health_[index];
    if (!monitor.active()) return;
    Scheme& scheme = shards_[index]->scheme();
    const std::uint64_t backlog =
        scheme.retired_backlog() + scheme.reclaim_inflight();
    if (auto edge = monitor.update(backlog)) {
      if (obs::Tracer* tracer = scheme.config().tracer) {
        tracer->record(tid, obs::TraceEvent::kHealthTransition,
                       (static_cast<std::uint64_t>(edge->first) << 8) |
                           static_cast<std::uint64_t>(edge->second));
      }
    }
    if (monitor.state() != HealthState::kHealthy && monitor.should_nudge()) {
      scheme.reclaim_nudge(tid);
    }
  }

  /// Detach `tid` from every shard's domain (retired lists to the orphan
  /// pools, protections cleared). The ThreadRegistry detach-hook target
  /// for service threads that may die with batches pending.
  void detach(int tid) {
    for (auto& shard : shards_) shard->scheme().detach(tid);
  }

  // ---- Synchronous routed operations (tests, prefill, simple callers) ----

  bool insert(int tid, Key key, Value value) {
    Structure& s = *shards_[shard_of(key)];
    return s.insert(s.scheme().handle(tid), key, value);
  }
  bool remove(int tid, Key key) {
    Structure& s = *shards_[shard_of(key)];
    return s.remove(s.scheme().handle(tid), key);
  }
  bool contains(int tid, Key key) {
    Structure& s = *shards_[shard_of(key)];
    return s.contains(s.scheme().handle(tid), key);
  }
  bool get(int tid, Key key, Value& value_out) {
    Structure& s = *shards_[shard_of(key)];
    return s.get(s.scheme().handle(tid), key, value_out);
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->size();
    return total;
  }

  // ---- Async front-end ----

  class Client {
   public:
    /// Sanity ceilings for the ctor parameters: a ring beyond 2^24 slots
    /// (16M unharvested completions, ~1 GiB) or a batch limit beyond 2^20
    /// is a bug in the caller, not a capacity plan.
    static constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 24;
    static constexpr std::size_t kMaxBatchLimit = std::size_t{1} << 20;

    /// `tid` must be < every shard Config's max_threads. `batch_limit` is
    /// the per-shard pending count that triggers an automatic flush of
    /// that shard (0 is promoted to 1); `ring_capacity` (rounded up to a
    /// power of two) bounds unharvested completions and hence total
    /// in-flight requests. `admission` configures the per-client gate
    /// (default: fully permissive).
    Client(ShardedMap& map, int tid, std::size_t batch_limit = 32,
           std::size_t ring_capacity = 1024,
           const AdmissionOptions& admission = AdmissionOptions{})
        : map_(&map),
          tid_(tid),
          batch_limit_(validated_batch_limit(batch_limit)),
          admission_(admission),
          bucket_(admission.rate_per_sec, admission.burst),
          ring_(round_up_pow2(validated_ring_capacity(ring_capacity))) {
      pending_.resize(map.shard_count());
      for (auto& batch : pending_) batch.reserve(batch_limit_);
      handles_.reserve(map.shard_count());
      for (std::size_t s = 0; s < map.shard_count(); ++s) {
        handles_.push_back(map.scheme(s).handle(tid));
      }
    }

    int tid() const noexcept { return tid_; }

    /// Enqueue one request. Returns its ticket (monotonic from 1), or
    /// nullopt when admitting it could overflow the completion ring —
    /// the caller must harvest completions (after a flush) and retry.
    /// When the admission gate refuses (token bucket dry or the in-flight
    /// cap reached), the request still gets a ticket but completes
    /// immediately with kRejected — no shard is touched. Reaching
    /// `batch_limit` pending requests on the target shard flushes that
    /// one shard inline.
    std::optional<std::uint64_t> submit(const Request& request) {
      if (in_flight() >= ring_.size()) return std::nullopt;
      const std::size_t shard = map_->shard_of(request.key);
      if (!admit()) {
        const std::uint64_t ticket = next_ticket_++;
        Completion done;
        done.ticket = ticket;
        done.user = request.user;
        done.key = request.key;
        done.value = request.value;
        done.op = request.op;
        done.status = Status::kRejected;
        if (obs::Tracer* tracer = map_->scheme(shard).config().tracer) {
          tracer->record(tid_, obs::TraceEvent::kAdmissionReject, ticket);
        }
        push_completion(done);
        return ticket;
      }
      const std::uint64_t ticket = next_ticket_++;
      pending_[shard].push_back(PendingOp{request, ticket});
      if (pending_[shard].size() >= batch_limit_) flush_shard(shard);
      return ticket;
    }

    /// Enqueue `count` gets that flush fuses into per-shard get_many
    /// batches: consecutive multi-get ops against one shard execute under
    /// a single SMR operation bracket with the structure's batched read
    /// path (DESIGN.md §12). Every key gets its own ticket (consecutive
    /// from the returned first one) and its own completion, exactly like
    /// `count` submit() calls. Admission is all-or-nothing: nullopt when
    /// the ring cannot absorb all `count` completions; the gate charges
    /// the call as ONE unit (one token), and a refusal completes every
    /// key with kRejected.
    std::optional<std::uint64_t> submit_multi_get(
        const Key* keys, std::size_t count, std::uint64_t user = 0,
        std::uint64_t deadline_ns = 0) {
      if (count == 0) return std::nullopt;
      if (in_flight() + count > ring_.size()) return std::nullopt;
      const std::uint64_t first_ticket = next_ticket_;
      if (!admit()) {
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t ticket = next_ticket_++;
          Completion done;
          done.ticket = ticket;
          done.user = user;
          done.key = keys[i];
          done.op = OpType::kGet;
          done.status = Status::kRejected;
          if (obs::Tracer* tracer =
                  map_->scheme(map_->shard_of(keys[i])).config().tracer) {
            tracer->record(tid_, obs::TraceEvent::kAdmissionReject, ticket);
          }
          push_completion(done);
        }
        return first_ticket;
      }
      for (std::size_t i = 0; i < count; ++i) {
        Request request;
        request.op = OpType::kGet;
        request.key = keys[i];
        request.user = user;
        request.deadline_ns = deadline_ns;
        const std::size_t shard = map_->shard_of(keys[i]);
        const std::uint64_t ticket = next_ticket_++;
        pending_[shard].push_back(PendingOp{request, ticket, true});
        if (pending_[shard].size() >= batch_limit_) flush_shard(shard);
      }
      return first_ticket;
    }

    /// Execute every shard's pending batch (shards with work are visited
    /// once each; their completions land in the ring in submit order
    /// within a shard).
    void flush() {
      for (std::size_t s = 0; s < pending_.size(); ++s) flush_shard(s);
    }

    /// Pop the oldest unharvested completion. False when none are ready
    /// (pending requests only complete at a flush).
    bool try_complete(Completion& out) noexcept {
      if (ring_tail_ == ring_head_) return false;
      out = ring_[ring_tail_ & (ring_.size() - 1)];
      ++ring_tail_;
      return true;
    }

    /// Requests submitted but not yet harvested (pending + in the ring).
    std::size_t in_flight() const noexcept {
      return static_cast<std::size_t>((next_ticket_ - 1) - ring_tail_);
    }
    std::uint64_t submitted() const noexcept { return next_ticket_ - 1; }
    std::uint64_t completed() const noexcept { return ring_head_; }
    std::uint64_t batches_flushed() const noexcept { return batches_; }

    /// Per-status tallies over every completion this client produced
    /// (including still-unharvested ones).
    const StatusCounts& status_counts() const noexcept { return counts_; }

   private:
    struct PendingOp {
      Request request;
      std::uint64_t ticket;
      bool multi_get = false;  ///< from submit_multi_get: fusable at flush
    };

    /// Longest run fused into one get_many call (bounds the flush path's
    /// stack scratch; longer runs just split into several calls).
    static constexpr std::size_t kMultiGetRun = 64;

    static std::size_t validated_batch_limit(std::size_t batch_limit) {
      if (batch_limit > kMaxBatchLimit) {
        throw std::invalid_argument("svc::Client: batch_limit too large");
      }
      return batch_limit == 0 ? 1 : batch_limit;
    }
    static std::size_t validated_ring_capacity(std::size_t ring_capacity) {
      if (ring_capacity > kMaxRingCapacity) {
        throw std::invalid_argument("svc::Client: ring_capacity too large");
      }
      return ring_capacity;
    }

    bool admit() noexcept {
      if (admission_.max_in_flight != 0 &&
          in_flight() >= admission_.max_in_flight) {
        return false;
      }
      return bucket_.try_take(now_ns());
    }

    // Cannot overflow: submit() admits at most ring_.size() requests
    // between the oldest unharvested completion and here.
    void push_completion(const Completion& done) noexcept {
      counts_.bump(done.status);
      ring_[ring_head_ & (ring_.size() - 1)] = done;
      ++ring_head_;
    }

    /// Exactly-once contract: every pending op completes into the ring at
    /// most once, and an op leaves the batch in the same step that its
    /// completion is pushed. A structure-op bad_alloc completes that one
    /// request with kAllocFailed and the batch continues. Any other
    /// exception unwinds — but only after the executed prefix has been
    /// erased from the batch, so a retried flush() resumes at the first
    /// unexecuted op and can never re-execute a completed mutation.
    void flush_shard(std::size_t shard) {
      auto& batch = pending_[shard];
      if (batch.empty()) return;
      Structure& structure = map_->shard(shard);
      const Handle handle = handles_[shard];
      obs::Tracer* tracer = map_->scheme(shard).config().tracer;
      const bool shedding = map_->health(shard).shedding();
      const std::uint64_t now = now_ns();
      std::size_t done_count = 0;
      try {
        for (; done_count < batch.size(); ++done_count) {
          const PendingOp& op = batch[done_count];
          // A live multi-get op heads a fusable run: execute the whole run
          // with one get_many call (reads are idempotent, so completing
          // several ops per loop step keeps the exactly-once erase logic
          // honest — a retry after a later throw re-runs only reads).
          if (op.multi_get && op.request.op == OpType::kGet &&
              !(op.request.deadline_ns != 0 && op.request.deadline_ns <= now)) {
            done_count +=
                flush_multi_get_run(structure, handle, batch, done_count, now) -
                1;
            continue;
          }
          Completion done;
          done.ticket = op.ticket;
          done.user = op.request.user;
          done.key = op.request.key;
          done.value = op.request.value;
          done.op = op.request.op;
          if (op.request.deadline_ns != 0 && op.request.deadline_ns <= now) {
            done.status = Status::kDeadlineExceeded;
            if (tracer != nullptr) {
              tracer->record(tid_, obs::TraceEvent::kDeadlineDrop, op.ticket);
            }
          } else if (shedding && is_write(op.request.op)) {
            done.status = Status::kShedWrite;
            if (tracer != nullptr) {
              tracer->record(tid_, obs::TraceEvent::kShedWrite, op.ticket);
            }
          } else {
            try {
              switch (op.request.op) {
                case OpType::kGet:
                  done.ok = structure.get(handle, op.request.key, done.value);
                  break;
                case OpType::kContains:
                  done.ok = structure.contains(handle, op.request.key);
                  break;
                case OpType::kInsert:
                  done.ok = structure.insert(handle, op.request.key,
                                             op.request.value);
                  break;
                case OpType::kRemove:
                  done.ok = structure.remove(handle, op.request.key);
                  break;
              }
              done.status = done.ok ? Status::kOk : Status::kNotFound;
            } catch (const std::bad_alloc&) {
              // The op had no effect (structures allocate before linking);
              // complete this one request and keep going.
              done.status = Status::kAllocFailed;
              done.ok = false;
            }
          }
          push_completion(done);
        }
      } catch (...) {
        batch.erase(batch.begin(),
                    batch.begin() + static_cast<std::ptrdiff_t>(done_count));
        throw;
      }
      batch.clear();
      ++batches_;
      map_->sample_health(shard, tid_);
    }

    /// Execute the maximal run (<= kMultiGetRun) of consecutive live
    /// multi-get ops starting at `start` as ONE structure.get_many call
    /// and push one completion per key. Returns the run length (>= 1; the
    /// caller verified batch[start] qualifies).
    std::size_t flush_multi_get_run(Structure& structure, Handle handle,
                                    const std::vector<PendingOp>& batch,
                                    std::size_t start, std::uint64_t now) {
      Key keys[kMultiGetRun]{};
      Value values[kMultiGetRun];
      bool found[kMultiGetRun];
      std::size_t n = 0;
      while (start + n < batch.size() && n < kMultiGetRun) {
        const PendingOp& op = batch[start + n];
        if (!op.multi_get || op.request.op != OpType::kGet) break;
        if (op.request.deadline_ns != 0 && op.request.deadline_ns <= now) {
          break;  // expired key: let the main loop shed it individually
        }
        keys[n] = op.request.key;
        ++n;
      }
      structure.get_many(handle, keys, n, values, found);
      for (std::size_t j = 0; j < n; ++j) {
        const PendingOp& op = batch[start + j];
        Completion done;
        done.ticket = op.ticket;
        done.user = op.request.user;
        done.key = op.request.key;
        done.value = found[j] ? values[j] : op.request.value;
        done.op = OpType::kGet;
        done.ok = found[j];
        done.status = found[j] ? Status::kOk : Status::kNotFound;
        push_completion(done);
      }
      return n;
    }

    ShardedMap* map_;
    int tid_;
    std::size_t batch_limit_;
    AdmissionOptions admission_;
    TokenBucket bucket_;
    std::vector<std::vector<PendingOp>> pending_;
    std::vector<Handle> handles_;
    std::vector<Completion> ring_;
    StatusCounts counts_;
    std::uint64_t ring_head_ = 0;  ///< completions produced
    std::uint64_t ring_tail_ = 0;  ///< completions harvested
    std::uint64_t next_ticket_ = 1;
    std::uint64_t batches_ = 0;
  };

  /// Mint a client for the calling thread. One client per (thread, map).
  Client client(int tid, std::size_t batch_limit = 32,
                std::size_t ring_capacity = 1024,
                const AdmissionOptions& admission = AdmissionOptions{}) {
    return Client(*this, tid, batch_limit, ring_capacity, admission);
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    constexpr std::size_t kMaxPow2 =
        (std::numeric_limits<std::size_t>::max() >> 1) + 1;
    if (n > kMaxPow2) {
      throw std::invalid_argument(
          "svc: size does not round up to a representable power of two");
    }
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  /// Backlog capacity defended by `config`'s shard: the explicit override,
  /// else T * the scheme's per-thread waste bound (Theorem 4.2), else
  /// T * retired_soft_cap for unbounded schemes running with a soft cap,
  /// else 0 (passive monitor — nothing finite to defend). In the
  /// background-reclaim arm the sampled backlog includes the reclaimer's
  /// in-flight nodes, so the capacity gets the same allowance the
  /// watchdog's inflight_bound grants (the in-flight cap on top).
  static std::uint64_t health_capacity(const smr::Config& config,
                                       const HealthOptions& options) {
    if (options.capacity_override != 0) return options.capacity_override;
    const std::uint64_t threads =
        static_cast<std::uint64_t>(config.max_threads);
    const std::uint64_t inflight_allowance =
        config.background_reclaim ? config.reclaim_inflight_cap : 0;
    const std::uint64_t per = Scheme::waste_bound_per_thread(config);
    if (per != smr::kUnboundedWaste) {
      return smr::sat_add(smr::sat_mul(per, threads), inflight_allowance);
    }
    if (config.retired_soft_cap != 0) {
      return smr::sat_add(smr::sat_mul(config.retired_soft_cap, threads),
                          inflight_allowance);
    }
    return 0;
  }

  void rebuild_health(const HealthOptions& options) {
    health_.clear();
    health_.reserve(shards_.size());
    for (const auto& shard : shards_) {
      health_.push_back(std::make_unique<HealthMonitor>(
          health_capacity(shard->scheme().config(), options), options));
    }
  }

  // unique_ptr, not values: a Structure owns a scheme full of atomics and
  // per-thread slots and is neither movable nor copyable.
  std::vector<std::unique_ptr<Structure>> shards_;
  std::vector<std::unique_ptr<HealthMonitor>> health_;
};

}  // namespace mp::svc
