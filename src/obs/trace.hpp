// Optional reclamation event tracer: per-thread SPSC ring buffers.
//
// Each thread owns one fixed-capacity ring (padded to its own cache lines).
// The owning thread is the single producer: record() writes the slot at
// head % capacity and bumps head — O(1), no allocation, no locking, no
// fences. When the ring is full the oldest record is overwritten (the ring
// keeps the newest `capacity` events); dropped() reports how many were
// lost. The single consumer reads a ring either after the producer has
// quiesced (the supported mode: drained() copies records in order) or
// concurrently via snapshot(), which tolerates torn in-flight slots by
// design (records are diagnostics, not synchronization).
//
// Hooked into SchemeBase::retire / empty / free_node and the schemes'
// epoch ticks behind a Config::tracer null-check, so the hot path pays one
// predictable branch when tracing is disabled and nothing at all touches
// the schemes' read() paths.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/align.hpp"

namespace mp::obs {

enum class TraceEvent : std::uint8_t {
  kRetire = 0,       ///< node handed to retire(); arg = retired-list size
  kEmpty,            ///< scheduled empty() pass; arg = retired-list size
  kEmergencyEmpty,   ///< soft-cap emergency pass; arg = retired-list size
  kReclaim,          ///< node freed by empty(); arg = node address
  kEpochAdvance,     ///< global epoch/era advanced; arg = new epoch value
  kDetach,           ///< thread departed; arg = retired nodes handed over
  kAdopt,            ///< orphan batches adopted; arg = nodes taken over
  kOffload,          ///< batch handed to the reclaimer; arg = batch size
  kBgScan,           ///< reclaimer finished a pass; arg = nodes scanned
  kScanStep,         ///< reclamation engine step; arg = nodes examined
  // ProtectionOracle lifecycle events (smr/oracle.hpp): recorded only in
  // SMR_ORACLE builds with an oracle attached. All carry arg = node
  // address, so a violation report can grep the rings for one node's
  // alloc -> protect -> unprotect -> retire -> free history.
  kOracleAlloc,      ///< oracle: node allocated; arg = node address
  kOracleProtect,    ///< oracle: (tid, node) reference acquired (read/pin)
  kOracleUnprotect,  ///< oracle: (tid, node) reference dropped
  kOracleRetire,     ///< oracle: node retired; arg = node address
  kOracleFree,       ///< oracle: node freed; arg = node address
  // Service-layer resilience events (svc/resilience.hpp): recorded through
  // the shard's Config::tracer, so per-shard health history lands in the
  // same rings as that shard's reclamation events.
  kHealthTransition,  ///< shard health changed; arg = (old << 8) | new state
  kAdmissionReject,   ///< client admission gate refused; arg = ticket
  kDeadlineDrop,      ///< expired op shed at flush; arg = ticket
  kShedWrite,         ///< write refused by a Shedding shard; arg = ticket
};

inline const char* trace_event_name(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kRetire: return "retire";
    case TraceEvent::kEmpty: return "empty";
    case TraceEvent::kEmergencyEmpty: return "emergency_empty";
    case TraceEvent::kReclaim: return "reclaim";
    case TraceEvent::kEpochAdvance: return "epoch_advance";
    case TraceEvent::kDetach: return "detach";
    case TraceEvent::kAdopt: return "adopt";
    case TraceEvent::kOffload: return "offload";
    case TraceEvent::kBgScan: return "bg_scan";
    case TraceEvent::kScanStep: return "scan_step";
    case TraceEvent::kOracleAlloc: return "oracle_alloc";
    case TraceEvent::kOracleProtect: return "oracle_protect";
    case TraceEvent::kOracleUnprotect: return "oracle_unprotect";
    case TraceEvent::kOracleRetire: return "oracle_retire";
    case TraceEvent::kOracleFree: return "oracle_free";
    case TraceEvent::kHealthTransition: return "health_transition";
    case TraceEvent::kAdmissionReject: return "admission_reject";
    case TraceEvent::kDeadlineDrop: return "deadline_drop";
    case TraceEvent::kShedWrite: return "shed_write";
  }
  return "?";
}

struct TraceRecord {
  std::uint64_t time_ns = 0;  ///< steady_clock, ns since an arbitrary origin
  std::uint64_t arg = 0;      ///< event-specific payload (see TraceEvent)
  std::uint32_t seq = 0;      ///< per-thread sequence number
  std::uint16_t tid = 0;
  TraceEvent event = TraceEvent::kRetire;
};

class Tracer {
 public:
  /// `capacity` is rounded up to a power of two (min 16) per thread ring.
  explicit Tracer(std::size_t max_threads, std::size_t capacity = 4096)
      : max_threads_(max_threads),
        mask_(ring_size(capacity) - 1),
        rings_(std::make_unique<common::Padded<Ring>[]>(max_threads)) {
    for (std::size_t t = 0; t < max_threads_; ++t) {
      rings_[t]->slots.resize(mask_ + 1);
    }
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }
  std::size_t max_threads() const noexcept { return max_threads_; }

  /// Producer path (owning thread only): overwrite-oldest, O(1).
  void record(int tid, TraceEvent event, std::uint64_t arg = 0) noexcept {
    auto& ring = *rings_[tid];
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    TraceRecord& slot = ring.slots[head & mask_];
    slot.time_ns = now_ns();
    slot.arg = arg;
    slot.seq = static_cast<std::uint32_t>(head);
    slot.tid = static_cast<std::uint16_t>(tid);
    slot.event = event;
    ring.head.store(head + 1, std::memory_order_release);
  }

  /// Total events ever recorded by `tid` (including overwritten ones).
  std::uint64_t recorded(int tid) const noexcept {
    return rings_[tid]->head.load(std::memory_order_acquire);
  }

  /// Events lost to overwriting on `tid`'s ring.
  std::uint64_t dropped(int tid) const noexcept {
    const std::uint64_t head = recorded(tid);
    return head > capacity() ? head - capacity() : 0;
  }

  /// Copy the surviving records of `tid`'s ring, oldest first. Exact when
  /// the producer has quiesced; a concurrent producer may tear the oldest
  /// slots (diagnostics-grade, see header comment).
  std::vector<TraceRecord> drained(int tid) const {
    const auto& ring = *rings_[tid];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t size = head < capacity() ? head : capacity();
    std::vector<TraceRecord> out;
    out.reserve(size);
    for (std::uint64_t i = head - size; i < head; ++i) {
      out.push_back(ring.slots[i & mask_]);
    }
    return out;
  }

  /// All threads' surviving records, merged and sorted by timestamp.
  std::vector<TraceRecord> snapshot() const {
    std::vector<TraceRecord> out;
    for (std::size_t t = 0; t < max_threads_; ++t) {
      auto records = drained(static_cast<int>(t));
      out.insert(out.end(), records.begin(), records.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                return a.time_ns < b.time_ns;
              });
    return out;
  }

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  struct Ring {
    std::vector<TraceRecord> slots;
    std::atomic<std::uint64_t> head{0};
  };

  static std::size_t ring_size(std::size_t capacity) noexcept {
    std::size_t size = 16;
    while (size < capacity) size <<= 1;
    return size;
  }

  std::size_t max_threads_;
  std::size_t mask_;
  std::unique_ptr<common::Padded<Ring>[]> rings_;
};

}  // namespace mp::obs
