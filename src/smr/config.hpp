// Runtime configuration shared by all SMR schemes.
//
// Defaults follow the paper's evaluation (§6 "Parameters"): reclamation is
// attempted every 30 retires; global-epoch schemes advance the epoch once
// every 150*T allocations per thread; MP uses a 2^20 margin (the value the
// paper selects from its Fig 7 sensitivity study).
//
// Construction-time validation: every scheme calls validate() (and MP
// additionally validate_margin()) from its constructor, and every data
// structure calls validate_slots(), so an invalid Config throws
// std::invalid_argument in all build types — these used to be debug-only
// asserts that release builds silently ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mp::obs {
class Tracer;  // obs/trace.hpp; Config only carries a non-owning pointer
}

namespace mp::smr {

class FaultInjector;  // chaos.hpp; Config only carries a non-owning pointer
class ProtectionOracle;  // oracle.hpp; Config only carries a non-owning pointer

// AddressSanitizer detection (GCC defines __SANITIZE_ADDRESS__, clang
// reports it through __has_feature). Under ASan the node pool is forced
// off: recycled blocks would never return to the allocator, so ASan's
// poisoning could no longer catch use-after-free on pooled nodes.
#if defined(__SANITIZE_ADDRESS__)
#define MARGINPTR_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MARGINPTR_ASAN_ACTIVE 1
#endif
#endif
#ifndef MARGINPTR_ASAN_ACTIVE
#define MARGINPTR_ASAN_ACTIVE 0
#endif

/// True when this build forces Config::pool_enabled off (ASan builds).
inline constexpr bool kPoolForcedOff = MARGINPTR_ASAN_ACTIVE != 0;

/// Hard ceiling on protection slots per thread (skip lists protect two
/// nodes per level, so this is sized for tall towers).
inline constexpr int kMaxSlotsPerThread = 64;

/// Hard ceiling on max_threads, matching common::ThreadRegistry::kMaxThreads.
inline constexpr std::size_t kMaxSchemeThreads = 512;

struct Config {
  /// Maximum number of concurrently registered threads (the paper's T).
  std::size_t max_threads = 64;

  /// Protection slots per thread (the paper's #HP / #MP, MPs_per_thread).
  /// Skip-list updates need two slots per level, so the ceiling is generous.
  int slots_per_thread = 8;

  /// Retire calls between reclamation attempts (paper: 30).
  int empty_freq = 30;

  /// Per-thread allocations between global-epoch increments. The paper uses
  /// 150*T; zero means "use 150 * max_threads".
  std::uint64_t epoch_freq = 0;

  /// MP only: size of the protected margin around an announced index.
  /// Must be >= 2^17 so a margin always covers one full 16-bit tag range.
  std::uint32_t margin = 1u << 20;

  /// Graceful degradation: when a thread's retired list reaches this size,
  /// retire() escalates to emergency empty() passes (with bounded
  /// exponential backoff between futile passes, capped at
  /// detail::kEmergencyBackoffLimit retires, so a stalled peer cannot turn
  /// every retire into an O(retired) scan). 0 disables the soft cap.
  std::uint64_t retired_soft_cap = 0;

  /// Node-pool allocation (pool.hpp): alloc() placement-news into recycled
  /// node-sized blocks from a per-thread magazine backed by a lock-free
  /// global depot, instead of round-tripping every node through the system
  /// allocator. Forced off under ASan regardless of this flag (see
  /// kPoolForcedOff) so poisoning still catches use-after-free; query
  /// pool_effective() for the value a scheme will actually run with.
  bool pool_enabled = true;

  /// Capacity of each thread's magazine (free blocks buffered locally
  /// before a whole magazine is exchanged with the global depot).
  std::size_t pool_magazine_cap = 64;

  /// Background reclamation (reclaimer.hpp): retire() hands whole retired
  /// batches to a dedicated reclaimer thread at empty_freq boundaries
  /// instead of running empty() inline, moving the O(T*slots) protection
  /// scan off the application threads. Off by default: the foreground arm
  /// is the paper's measured configuration.
  bool background_reclaim = false;

  /// Backpressure cap on nodes in flight to the reclaimer (queued batches
  /// plus the reclaimer's unreclaimed backlog). When an offload would find
  /// the cap exceeded, retire() falls back to an inline emergency pass so
  /// total waste stays bounded by
  ///   reclaim_inflight_cap + T * waste_bound_per_thread
  /// (the documented in-flight term; see DESIGN.md §8).
  std::uint64_t reclaim_inflight_cap = 4096;

  /// Reclaimer watchdog period in milliseconds: the reclaimer re-runs its
  /// scan at least this often even without an offload wakeup, so backlog
  /// nodes blocked by a since-released protection are eventually freed.
  std::uint32_t reclaim_poll_ms = 1;

  /// Deamortized reclamation (DESIGN.md §12): upper bound on retired nodes
  /// examined per step of the reclamation engine. Every pass is a
  /// resumable per-thread cursor that filters the retired list against a
  /// cached protection snapshot (re-collected only on epoch advance), one
  /// step of at most `scan_quantum` nodes per retire(); the background
  /// reclaimer's pass is chunked at the same granularity so stop()/drain()
  /// interleave at quantum boundaries. 0 (the default) is one unbounded
  /// step of the same engine: each pass covers the whole retired list in
  /// one go.
  /// Must be 0 or >= 2: with quantum 1 the pass examines one node per
  /// retire while each retire adds one, so a pass over L nodes never
  /// terminates ahead of the next scheduled pass and the backlog
  /// recurrence L' = bound + L/quantum diverges.
  std::uint64_t scan_quantum = 0;

  /// The pool arm this build actually runs: pool_enabled, minus the ASan
  /// force-off.
  bool pool_effective() const noexcept {
    return pool_enabled && !kPoolForcedOff;
  }

  /// Deterministic fault injection (chaos.hpp). Non-owning; the injector
  /// must outlive every scheme sharing it, and must be sized for at least
  /// max_threads. Leave null in production.
  FaultInjector* fault_injector = nullptr;

  /// Reclamation event tracing (obs/trace.hpp): retire / empty / reclaim /
  /// emergency-empty / epoch-advance events land in per-thread ring
  /// buffers. Non-owning; must outlive the scheme and be sized for at
  /// least max_threads. Null (the default) keeps the hot path to a single
  /// predictable branch per hook site; read() paths are never touched.
  obs::Tracer* tracer = nullptr;

  /// Protection-discipline oracle (oracle.hpp): every operation bracket,
  /// protected read, pin, unprotect, retire, and free is checked against a
  /// shadow model of which (tid, node) pairs are covered, and a protocol
  /// violation aborts with a lifecycle diagnostic BEFORE the offending
  /// free. Non-owning; must outlive the scheme and be constructed with at
  /// least this max_threads/slots_per_thread. Only consulted in builds
  /// with the SMR_ORACLE CMake option ON — otherwise every call site is
  /// `if constexpr`-eliminated and this pointer is inert, so read paths
  /// stay fence- and branch-free. Leave null in production.
  ProtectionOracle* oracle = nullptr;

  /// Diagnostics hook: invoked (with `context`) for every node the scheme
  /// frees, before the memory is released. Used by the fuzz oracle tests;
  /// leave null in production.
  void (*free_hook)(void* context, const void* node) = nullptr;
  void* free_hook_context = nullptr;

  std::uint64_t effective_epoch_freq() const noexcept {
    return epoch_freq != 0 ? epoch_freq
                           : 150 * static_cast<std::uint64_t>(max_threads);
  }

  /// Scheme-agnostic validation, called by every scheme's constructor.
  /// Throws std::invalid_argument (in all build types) on a Config no
  /// scheme can run with.
  void validate() const {
    if (max_threads == 0 || max_threads > kMaxSchemeThreads) {
      fail("max_threads must be in [1, " +
           std::to_string(kMaxSchemeThreads) + "]");
    }
    if (slots_per_thread <= 0 || slots_per_thread > kMaxSlotsPerThread) {
      fail("slots_per_thread must be in [1, " +
           std::to_string(kMaxSlotsPerThread) + "]");
    }
    if (empty_freq <= 0) fail("empty_freq must be positive");
    if (pool_magazine_cap == 0 || pool_magazine_cap > (1u << 20)) {
      fail("pool_magazine_cap must be in [1, 2^20]");
    }
    if (reclaim_poll_ms == 0) fail("reclaim_poll_ms must be positive");
    if (scan_quantum == 1) {
      fail("scan_quantum must be 0 (one unbounded step) or >= 2 (a quantum "
           "of 1 cannot outpace the one-node-per-retire inflow)");
    }
    if (background_reclaim) {
      if (reclaim_inflight_cap == 0) {
        fail("reclaim_inflight_cap must be positive");
      }
      if (reclaim_inflight_cap < static_cast<std::uint64_t>(empty_freq)) {
        fail("reclaim_inflight_cap must be >= empty_freq (a single "
             "offloaded batch must fit under the cap)");
      }
    }
  }

  /// MP's additional constraint (§4.3.1): a margin must cover one full
  /// 16-bit tag range, so with the slot holding the range's lower bound,
  /// half the margin must span 2^16 — margin >= 2^17.
  void validate_margin() const {
    if (margin < (1u << 17)) {
      fail("margin must be at least 2^17 (one full tag range)");
    }
  }

  /// A data structure's constraint: it protects up to `required` nodes at
  /// once (its kRequiredSlots). Protection rows are sized
  /// kMaxSlotsPerThread but scans cover only slots_per_thread, so a refno
  /// past it would be written and never honored — an unprotected read.
  /// Called by every structure's constructor with its name.
  void validate_slots(int required, const char* structure) const {
    if (slots_per_thread < required) {
      fail(std::string(structure) + " needs slots_per_thread >= " +
           std::to_string(required));
    }
  }

  /// Additional constraint for snapshot-free schemes (kSnapshotFree — e.g.
  /// Hyaline): they reclaim through reference-counted handover and never
  /// run a protection-snapshot scan, so options that parameterize that scan
  /// would be silent no-ops. Reject them loudly instead; called by every
  /// snapshot-free scheme's constructor with its kName.
  void validate_snapshot_free(const char* scheme) const {
    if (scan_quantum != 0) {
      fail(std::string(scheme) +
           " is snapshot-free: scan_quantum drives the snapshot-scan cursor, "
           "which this scheme never runs — set it to 0");
    }
  }

 private:
  [[noreturn]] static void fail(const std::string& why) {
    throw std::invalid_argument("smr::Config: " + why);
  }
};

}  // namespace mp::smr
