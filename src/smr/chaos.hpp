// Chaos layer: deterministic fault injection and wasted-memory watchdog.
//
// The paper's defining claim (Theorem 4.2) is about what happens when
// threads misbehave: a thread may stall indefinitely mid-operation and the
// amount of retired-but-unreclaimed memory must stay bounded. This header
// turns that adversary into a first-class, *reproducible* test fixture:
//
//   * FaultInjector — a seeded, deterministic source of injected faults,
//     consulted by SchemeBase (and MP's index assignment) at well-defined
//     chaos points. It can inject mid-operation stalls at protection
//     points, allocation failures (std::bad_alloc bursts), delayed
//     reclamation (scheduled empty() passes skipped), epoch-advance storms,
//     and MP index-collision pressure. Every decision is drawn from a
//     per-thread xoshiro stream seeded from (seed, tid), so the same seed
//     and per-thread call sequence always yields the same schedule —
//     failures found by the torture harness replay exactly.
//
//   * WasteWatchdog — computes a scheme's theoretical per-thread
//     wasted-memory bound from its Config (MP: Theorem 4.2; HP: #HP*T;
//     unbounded schemes: kUnboundedWaste) and compares it against the
//     measured `peak_retired` high-water statistic. The torture harness
//     asserts ok() as a runtime invariant.
//
// The graceful-degradation path (soft-cap emergency empty() with bounded
// exponential backoff) lives in SchemeBase::retire; its knob is
// Config::retired_soft_cap, its backoff ceiling detail::kEmergencyBackoffLimit.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>

#include "common/align.hpp"
#include "common/rng.hpp"

namespace mp::smr {

/// A scheme's report for "no finite wasted-memory bound" (EBR/HE/IBR/DTA).
inline constexpr std::uint64_t kUnboundedWaste =
    std::numeric_limits<std::uint64_t>::max();

/// Saturating arithmetic for bound formulas: a Config with huge margins or
/// epoch frequencies must degrade to "effectively unbounded", not wrap.
inline std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  return a > kUnboundedWaste - b ? kUnboundedWaste : a + b;
}
inline std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return a > kUnboundedWaste / b ? kUnboundedWaste : a * b;
}

/// Where in a scheme's lifecycle a fault is being considered. Passed to the
/// stall hook so tests can target a specific point (e.g. park a reader that
/// has just installed protection).
enum class ChaosPoint : unsigned {
  kProtect = 0,  ///< inside read(), the paper's stall-sensitive spot
  kAlloc,        ///< inside alloc(), before the node exists
  kRetire,       ///< inside retire(), before any reclamation attempt
  kDetach,       ///< between operations: should this thread depart now?
};

/// Static fault-injection schedule parameters. A period of 0 disables the
/// fault; a period of N fires it with probability 1/N per opportunity,
/// drawn deterministically from the owning thread's stream.
struct ChaosOptions {
  std::uint64_t seed = 1;

  /// Mid-operation stalls at chaos points (protect/alloc/retire).
  std::uint64_t stall_period = 0;
  /// Length of the yield-loop a default (non-hooked) stall spins for.
  std::uint32_t stall_iterations = 256;

  /// std::bad_alloc injection: once triggered, the next `burst` allocations
  /// on that thread all fail (modeling an OOM episode, not a blip).
  std::uint64_t alloc_failure_period = 0;
  std::uint32_t alloc_failure_burst = 1;

  /// Delayed reclamation: a scheduled (empty_freq) empty() pass is skipped.
  std::uint64_t delay_reclamation_period = 0;

  /// Epoch-advance storms: the global epoch jumps by `burst` at an alloc,
  /// forcing epoch-validation paths (MP's hp_mode fallback) to fire.
  std::uint64_t epoch_storm_period = 0;
  std::uint32_t epoch_storm_burst = 8;

  /// MP index-collision pressure: assign_index is forced to return USE_HP.
  std::uint64_t collision_period = 0;

  /// Thread-death churn: should_die(tid) fires with probability 1/period
  /// per query. The harness queries it between operations (never inside a
  /// guard) and, on a hit, detaches the thread's scheme state and registry
  /// lease, then re-registers a "fresh" worker — modeling worker-pool churn
  /// and crash-and-replace lifecycles.
  std::uint64_t thread_death_period = 0;

  /// Cooperative stall: when set, a scheduled stall calls this instead of
  /// yield-spinning, so a test can park one thread on a latch indefinitely
  /// (the Theorem 4.2 adversary). Must not throw.
  void (*stall_hook)(void* context, int tid, ChaosPoint point) = nullptr;
  void* stall_hook_context = nullptr;
};

/// Seeded, deterministic fault injector. One instance is shared by all
/// threads of a scheme (hang it on Config::fault_injector); each thread
/// draws from its own stream, so schedules are independent of interleaving.
class FaultInjector {
 public:
  struct Counters {
    std::uint64_t stalls = 0;
    std::uint64_t alloc_failures = 0;
    std::uint64_t delayed_empties = 0;
    std::uint64_t epoch_storms = 0;
    std::uint64_t forced_collisions = 0;
    std::uint64_t thread_deaths = 0;

    Counters& operator+=(const Counters& rhs) noexcept {
      stalls += rhs.stalls;
      alloc_failures += rhs.alloc_failures;
      delayed_empties += rhs.delayed_empties;
      epoch_storms += rhs.epoch_storms;
      forced_collisions += rhs.forced_collisions;
      thread_deaths += rhs.thread_deaths;
      return *this;
    }
  };

  explicit FaultInjector(const ChaosOptions& options,
                         std::size_t max_threads = 64)
      : options_(options),
        max_threads_(max_threads),
        lanes_(std::make_unique<common::Padded<Lane>[]>(max_threads)) {
    for (std::size_t t = 0; t < max_threads; ++t) {
      // Decorrelate per-thread streams: splitmix the (seed, tid) pair.
      std::uint64_t sm = options.seed + 0x9e3779b97f4a7c15ULL * (t + 1);
      lanes_[t]->rng = common::Xoshiro256(common::splitmix64(sm));
    }
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const ChaosOptions& options() const noexcept { return options_; }

  /// Arm/disarm injection (armed by default). While disarmed every query
  /// answers "no fault" without consuming randomness, so a harness can
  /// construct/prefill/tear down structures outside the chaos window and
  /// still replay the armed window deterministically.
  void set_armed(bool armed) noexcept {
    armed_.store(armed, std::memory_order_release);
  }
  bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }

  /// Chaos point: may stall the calling thread (yield loop or hook).
  void point(int tid, ChaosPoint p) noexcept {
    if (!armed()) return;
    auto& lane = *lanes_[tid];
    if (!decide(lane, options_.stall_period, p, 0)) return;
    ++lane.counters.stalls;
    if (options_.stall_hook != nullptr) {
      options_.stall_hook(options_.stall_hook_context, tid, p);
      return;
    }
    for (std::uint32_t i = 0; i < options_.stall_iterations; ++i) {
      std::this_thread::yield();
    }
  }

  /// Should this allocation fail with std::bad_alloc?
  bool fail_alloc(int tid) noexcept {
    if (!armed()) return false;
    auto& lane = *lanes_[tid];
    if (lane.alloc_failures_left > 0) {
      --lane.alloc_failures_left;
      ++lane.counters.alloc_failures;
      return true;
    }
    if (!decide(lane, options_.alloc_failure_period, ChaosPoint::kAlloc, 1)) {
      return false;
    }
    lane.alloc_failures_left = options_.alloc_failure_burst - 1;
    ++lane.counters.alloc_failures;
    return true;
  }

  /// Should this scheduled empty() pass be skipped (delayed reclamation)?
  bool delay_reclamation(int tid) noexcept {
    if (!armed()) return false;
    auto& lane = *lanes_[tid];
    if (!decide(lane, options_.delay_reclamation_period, ChaosPoint::kRetire,
                2)) {
      return false;
    }
    ++lane.counters.delayed_empties;
    return true;
  }

  /// Extra global-epoch advances to apply right now (0 = no storm).
  std::uint32_t epoch_storm(int tid) noexcept {
    if (!armed()) return 0;
    auto& lane = *lanes_[tid];
    if (!decide(lane, options_.epoch_storm_period, ChaosPoint::kAlloc, 3)) {
      return 0;
    }
    ++lane.counters.epoch_storms;
    return options_.epoch_storm_burst;
  }

  /// Should MP's assign_index be forced into a USE_HP collision?
  bool force_collision(int tid) noexcept {
    if (!armed()) return false;
    auto& lane = *lanes_[tid];
    if (!decide(lane, options_.collision_period, ChaosPoint::kAlloc, 4)) {
      return false;
    }
    ++lane.counters.forced_collisions;
    return true;
  }

  /// Should the calling thread "die" now (detach and be replaced)? Must be
  /// queried between operations only — dying inside a guard would detach a
  /// tid that is not quiescent. The draw comes from the thread's own lane,
  /// so death schedules replay exactly like every other fault.
  bool should_die(int tid) noexcept {
    if (!armed()) return false;
    auto& lane = *lanes_[tid];
    if (!decide(lane, options_.thread_death_period, ChaosPoint::kDetach, 5)) {
      return false;
    }
    ++lane.counters.thread_deaths;
    return true;
  }

  Counters counters(int tid) const noexcept { return lanes_[tid]->counters; }

  Counters total() const noexcept {
    Counters sum;
    for (std::size_t t = 0; t < max_threads_; ++t) {
      sum += lanes_[t]->counters;
    }
    return sum;
  }

  /// Order-independent digest of every decision ever drawn (fired or not),
  /// per-thread streams XOR-combined. Two runs with the same seed and the
  /// same per-thread call sequences produce identical fingerprints — the
  /// determinism contract the torture harness asserts.
  std::uint64_t fingerprint() const noexcept {
    std::uint64_t combined = 0;
    for (std::size_t t = 0; t < max_threads_; ++t) {
      combined ^= lanes_[t]->schedule_hash;
    }
    return combined;
  }

 private:
  struct Lane {
    // Direct-init: Xoshiro256's seed constructor is explicit, and the
    // state is reseeded from (seed, tid) in the injector constructor.
    common::Xoshiro256 rng{0};
    Counters counters;
    std::uint32_t alloc_failures_left = 0;
    std::uint64_t schedule_hash = 0x100000001b3ULL;
  };

  /// One deterministic decision: fires with probability 1/period. Every
  /// draw (including misses) is folded into the schedule hash so the
  /// fingerprint captures the full schedule, not just the hits.
  static bool decide(Lane& lane, std::uint64_t period, ChaosPoint p,
                     unsigned site) noexcept {
    if (period == 0) return false;
    const bool fired = period == 1 || lane.rng.next_below(period) == 0;
    lane.schedule_hash =
        (lane.schedule_hash ^
         (static_cast<std::uint64_t>(fired) << 8 ^
          static_cast<std::uint64_t>(p) << 4 ^ site)) *
        0x100000001b3ULL;
    return fired;
  }

  ChaosOptions options_;
  std::size_t max_threads_;
  std::atomic<bool> armed_{true};
  std::unique_ptr<common::Padded<Lane>[]> lanes_;
};

/// Per-thread waste ceiling under deamortized reclamation (Config::
/// scan_quantum = Q != 0, DESIGN.md §12). A resumable pass over a list of
/// L nodes completes within ceil(L/Q) retires (one bounded step per
/// retire), during which up to ceil(L/Q) new nodes arrive — so successive
/// pass-start sizes obey L' <= base + ceil(L/Q), whose fixed point is
/// below base * Q/(Q-1) + 1 for Q >= 2 (Config::validate rejects Q == 1).
/// Adding one quantum absorbs the worst-case step phase offset. With
/// quantum 0 (one unbounded step per pass) the base bound is returned
/// unchanged.
inline std::uint64_t deamortized_waste_bound(std::uint64_t base,
                                             std::uint64_t quantum) noexcept {
  if (quantum == 0 || base == kUnboundedWaste) return base;
  return sat_add(sat_add(base, base / (quantum - 1) + 1), quantum);
}

/// Runtime enforcement of a scheme's theoretical wasted-memory bound:
/// compares the measured per-thread `peak_retired` high-water mark against
/// Scheme::waste_bound_per_thread(config) — widened by the carry-over term
/// above when the Config runs the deamortized cursor. Schemes without a
/// finite bound (kUnboundedWaste) trivially pass — the point is that MP and
/// HP must never exceed theirs, no matter what the FaultInjector does.
template <typename Scheme>
class WasteWatchdog {
 public:
  explicit WasteWatchdog(const Scheme& scheme) : scheme_(scheme) {}

  /// Theoretical per-thread bound for this scheme under its Config
  /// (including the deamortized carry-over term when scan_quantum != 0).
  /// Snapshot-free schemes never run the scan cursor (Config rejects a
  /// nonzero scan_quantum for them), so their base bound applies as-is.
  std::uint64_t bound() const noexcept {
    if constexpr (Scheme::kSnapshotFree) {
      return Scheme::waste_bound_per_thread(scheme_.config());
    } else {
      return deamortized_waste_bound(
          Scheme::waste_bound_per_thread(scheme_.config()),
          scheme_.config().scan_quantum);
    }
  }

  /// Highest retired-list high-water observed by any thread so far.
  std::uint64_t peak() const { return scheme_.stats_snapshot().peak_retired; }

  /// The invariant: measured peak within the theoretical bound. `slack`
  /// widens the bound for faults that legitimately suppress the scheme's
  /// own reclamation (each injected delayed empty lets a retired list grow
  /// by up to another empty_freq beyond the formula's buffer term).
  bool ok(std::uint64_t slack = 0) const {
    const std::uint64_t cap = bound();
    return cap == kUnboundedWaste || peak() <= sat_add(cap, slack);
  }

  /// Global bound on batches parked at the background reclaimer
  /// (DESIGN.md §8): retire() stops offloading once the in-flight count
  /// reaches `reclaim_inflight_cap` (falling back to inline passes), but a
  /// batch of up to waste_bound_per_thread nodes per thread can already be
  /// in motion past that check, so the ceiling is
  /// cap + T * per-thread-bound. Unbounded schemes have no in-flight bound
  /// either (their batches can be arbitrarily large).
  std::uint64_t inflight_bound() const noexcept {
    const std::uint64_t per_thread = bound();
    if (per_thread == kUnboundedWaste) return kUnboundedWaste;
    const auto& config = scheme_.config();  // smr::Config (not named here:
    // chaos.hpp must stay includable before config.hpp, which only
    // forward-declares FaultInjector from this header)
    return sat_add(config.reclaim_inflight_cap,
                   sat_mul(config.max_threads, per_thread));
  }

  /// Highest in-flight count any offload observed (0 in the fg arm).
  std::uint64_t peak_inflight() const {
    return scheme_.stats_snapshot().peak_inflight;
  }

  /// The background-arm invariant: nodes handed to the reclaimer stay
  /// within the documented cap-plus-overshoot ceiling.
  bool inflight_ok() const {
    const std::uint64_t cap = inflight_bound();
    return cap == kUnboundedWaste || peak_inflight() <= cap;
  }

 private:
  const Scheme& scheme_;
};

}  // namespace mp::smr
