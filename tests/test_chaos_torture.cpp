// Cross-scheme torture harness driven by the deterministic FaultInjector.
//
// Three layers of assertion:
//   1. Determinism — the same seed yields the same injection schedule
//      (fingerprint + counters + observable scheme statistics), so any
//      failure this harness finds replays exactly.
//   2. Survival — every reclaiming scheme × {Michael list, Fraser skip
//      list, Natarajan BST} stays correct (structural validation plus the
//      size == inserts - removes invariant) under injected mid-operation
//      stalls, std::bad_alloc bursts, delayed reclamation, epoch-advance
//      storms, and MP index-collision pressure — and the bounded schemes
//      respect their theoretical wasted-memory bound throughout.
//   3. The paper's claim as a runtime invariant — under an injected
//      mid-operation stall, MP's measured peak_retired stays within its
//      Theorem 4.2 bound while EBR's grows past that same number, and the
//      soft-cap graceful-degradation path keeps emergency reclamation work
//      bounded whether or not reclamation can make progress.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <new>
#include <thread>
#include <tuple>
#include <vector>

#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::ChaosOptions;
using mp::smr::ChaosPoint;
using mp::smr::Config;
using mp::smr::FaultInjector;
using mp::smr::kUnboundedWaste;
using mp::smr::WasteWatchdog;
using mp::test::TestNode;

/// The standard torture schedule: every fault class enabled, periods
/// mutually coprime so the injections interleave rather than align.
ChaosOptions torture_options(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.stall_period = 97;
  options.stall_iterations = 32;
  options.alloc_failure_period = 211;
  options.alloc_failure_burst = 3;
  options.delay_reclamation_period = 13;
  options.epoch_storm_period = 131;
  options.epoch_storm_burst = 5;
  options.collision_period = 29;
  return options;
}

/// Same fault mix, tuned for the multi-threaded survival runs where list
/// traversals hit a chaos point per hop: rarer, shorter stalls.
ChaosOptions survival_options(std::uint64_t seed) {
  ChaosOptions options = torture_options(seed);
  options.stall_period = 257;
  options.stall_iterations = 8;
  return options;
}

// ---- 1. Determinism: same seed => same injection schedule ----

/// Drive one injector through a fixed mixed call sequence on two lanes.
void drive_schedule(FaultInjector& injector) {
  for (int i = 0; i < 5000; ++i) {
    const int tid = i % 2;
    injector.point(tid, ChaosPoint::kProtect);
    if (i % 3 == 0) injector.fail_alloc(tid);
    if (i % 4 == 0) injector.delay_reclamation(tid);
    if (i % 5 == 0) injector.epoch_storm(tid);
    if (i % 7 == 0) injector.force_collision(tid);
    injector.point(tid, ChaosPoint::kRetire);
  }
}

TEST(ChaosDeterminism, SameSeedSameSchedule) {
  ChaosOptions options = torture_options(0xC0FFEE);
  options.stall_iterations = 0;  // keep the drive loop instant
  FaultInjector a(options, 2);
  FaultInjector b(options, 2);
  drive_schedule(a);
  drive_schedule(b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (int tid = 0; tid < 2; ++tid) {
    const auto ca = a.counters(tid);
    const auto cb = b.counters(tid);
    EXPECT_EQ(ca.stalls, cb.stalls);
    EXPECT_EQ(ca.alloc_failures, cb.alloc_failures);
    EXPECT_EQ(ca.delayed_empties, cb.delayed_empties);
    EXPECT_EQ(ca.epoch_storms, cb.epoch_storms);
    EXPECT_EQ(ca.forced_collisions, cb.forced_collisions);
  }
  const auto total = a.total();
  EXPECT_GT(total.stalls, 0u) << "the schedule must contain real injections";
  EXPECT_GT(total.alloc_failures, 0u);
  EXPECT_GT(total.delayed_empties, 0u);
  EXPECT_GT(total.epoch_storms, 0u);
  EXPECT_GT(total.forced_collisions, 0u);
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  ChaosOptions options = torture_options(1);
  options.stall_iterations = 0;
  FaultInjector a(options, 2);
  options.seed = 2;
  FaultInjector b(options, 2);
  drive_schedule(a);
  drive_schedule(b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ChaosDeterminism, DisarmedDrawsNothing) {
  ChaosOptions options = torture_options(3);
  options.stall_iterations = 0;
  FaultInjector armed(options, 2);
  FaultInjector gated(options, 2);
  gated.set_armed(false);
  drive_schedule(gated);  // consumes no randomness, fires nothing
  EXPECT_EQ(gated.total().stalls + gated.total().alloc_failures, 0u);
  gated.set_armed(true);
  drive_schedule(armed);
  drive_schedule(gated);
  EXPECT_EQ(armed.fingerprint(), gated.fingerprint())
      << "a disarmed window must not perturb the armed schedule";
}

TEST(ChaosDeterminism, EndToEndSchemeRunReproducible) {
  // Same seed + same single-threaded op sequence through a real structure
  // must reproduce the schedule *and* the scheme's observable statistics.
  const auto run = [] {
    ChaosOptions options = torture_options(7);
    options.stall_iterations = 1;
    FaultInjector injector(options, 2);
    injector.set_armed(false);
    Config config = mp::test::ds_config(2, 4, 4);
    config.fault_injector = &injector;
    mp::ds::MichaelList<mp::smr::MP> list(config);
    injector.set_armed(true);
    mp::common::Xoshiro256 rng(99);
    const auto handle = list.scheme().handle(0);
    std::uint64_t ooms = 0;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = 1 + rng.next_below(128);
      try {
        if (rng.next() % 2 == 0) {
          list.insert(handle, key, key);
        } else {
          list.remove(handle, key);
        }
      } catch (const std::bad_alloc&) {
        ++ooms;
      }
    }
    injector.set_armed(false);
    const auto stats = list.scheme().stats_snapshot();
    return std::tuple{injector.fingerprint(), ooms,     stats.allocs,
                      stats.retires,          stats.reclaims,
                      stats.index_collisions, list.size()};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<1>(first), 0u) << "bad_alloc bursts must really fire";
}

// ---- 2. Survival: schemes × structures under the full fault mix ----

struct TortureOutcome {
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::uint64_t ooms = 0;
};

/// Mixed random workload with fault injection armed; workers treat an
/// injected bad_alloc exactly as a production client treats OOM: the op
/// simply did not happen.
template <typename DS>
TortureOutcome torture_mix(DS& ds, FaultInjector& injector, int threads,
                           int ops_per_thread, std::uint64_t key_range,
                           std::uint64_t seed) {
  std::atomic<std::uint64_t> inserts{0}, removes{0}, ooms{0};
  mp::common::SpinBarrier barrier(static_cast<std::size_t>(threads));
  injector.set_armed(true);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      mp::common::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      const auto handle = ds.scheme().handle(t);
      std::uint64_t local_inserts = 0, local_removes = 0, local_ooms = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = 1 + rng.next_below(key_range);
        const auto coin = static_cast<int>(rng.next() % 100);
        try {
          if (coin < 45) {
            local_inserts += ds.insert(handle, key, key);
          } else if (coin < 80) {
            local_removes += ds.remove(handle, key);
          } else {
            ds.contains(handle, key);
          }
        } catch (const std::bad_alloc&) {
          ++local_ooms;
        }
      }
      inserts.fetch_add(local_inserts);
      removes.fetch_add(local_removes);
      ooms.fetch_add(local_ooms);
    });
  }
  for (auto& worker : workers) worker.join();
  injector.set_armed(false);
  return {inserts.load(), removes.load(), ooms.load()};
}

/// Assert the wasted-memory watchdog invariant. Injected delayed empties
/// legitimately suppress scheduled reclamation, so each one widens the
/// bound by one empty_freq buffer.
template <typename Scheme>
void expect_within_bound(const Scheme& scheme, const FaultInjector& injector) {
  WasteWatchdog<Scheme> watchdog(scheme);
  const std::uint64_t slack =
      static_cast<std::uint64_t>(scheme.config().empty_freq) *
      injector.total().delayed_empties;
  EXPECT_TRUE(watchdog.ok(slack))
      << "peak_retired " << watchdog.peak() << " exceeds bound "
      << watchdog.bound() << " (+ delay slack " << slack << ")";
}

template <typename DS>
void survive_torture(std::uint64_t seed, bool background_reclaim = false) {
  const int threads = 4;
  FaultInjector injector(survival_options(seed),
                         static_cast<std::size_t>(threads));
  injector.set_armed(false);  // construction/prefill outside the chaos window
  Config config = mp::test::ds_config(threads, DS::kRequiredSlots, 8);
  config.background_reclaim = background_reclaim;
  config.fault_injector = &injector;
  // In SMR_ORACLE builds the whole fault mix additionally runs under the
  // protection-discipline oracle: surviving is not enough, every read and
  // free must also have respected the protocol.
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  DS ds(config);
  std::uint64_t prefill = 0;
  const auto prefill_handle = ds.scheme().handle(0);
  for (std::uint64_t key = 2; key <= 256; key += 2) {
    prefill += ds.insert(prefill_handle, key, key);
  }
  const TortureOutcome outcome =
      torture_mix(ds, injector, threads, 4000, 256, seed);
  EXPECT_TRUE(ds.validate());
  EXPECT_EQ(ds.size(), prefill + outcome.inserts - outcome.removes);
  EXPECT_GT(outcome.ooms, 0u) << "injected OOM episodes must reach clients";
  EXPECT_GT(injector.total().stalls, 0u);
  // The per-thread bound survives either arm: offloading swaps the local
  // list out (it no longer counts toward peak_retired), and when the cap
  // closes the valve, the inline fallback scans as the fg arm would.
  expect_within_bound(ds.scheme(), injector);
  if (background_reclaim) {
    WasteWatchdog<typename DS::Scheme> watchdog(ds.scheme());
    EXPECT_TRUE(watchdog.inflight_ok())
        << "peak_inflight " << watchdog.peak_inflight()
        << " exceeds in-flight bound " << watchdog.inflight_bound();
  }
  oracle.expect_clean();
}

template <typename Tag>
class ChaosTortureTest : public ::testing::Test {};
TYPED_TEST_SUITE(ChaosTortureTest, mp::test::ReclaimingSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(ChaosTortureTest, MichaelListSurvivesFaultMix) {
  survive_torture<mp::ds::MichaelList<TypeParam::template scheme>>(101);
}

TYPED_TEST(ChaosTortureTest, FraserSkipListSurvivesFaultMix) {
  survive_torture<mp::ds::FraserSkipList<TypeParam::template scheme>>(202);
}

TYPED_TEST(ChaosTortureTest, NatarajanTreeSurvivesFaultMix) {
  survive_torture<mp::ds::NatarajanTree<TypeParam::template scheme>>(303);
}

// The same fault mix with retirement offloaded to the background reclaimer:
// the chaos points now race application threads against bg scans, and the
// watchdog additionally enforces the in-flight ceiling.
TYPED_TEST(ChaosTortureTest, MichaelListSurvivesFaultMixBgReclaim) {
  survive_torture<mp::ds::MichaelList<TypeParam::template scheme>>(
      606, /*background_reclaim=*/true);
}

TYPED_TEST(ChaosTortureTest, NatarajanTreeSurvivesFaultMixBgReclaim) {
  survive_torture<mp::ds::NatarajanTree<TypeParam::template scheme>>(
      707, /*background_reclaim=*/true);
}

// ---- 3a. The Theorem 4.2 adversary, via injected stall ----

/// Cooperative stall latch: the injector's stall hook parks thread 1 at
/// its *second* kProtect point — the first read() has installed protection
/// (an MP margin / EBR epoch announcement) that the parked thread then
/// holds indefinitely, which is exactly the paper's adversary.
struct StallLatch {
  std::mutex mutex;
  std::condition_variable cv;
  int protect_calls = 0;
  bool parked = false;
  bool released = false;

  static void hook(void* context, int tid, ChaosPoint point) {
    auto* latch = static_cast<StallLatch*>(context);
    if (tid != 1 || point != ChaosPoint::kProtect) return;
    std::unique_lock lock(latch->mutex);
    if (++latch->protect_calls != 2) return;
    latch->parked = true;
    latch->cv.notify_all();
    latch->cv.wait(lock, [latch] { return latch->released; });
  }

  void wait_parked() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] { return parked; });
  }

  void release() {
    {
      std::lock_guard lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
};

/// Scheme-level stalled-churn scenario: thread 1 stalls mid-operation while
/// holding protection; thread 0 churns `churn_count` alloc+retire pairs
/// with spread-out indices. Returns (peak_retired, theoretical bound).
template <template <typename> class SchemeT>
std::pair<std::uint64_t, std::uint64_t> stalled_churn(int churn_count) {
  using Scheme = SchemeT<TestNode>;
  Config config;
  config.max_threads = 2;
  config.slots_per_thread = 1;
  config.margin = 1u << 17;  // smallest legal margin -> tightest MP bound
  config.epoch_freq = 1;
  config.empty_freq = 4096;

  StallLatch latch;
  ChaosOptions options;
  options.seed = 42;
  options.stall_period = 1;  // consult the hook at every chaos point
  options.stall_hook = &StallLatch::hook;
  options.stall_hook_context = &latch;
  FaultInjector injector(options, 2);
  config.fault_injector = &injector;

  Scheme scheme(config);
  auto* anchor = scheme.alloc(0, std::uint64_t{0});
  scheme.set_index(anchor, 1u << 24);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(anchor));

  std::thread reader([&] {
    scheme.start_op(1);
    scheme.read(1, 0, cell);  // installs protection for the anchor
    scheme.read(1, 0, cell);  // parks in the entry chaos point, holding it
    scheme.end_op(1);
  });
  latch.wait_parked();

  for (int i = 0; i < churn_count; ++i) {
    auto* node = scheme.alloc(0, static_cast<std::uint64_t>(i));
    scheme.set_index(node, static_cast<std::uint32_t>(
                               (static_cast<std::uint64_t>(i) * 97) << 12));
    scheme.retire(0, node);
  }
  const std::uint64_t peak = scheme.stats_snapshot().peak_retired;

  latch.release();
  reader.join();
  scheme.delete_unlinked(0, anchor);
  return {peak, Scheme::waste_bound_per_thread(config)};
}

TEST(ChaosBound, MpRespectsTheorem42WhileEbrBlowsPast) {
  // MP bound (Theorem 4.2, per thread, this config):
  //   #MP + #MP*M*(1 + epoch_freq*T) + empty_freq
  //   = 1 + 1*2^17*(1 + 1*2) + 4096 = 397313.
  const int churn_count = 450000;  // > the MP bound, with headroom
  const auto [mp_peak, mp_bound] = stalled_churn<mp::smr::MP>(churn_count);
  ASSERT_EQ(mp_bound, 397313u) << "Theorem 4.2 formula changed?";
  EXPECT_LE(mp_peak, mp_bound)
      << "MP must respect its bound under a mid-operation stall";
  // In fact the stalled margin pins almost nothing here: the epoch advances
  // under it, so MP's peak is essentially the empty_freq buffer.
  EXPECT_LE(mp_peak, 3u * 4096u);

  const auto [ebr_peak, ebr_bound] = stalled_churn<mp::smr::EBR>(churn_count);
  EXPECT_EQ(ebr_bound, kUnboundedWaste);
  EXPECT_GT(ebr_peak, mp_bound)
      << "EBR's waste under the same stall must exceed MP's entire bound";
  EXPECT_EQ(ebr_peak, static_cast<std::uint64_t>(churn_count))
      << "EBR reclaims nothing while the reader is parked";
}

// ---- 3b. Soft-cap graceful degradation ----

TEST(SoftCap, EmergencyEmptiesHoldTheCapWhenReclaimable) {
  // No stalled peers: every emergency pass can reclaim, so the retired
  // list must never exceed the cap and backoff must keep resetting.
  using Scheme = mp::smr::EBR<TestNode>;
  Config config;
  config.max_threads = 1;
  config.slots_per_thread = 1;
  config.empty_freq = 1 << 20;  // scheduled empties out of the picture
  config.epoch_freq = 1;
  config.retired_soft_cap = 100;
  Scheme scheme(config);
  for (int i = 0; i < 5000; ++i) {
    auto* node = scheme.alloc(0, static_cast<std::uint64_t>(i));
    scheme.retire(0, node);
  }
  const auto stats = scheme.stats_snapshot();
  EXPECT_LE(stats.peak_retired, config.retired_soft_cap + 4)
      << "the soft cap must hold when reclamation can make progress";
  EXPECT_EQ(stats.empties, stats.emergency_empties)
      << "every pass here is an emergency pass";
  EXPECT_GE(stats.emergency_empties, 40u);
  EXPECT_LE(stats.emergency_empties, 80u);
}

TEST(SoftCap, BackoffBoundsWorkWhenReclamationIsBlocked) {
  // A stalled reader pins EBR's epoch, so every emergency pass is futile.
  // The exponential backoff must keep the total number of O(retired) scans
  // logarithmic-then-linear-in-1/kEmergencyBackoffLimit — NOT one per
  // retire.
  using Scheme = mp::smr::EBR<TestNode>;
  Config config;
  config.max_threads = 2;
  config.slots_per_thread = 1;
  config.empty_freq = 1 << 20;
  config.epoch_freq = 1;
  config.retired_soft_cap = 100;

  StallLatch latch;
  ChaosOptions options;
  options.seed = 5;
  options.stall_period = 1;
  options.stall_hook = &StallLatch::hook;
  options.stall_hook_context = &latch;
  FaultInjector injector(options, 2);
  config.fault_injector = &injector;

  Scheme scheme(config);
  auto* anchor = scheme.alloc(0, std::uint64_t{0});
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(anchor));
  std::thread reader([&] {
    scheme.start_op(1);
    scheme.read(1, 0, cell);
    scheme.read(1, 0, cell);  // parks, pinning the epoch
    scheme.end_op(1);
  });
  latch.wait_parked();

  const std::uint64_t limit = mp::smr::detail::kEmergencyBackoffLimit;
  const std::uint64_t churn_count = 80 * limit;
  for (std::uint64_t i = 0; i < churn_count; ++i) {
    auto* node = scheme.alloc(0, i);
    scheme.retire(0, node);
  }
  const auto stats = scheme.stats_snapshot();
  latch.release();
  reader.join();
  scheme.delete_unlinked(0, anchor);

  // ~13 doubling passes (1..limit) then one per limit retires: ~90 total.
  EXPECT_GE(stats.emergency_empties, 20u);
  EXPECT_LE(stats.emergency_empties, 160u)
      << "futile passes must back off, not fire per retire";
  EXPECT_GE(stats.peak_retired, churn_count)
      << "EBR still cannot reclaim under the stall (waste is unbounded; "
         "the cap only bounds the *work* spent trying)";
}

TEST(SoftCap, BoundedRetireLatencyUnderAllocFailure) {
  // OOM episodes + soft cap on a real structure: the structure stays
  // correct and emergency scans stay a small fraction of retires.
  using List = mp::ds::MichaelList<mp::smr::HP>;
  ChaosOptions options;
  options.seed = 9;
  options.alloc_failure_period = 40;
  options.alloc_failure_burst = 2;
  FaultInjector injector(options, 1);
  injector.set_armed(false);

  Config config = mp::test::ds_config(1, List::kRequiredSlots, 1 << 20);
  config.retired_soft_cap = 64;
  config.fault_injector = &injector;
  List list(config);
  injector.set_armed(true);

  std::uint64_t ooms = 0, live = 0;
  const auto handle = list.scheme().handle(0);
  for (std::uint64_t key = 1; key <= 2000; ++key) {
    try {
      live += list.insert(handle, key, key);
      live -= list.remove(handle, key);
    } catch (const std::bad_alloc&) {
      ++ooms;
    }
  }
  injector.set_armed(false);
  EXPECT_TRUE(list.validate());
  EXPECT_EQ(list.size(), live);
  EXPECT_GT(ooms, 0u);
  const auto stats = list.scheme().stats_snapshot();
  EXPECT_LE(stats.peak_retired, config.retired_soft_cap + 4);
  EXPECT_GE(stats.emergency_empties, 1u);
  EXPECT_LE(stats.emergency_empties, stats.retires / 16)
      << "emergency scans must amortize, keeping retire() latency bounded";
}

}  // namespace
