// Churn torture: thread-lifecycle robustness under deterministic
// kThreadDeath injection. Workers lease dense ids from a ThreadRegistry
// whose detach hook is wired to Scheme::detach(); mid-workload the
// injector kills a worker's lease, orphaning its retired list and
// clearing its protection state, and the worker re-registers as a fresh
// leaseholder. Across every reclaiming scheme × four structures this
// must preserve:
//   * structural validity and the size == inserts - removes identity,
//   * the allocation identity retires == reclaims + drained once the
//     last lease is gone and the scheme is drained,
//   * the wasted-memory bound, widened by the adopted backlog (an adopter
//     legitimately carries up to every orphaned node on top of its own
//     Theorem 4.2 budget) and by injected reclamation delays.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "common/thread_registry.hpp"
#include "ds/michael_hashset.hpp"
#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::common::ThreadLease;
using mp::common::ThreadRegistry;
using mp::smr::ChaosOptions;
using mp::smr::Config;
using mp::smr::FaultInjector;
using mp::smr::WasteWatchdog;

/// The chaos-torture survival mix plus thread-death churn, periods kept
/// mutually coprime so departures interleave with the other faults.
ChaosOptions churn_options(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.stall_period = 257;
  options.stall_iterations = 8;
  options.alloc_failure_period = 211;
  options.alloc_failure_burst = 3;
  options.delay_reclamation_period = 13;
  options.epoch_storm_period = 131;
  options.epoch_storm_burst = 5;
  options.collision_period = 29;
  options.thread_death_period = 401;
  return options;
}

// ---- Determinism: the death schedule replays exactly ----

TEST(ChurnDeterminism, SameSeedSameDeathSchedule) {
  ChaosOptions options = churn_options(0xD1E);
  FaultInjector a(options, 4);
  FaultInjector b(options, 4);
  for (int i = 0; i < 20000; ++i) {
    a.should_die(i % 4);
    b.should_die(i % 4);
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  std::uint64_t deaths = 0;
  for (int tid = 0; tid < 4; ++tid) {
    EXPECT_EQ(a.counters(tid).thread_deaths, b.counters(tid).thread_deaths);
    deaths += a.counters(tid).thread_deaths;
  }
  EXPECT_GT(deaths, 0u) << "the schedule must contain real deaths";
  EXPECT_EQ(a.total().thread_deaths, deaths);
}

TEST(ChurnDeterminism, DisarmedNeverDies) {
  FaultInjector injector(churn_options(5), 2);
  injector.set_armed(false);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(injector.should_die(i % 2));
  }
  EXPECT_EQ(injector.total().thread_deaths, 0u);
}

// ---- Survival: schemes × structures under churn ----

struct ChurnOutcome {
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::uint64_t ooms = 0;
  std::uint64_t departures = 0;
};

/// Mixed random workload where should_die(tid) retires the worker's lease
/// mid-run: the lease detach fires the registry hook (Scheme::detach), and
/// the worker immediately re-registers — detach-then-acquire, so churn
/// works even at full registry capacity.
template <typename DS>
ChurnOutcome churn_mix(DS& ds, FaultInjector& injector,
                       ThreadRegistry& registry, int threads,
                       int ops_per_thread, std::uint64_t key_range,
                       std::uint64_t seed) {
  std::atomic<std::uint64_t> inserts{0}, removes{0}, ooms{0}, departures{0};
  mp::common::SpinBarrier barrier(static_cast<std::size_t>(threads));
  injector.set_armed(true);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      mp::common::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      std::uint64_t local_inserts = 0, local_removes = 0, local_ooms = 0;
      std::uint64_t local_departures = 0;
      ThreadLease lease(registry);
      auto handle = ds.scheme().handle(lease.tid());
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
        if (injector.should_die(handle.tid())) {
          lease.detach();  // hook orphans the retired list, clears state
          lease = ThreadLease(registry);
          handle = ds.scheme().handle(lease.tid());
          ++local_departures;
        }
      }
      inserts.fetch_add(local_inserts);
      removes.fetch_add(local_removes);
      ooms.fetch_add(local_ooms);
      departures.fetch_add(local_departures);
    });
  }
  for (auto& worker : workers) worker.join();
  injector.set_armed(false);
  return {inserts.load(), removes.load(), ooms.load(), departures.load()};
}

/// Waste bound with churn slack: injected reclamation delays widen the
/// bound by one empty_freq buffer each (as in the chaos torture), and
/// adoption concentrates up to the whole orphaned backlog onto one
/// surviving thread's list on top of its own budget.
template <typename Scheme>
void expect_within_churn_bound(const Scheme& scheme,
                               const FaultInjector& injector) {
  WasteWatchdog<Scheme> watchdog(scheme);
  const auto stats = scheme.stats_snapshot();
  const std::uint64_t slack =
      static_cast<std::uint64_t>(scheme.config().empty_freq) *
          injector.total().delayed_empties +
      stats.orphaned;
  EXPECT_TRUE(watchdog.ok(slack))
      << "peak_retired " << watchdog.peak() << " exceeds bound "
      << watchdog.bound() << " (+ delay/adoption slack " << slack << ")";
}

template <typename DS>
void survive_churn(std::uint64_t seed, bool background_reclaim = false) {
  const int threads = 4;
  FaultInjector injector(churn_options(seed),
                         static_cast<std::size_t>(threads));
  injector.set_armed(false);  // construction/prefill outside the window
  Config config = mp::test::ds_config(threads, DS::kRequiredSlots, 8);
  config.background_reclaim = background_reclaim;
  config.fault_injector = &injector;
  // SMR_ORACLE builds: injected thread deaths must also leave the shadow
  // model consistent — a detach with an operation still open, or a free of
  // a node a departed-then-readopted tid still covers, fails the run.
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  DS ds(config);
  ThreadRegistry registry(static_cast<std::size_t>(threads));
  registry.set_detach_hook(
      [](void* context, int tid) {
        static_cast<typename DS::Scheme*>(context)->detach(tid);
      },
      &ds.scheme());

  std::uint64_t prefill = 0;
  {
    ThreadLease lease(registry);
    const auto handle = ds.scheme().handle(lease.tid());
    for (std::uint64_t key = 2; key <= 256; key += 2) {
      prefill += ds.insert(handle, key, key);
    }
  }
  const ChurnOutcome outcome =
      churn_mix(ds, injector, registry, threads, 4000, 256, seed);

  EXPECT_TRUE(ds.validate());
  EXPECT_EQ(ds.size(), prefill + outcome.inserts - outcome.removes);
  EXPECT_GT(outcome.departures, 0u) << "injected deaths must really fire";
  EXPECT_EQ(outcome.departures, injector.total().thread_deaths);
  expect_within_churn_bound(ds.scheme(), injector);

  // Every worker's final lease has detached by now, so all still-buffered
  // retired nodes sit in the orphan pool; drain() must consume the pool
  // and close the allocation identity.
  ds.scheme().drain();
  EXPECT_EQ(ds.scheme().orphan_count(), 0u);
  const auto stats = ds.scheme().stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  EXPECT_GE(stats.orphaned, stats.adopted);
  oracle.expect_clean();
}

/// The hash-churn workload's structure, multi-bucket, behind the one-
/// argument constructor survive_churn uses.
template <template <typename> class SchemeT>
struct ChurnHashSet : mp::ds::MichaelHashSet<SchemeT> {
  explicit ChurnHashSet(const Config& config)
      : mp::ds::MichaelHashSet<SchemeT>(config, 16) {}
};

template <typename Tag>
class ChurnTortureTest : public ::testing::Test {};
TYPED_TEST_SUITE(ChurnTortureTest, mp::test::ReclaimingSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(ChurnTortureTest, MichaelListSurvivesChurn) {
  survive_churn<mp::ds::MichaelList<TypeParam::template scheme>>(404);
}

TYPED_TEST(ChurnTortureTest, FraserSkipListSurvivesChurn) {
  survive_churn<mp::ds::FraserSkipList<TypeParam::template scheme>>(505);
}

TYPED_TEST(ChurnTortureTest, NatarajanTreeSurvivesChurn) {
  survive_churn<mp::ds::NatarajanTree<TypeParam::template scheme>>(606);
}

TYPED_TEST(ChurnTortureTest, MichaelHashSetSurvivesChurn) {
  survive_churn<ChurnHashSet<TypeParam::template scheme>>(909);
}

// Churn with the background reclaimer on: departures now race the bg
// thread's orphan adoption, and the post-drain identity must still close
// with nodes parked in the reclaimer's queue/backlog at detach time.
TYPED_TEST(ChurnTortureTest, MichaelListSurvivesChurnBgReclaim) {
  survive_churn<mp::ds::MichaelList<TypeParam::template scheme>>(
      707, /*background_reclaim=*/true);
}

TYPED_TEST(ChurnTortureTest, FraserSkipListSurvivesChurnBgReclaim) {
  survive_churn<mp::ds::FraserSkipList<TypeParam::template scheme>>(
      808, /*background_reclaim=*/true);
}

}  // namespace
