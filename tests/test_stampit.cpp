// Stamp-it (stamp-ordered thread list, one-store leave, reap-on-collect):
// the scheme-specific behavior the typed cross-scheme suites cannot pin
// down.
//
//   * horizon semantics — an active operation pins the horizon at its
//     stamp (nothing retired after it is freed), and once the oldest
//     operation ends the next pass's collect_snapshot reaps it and
//     releases the backlog;
//   * DEBRA amortization — a thread re-enrolls (and bumps the global
//     stamp counter) only every kAnnounceFreq operations, whether or not
//     it is the list head;
//   * detach — a departed tid's retired list is orphaned and the
//     allocation identity still closes after adoption/drain;
//   * conservation (retires == reclaims + drained) in both the foreground
//     and background arms;
//   * chaos + churn mini-tortures (the latter with injected thread
//     deaths) through a real structure, oracle-clean, with the
//     waste/in-flight watchdog invariants holding.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "common/thread_registry.hpp"
#include "ds/michael_list.hpp"
#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::common::ThreadLease;
using mp::common::ThreadRegistry;
using mp::smr::ChaosOptions;
using mp::smr::Config;
using mp::smr::FaultInjector;
using mp::smr::WasteWatchdog;
using mp::test::TestNode;

using Scheme = mp::smr::Stampit<TestNode>;

static_assert(mp::smr::SmrScheme<Scheme>);
static_assert(!Scheme::kSnapshotFree);
static_assert(mp::smr::SnapshotReclaimable<Scheme>);

// ---- Horizon semantics ----

TEST(StampitHorizon, ActiveOperationPinsRetiredNodes) {
  Config config = mp::test::ds_config(2, 2, 8);
  Scheme scheme(config);
  // Tid 0 enrolls and stays mid-operation: the horizon is its stamp, so
  // everything retired from now on carries a stamp >= horizon and must
  // survive tid 1's empty() passes.
  scheme.start_op(0);
  for (int i = 0; i < 8; ++i) {
    scheme.retire(1, scheme.alloc(1, static_cast<std::uint64_t>(i)));
  }
  EXPECT_GT(scheme.stats_snapshot().empties, 0u);
  EXPECT_EQ(scheme.stats_snapshot().reclaims, 0u)
      << "an active operation must pin every later retire";
  // Reap-on-collect: tid 0's end_op only marks its head entry quiescent;
  // the next pass's collect_snapshot pops it and publishes a horizon past
  // every stamp issued so far, so that pass frees the whole backlog.
  scheme.end_op(0);
  for (int i = 0; i < 8; ++i) {
    scheme.retire(1, scheme.alloc(1, static_cast<std::uint64_t>(100 + i)));
  }
  EXPECT_EQ(scheme.stats_snapshot().reclaims, 16u)
      << "the next pass must reap the quiescent head and release the "
         "pinned backlog";
  scheme.drain();
  EXPECT_EQ(scheme.outstanding(), 0u);
}

TEST(StampitHorizon, SnapshotProtectsByRetireStamp) {
  Config config = mp::test::ds_config(2, 2, 8);
  Scheme scheme(config);
  Scheme::Snapshot snapshot;
  scheme.collect_snapshot(snapshot);
  TestNode* node = scheme.alloc(0, 7);
  node->smr_header.retire_epoch.store(snapshot.horizon,
                                      std::memory_order_relaxed);
  EXPECT_TRUE(scheme.snapshot_protects(node, snapshot));
  node->smr_header.retire_epoch.store(snapshot.horizon - 1,
                                      std::memory_order_relaxed);
  EXPECT_FALSE(scheme.snapshot_protects(node, snapshot));
  scheme.delete_unlinked(0, node);
}

// ---- DEBRA amortization ----

TEST(StampitAnnounce, ReenrollsOnlyEveryAnnounceFreqOps) {
  Config config = mp::test::ds_config(2, 2, 8);
  Scheme scheme(config);
  // Tid 0 holds the head, so tid 1 is never the head; the fast path
  // reactivates tid 1 in place without touching the counter.
  scheme.start_op(0);
  scheme.start_op(1);  // first op: enrollment (+1 stamp)
  scheme.end_op(1);
  const std::uint64_t before = scheme.epoch_now();
  const int ops = static_cast<int>(Scheme::kAnnounceFreq) * 3;
  for (int i = 0; i < ops; ++i) {
    scheme.start_op(1);
    scheme.end_op(1);
  }
  EXPECT_EQ(scheme.epoch_now() - before, 3u)
      << "only every kAnnounceFreq-th op may take the enrollment slow path";
  scheme.end_op(0);
  scheme.drain();
}

TEST(StampitAnnounce, HeadReenrollsOnlyEveryAnnounceFreqOps) {
  Config config = mp::test::ds_config(2, 2, 8);
  Scheme scheme(config);
  // A lone thread is always the list head. Its end_op must not pop its own
  // entry, or every next start_op loses the reactivation CAS and
  // re-enrolls (a mutex and a global stamp bump per operation).
  scheme.start_op(0);  // first op: enrollment (+1 stamp)
  scheme.end_op(0);
  const std::uint64_t before = scheme.epoch_now();
  const std::uint64_t slow_before = scheme.stats_snapshot().slow_protects;
  const int ops = static_cast<int>(Scheme::kAnnounceFreq) * 3;
  for (int i = 0; i < ops; ++i) {
    scheme.start_op(0);
    scheme.end_op(0);
  }
  EXPECT_EQ(scheme.epoch_now() - before, 3u)
      << "the head may take the enrollment slow path only every "
         "kAnnounceFreq-th op";
  EXPECT_EQ(scheme.stats_snapshot().slow_protects - slow_before, 0u)
      << "the head's fast-path reactivation CAS must never lose";
  scheme.drain();
}

// ---- Detach: orphaning and adoption ----

TEST(StampitDetach, OrphansRetiredListAndDrainCloses) {
  Config config = mp::test::ds_config(2, 2, 64);
  Scheme scheme(config);
  // A large empty_freq keeps the nodes buffered on tid 0's retired list,
  // so its detach must hand them to the orphan pool.
  for (int i = 0; i < 16; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  scheme.detach(0);
  const auto mid = scheme.stats_snapshot();
  EXPECT_EQ(mid.orphaned, 16u);
  EXPECT_EQ(scheme.orphan_count() + mid.adopted, 16u);
  scheme.drain();
  EXPECT_EQ(scheme.orphan_count(), 0u);
  const auto stats = scheme.stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
}

// ---- Conservation ----

TEST(StampitConservation, ForegroundStormConservesEveryNode) {
  Config config = mp::test::ds_config(2, 2, 8);
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Scheme scheme(config);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&scheme, t] {
      for (int i = 0; i < 3000; ++i) {
        scheme.start_op(t);
        scheme.retire(t, scheme.alloc(t, static_cast<std::uint64_t>(i)));
        scheme.end_op(t);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  scheme.drain();
  const auto stats = scheme.stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
  oracle.expect_clean();
}

TEST(StampitConservation, BackgroundStormConservesEveryNode) {
  Config config = mp::test::ds_config(2, 2, 8);
  config.background_reclaim = true;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Scheme scheme(config);
  WasteWatchdog<Scheme> watchdog(scheme);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&scheme, t] {
      for (int i = 0; i < 3000; ++i) {
        scheme.start_op(t);
        scheme.retire(t, scheme.alloc(t, static_cast<std::uint64_t>(i)));
        scheme.end_op(t);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  scheme.drain();
  EXPECT_EQ(scheme.reclaim_inflight(), 0u);
  const auto stats = scheme.stats_snapshot();
  EXPECT_GT(stats.offloaded, 0u) << "the bg arm must actually offload";
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
  EXPECT_TRUE(watchdog.inflight_ok());
  oracle.expect_clean();
}

// ---- Chaos torture through a real structure ----

ChaosOptions stampit_chaos_options(std::uint64_t seed) {
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
  return options;
}

void stampit_survive_torture(std::uint64_t seed, bool background_reclaim) {
  using List = mp::ds::MichaelList<mp::smr::Stampit>;
  const int threads = 4;
  FaultInjector injector(stampit_chaos_options(seed),
                         static_cast<std::size_t>(threads));
  injector.set_armed(false);
  Config config = mp::test::ds_config(threads, List::kRequiredSlots, 8);
  config.background_reclaim = background_reclaim;
  config.fault_injector = &injector;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  List list(config);
  WasteWatchdog<List::Scheme> watchdog(list.scheme());
  std::uint64_t prefill = 0;
  {
    const auto handle = list.scheme().handle(0);
    for (std::uint64_t key = 2; key <= 256; key += 2) {
      prefill += list.insert(handle, key, key);
    }
  }
  injector.set_armed(true);
  std::atomic<std::uint64_t> inserts{0}, removes{0}, ooms{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      mp::common::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      const auto handle = list.scheme().handle(t);
      std::uint64_t local_inserts = 0, local_removes = 0, local_ooms = 0;
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = 1 + rng.next_below(256);
        const auto coin = static_cast<int>(rng.next() % 100);
        try {
          if (coin < 45) {
            local_inserts += list.insert(handle, key, key);
          } else if (coin < 80) {
            local_removes += list.remove(handle, key);
          } else {
            list.contains(handle, key);
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
  EXPECT_TRUE(list.validate());
  EXPECT_EQ(list.size(), prefill + inserts.load() - removes.load());
  EXPECT_GT(ooms.load(), 0u) << "injected OOM episodes must reach clients";
  EXPECT_TRUE(watchdog.ok());
  EXPECT_TRUE(watchdog.inflight_ok());
  list.scheme().drain();
  const auto stats = list.scheme().stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  oracle.expect_clean();
}

TEST(StampitTorture, SurvivesChaosMixForeground) {
  stampit_survive_torture(0x61, /*background_reclaim=*/false);
}

TEST(StampitTorture, SurvivesChaosMixBackground) {
  stampit_survive_torture(0x62, /*background_reclaim=*/true);
}

// ---- Churn torture: injected thread deaths, orphaning, adoption ----

void stampit_survive_churn(std::uint64_t seed, bool background_reclaim) {
  using List = mp::ds::MichaelList<mp::smr::Stampit>;
  const int threads = 4;
  ChaosOptions options = stampit_chaos_options(seed);
  options.thread_death_period = 401;
  FaultInjector injector(options, static_cast<std::size_t>(threads));
  injector.set_armed(false);
  Config config = mp::test::ds_config(threads, List::kRequiredSlots, 8);
  config.background_reclaim = background_reclaim;
  config.fault_injector = &injector;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  List list(config);
  // Leases detach through the registry hook: the departed tid's entry
  // leaves the stamp list (so its stale stamp cannot hold the horizon
  // back) and its retired list is orphaned for adoption.
  ThreadRegistry registry(static_cast<std::size_t>(threads));
  registry.set_detach_hook(
      [](void* context, int tid) {
        static_cast<List::Scheme*>(context)->detach(tid);
      },
      &list.scheme());
  std::uint64_t prefill = 0;
  {
    ThreadLease lease(registry);
    const auto handle = list.scheme().handle(lease.tid());
    for (std::uint64_t key = 2; key <= 256; key += 2) {
      prefill += list.insert(handle, key, key);
    }
  }
  injector.set_armed(true);
  std::atomic<std::uint64_t> inserts{0}, removes{0}, departures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      mp::common::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      std::uint64_t local_inserts = 0, local_removes = 0;
      std::uint64_t local_departures = 0;
      ThreadLease lease(registry);
      auto handle = list.scheme().handle(lease.tid());
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = 1 + rng.next_below(256);
        const auto coin = static_cast<int>(rng.next() % 100);
        try {
          if (coin < 45) {
            local_inserts += list.insert(handle, key, key);
          } else if (coin < 80) {
            local_removes += list.remove(handle, key);
          } else {
            list.contains(handle, key);
          }
        } catch (const std::bad_alloc&) {
          // Injected OOM: the op simply did not happen.
        }
        if (injector.should_die(handle.tid())) {
          lease.detach();
          lease = ThreadLease(registry);
          handle = list.scheme().handle(lease.tid());
          ++local_departures;
        }
      }
      inserts.fetch_add(local_inserts);
      removes.fetch_add(local_removes);
      departures.fetch_add(local_departures);
    });
  }
  for (auto& worker : workers) worker.join();
  injector.set_armed(false);
  EXPECT_TRUE(list.validate());
  EXPECT_EQ(list.size(), prefill + inserts.load() - removes.load());
  EXPECT_GT(departures.load(), 0u) << "injected deaths must really fire";
  EXPECT_EQ(departures.load(), injector.total().thread_deaths);
  list.scheme().drain();
  EXPECT_EQ(list.scheme().orphan_count(), 0u);
  const auto stats = list.scheme().stats_snapshot();
  EXPECT_GT(stats.orphaned, 0u)
      << "dead leases must orphan their retired lists";
  EXPECT_GE(stats.orphaned, stats.adopted);
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  oracle.expect_clean();
}

TEST(StampitChurn, SurvivesThreadDeathsForeground) {
  stampit_survive_churn(0x71, /*background_reclaim=*/false);
}

TEST(StampitChurn, SurvivesThreadDeathsBackground) {
  stampit_survive_churn(0x72, /*background_reclaim=*/true);
}

}  // namespace
