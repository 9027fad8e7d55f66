// Deamortized bounded-increment reclamation (DESIGN.md §12) and the
// batched get_many read path:
//   * one scheduled pass examines at most Config::scan_quantum nodes, the
//     remainder carries over and completes via per-retire continuation
//     steps — never a monolithic O(retired) scan inside one operation;
//   * scan_quantum = 0 is one unbounded step of the same engine (one
//     scan_increment per pass, nothing carried over), scan_quantum = 1 is
//     rejected at construction;
//   * the engine is quantum-blind in outcome: a quantum-0 and a quantum-4
//     pass free exactly the same nodes, in the foreground and the
//     background arm;
//   * conservation: retires == reclaims + drained after drain(), with the
//     cursor active, in both the foreground and background arms;
//   * survivors pinned mid-pass stay in the carried-over region and are
//     freed only after the pin releases;
//   * concurrent cursor steps vs detach()/orphan adoption (TSan
//     regression, EBR);
//   * get_many matches per-key get on all four structures, stays
//     oracle-clean under concurrent removes, and routes through
//     Client::submit_multi_get with one completion per key.
//
// Concurrent cases run EBR (no fence-based read path) so the suites stay
// TSan-clean under the CI regex (IncrementalScan|GetMany): GCC's TSan
// cannot model the standalone atomic_thread_fence MP/HP rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ds/fraser_skiplist.hpp"
#include "ds/michael_hashset.hpp"
#include "ds/michael_list.hpp"
#include "ds/natarajan_tree.hpp"
#include "ds_test_util.hpp"
#include "svc/sharded_map.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::smr::WasteWatchdog;
using mp::test::TestNode;

// ---- Foreground cursor: bounded increments, carry-over, conservation ----

template <typename Tag>
class IncrementalScanTest : public ::testing::Test {};
TYPED_TEST_SUITE(IncrementalScanTest, mp::test::ReclaimingSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(IncrementalScanTest, OneIncrementExaminesAtMostQuantum) {
  using Scheme = typename TypeParam::type;
  if constexpr (Scheme::kSnapshotFree) {
    GTEST_SKIP() << "snapshot-free scheme: no scan cursor to deamortize";
  }
  Config config = mp::test::ds_config(1, 2, 8);
  config.scan_quantum = 4;
  Scheme scheme(config);
  // No protection anywhere, so every examined node is freeable — yet the
  // pass scheduled at the 8th retire may free at most one quantum.
  for (int i = 0; i < 8; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  auto stats = scheme.stats_snapshot();
  EXPECT_EQ(stats.empties, 1u);
  EXPECT_EQ(stats.scan_increments, 1u);
  EXPECT_LE(stats.reclaims, config.scan_quantum)
      << "a single increment must not scan past the quantum";
  EXPECT_GE(stats.cursor_carryover, 8u - config.scan_quantum)
      << "the unexamined remainder must be carried over, not dropped";

  // The open pass continues one bounded step per retire — well before the
  // next empty_freq boundary.
  scheme.retire(0, scheme.alloc(0, std::uint64_t{99}));
  stats = scheme.stats_snapshot();
  EXPECT_EQ(stats.scan_increments, 2u);

  scheme.drain();
  const auto end = scheme.stats_snapshot();
  EXPECT_EQ(end.retires, end.reclaims + end.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
}

TYPED_TEST(IncrementalScanTest, QuantumZeroKeepsMonolithicPass) {
  using Scheme = typename TypeParam::type;
  Config config = mp::test::ds_config(1, 2, 8);
  config.scan_quantum = 0;
  Scheme scheme(config);
  for (int i = 0; i < 500; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  const auto stats = scheme.stats_snapshot();
  EXPECT_GT(stats.empties, 0u);
  if constexpr (!Scheme::kSnapshotFree) {
    EXPECT_EQ(stats.scan_increments, stats.empties)
        << "quantum 0 runs every pass as one unbounded engine step";
  }
  EXPECT_EQ(stats.cursor_carryover, 0u);
  scheme.drain();
  const auto end = scheme.stats_snapshot();
  EXPECT_EQ(end.retires, end.reclaims + end.drained);
}

TYPED_TEST(IncrementalScanTest, QuantumOfOneIsRejectedAtConstruction) {
  using Scheme = typename TypeParam::type;
  Config config = mp::test::ds_config(1, 2, 8);
  config.scan_quantum = 1;
  EXPECT_THROW(Scheme scheme(config), std::invalid_argument);
}

TYPED_TEST(IncrementalScanTest, StormConservesWithinDeamortizedBound) {
  using Scheme = typename TypeParam::type;
  if constexpr (Scheme::kSnapshotFree) {
    GTEST_SKIP() << "snapshot-free scheme: no scan cursor to deamortize";
  }
  Config config = mp::test::ds_config(1, 2, 8);
  config.scan_quantum = 4;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Scheme scheme(config);
  WasteWatchdog<Scheme> watchdog(scheme);
  for (int i = 0; i < 5000; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  const auto mid = scheme.stats_snapshot();
  EXPECT_GT(mid.scan_increments, 0u);
  EXPECT_TRUE(watchdog.ok())
      << "peak_retired " << watchdog.peak()
      << " exceeds the deamortized bound " << watchdog.bound();
  scheme.drain();
  const auto end = scheme.stats_snapshot();
  EXPECT_EQ(end.retires, end.reclaims + end.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
  oracle.expect_clean();
}

// Survivors need a deterministic pin, which is epoch-shaped: run EBR.
TEST(IncrementalScanEbrTest, SurvivorsCarryAcrossStepsUntilQuiescent) {
  using Scheme = mp::smr::EBR<TestNode>;
  Config config = mp::test::ds_config(2, 2, 8);
  config.scan_quantum = 4;
  Scheme scheme(config);
  scheme.start_op(1);  // pins the horizon: contemporaries must survive
  for (int i = 0; i < 64; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  const auto pinned = scheme.stats_snapshot();
  EXPECT_EQ(pinned.reclaims, 0u)
      << "every node was retired inside tid 1's operation";
  EXPECT_GT(pinned.scan_increments, 0u)
      << "passes must still run (and stay bounded) while pinned";
  EXPECT_GT(pinned.cursor_carryover, 0u);

  scheme.end_op(1);
  // Alloc ticks advance the epoch past the old reservation; subsequent
  // increments must now free the carried-over survivors.
  for (int i = 0; i < 1024; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(1000 + i)));
  }
  EXPECT_GT(scheme.stats_snapshot().reclaims, 0u);
  scheme.drain();
  const auto end = scheme.stats_snapshot();
  EXPECT_EQ(end.retires, end.reclaims + end.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
}

// ---- One engine at every quantum: same survivors in both arms ----

/// Keys of the nodes a scheme frees, recorded through Config::free_hook
/// (the background arm frees on the reclaimer thread, hence the mutex).
struct FreedKeys {
  std::mutex mutex;
  std::set<std::uint64_t> keys;

  static void hook(void* context, const void* node) {
    auto& self = *static_cast<FreedKeys*>(context);
    std::lock_guard<std::mutex> lock(self.mutex);
    self.keys.insert(static_cast<const TestNode*>(node)->key);
  }
  std::set<std::uint64_t> copy() {
    std::lock_guard<std::mutex> lock(mutex);
    return keys;
  }
};

constexpr std::uint64_t kEquivNodes = 32;
constexpr std::uint64_t kPinnedKeys[] = {16, 21, 26};

/// Retire keys [0, 16), move the epoch past them, open an operation on tid
/// 1 that pins three of keys [16, 32) (a hazard, or for epoch schemes the
/// open operation itself), retire those too, then let `settle` run passes.
/// Returns the keys freed by then — before teardown drains the rest.
template <typename Scheme, typename Settle>
std::set<std::uint64_t> freed_after(Config config, Settle settle) {
  FreedKeys freed;
  config.free_hook = &FreedKeys::hook;
  config.free_hook_context = &freed;
  Scheme scheme(config);
  std::vector<TestNode*> nodes;
  for (std::uint64_t key = 0; key < kEquivNodes; ++key) {
    nodes.push_back(scheme.alloc(0, key));
  }
  for (std::uint64_t key = 0; key < kEquivNodes / 2; ++key) {
    scheme.retire(0, nodes[key]);
  }
  scheme.chaos_advance_epoch(2);
  scheme.start_op(1);
  int slot = 0;
  for (const std::uint64_t key : kPinnedKeys) {
    scheme.pin(1, slot++, nodes[key]);
  }
  for (std::uint64_t key = kEquivNodes / 2; key < kEquivNodes; ++key) {
    scheme.retire(0, nodes[key]);
  }
  settle(scheme, freed);
  const std::set<std::uint64_t> result = freed.copy();
  scheme.end_op(1);
  return result;
}

template <typename Tag>
class EngineEquivalenceTest : public ::testing::Test {
 protected:
  using Scheme = typename Tag::type;

  static Config with_quantum(Config config, std::uint64_t quantum) {
    config.scan_quantum = quantum;
    return config;
  }

  /// Foreground: empty_freq exceeds the node count, so the only passes are
  /// `nudges` explicit scheduled increments on tid 0.
  static std::set<std::uint64_t> foreground(std::uint64_t quantum,
                                            int nudges) {
    return freed_after<Scheme>(
        with_quantum(mp::test::ds_config(2, 4, 2 * kEquivNodes), quantum),
        [nudges](Scheme& scheme, FreedKeys&) {
          for (int i = 0; i < nudges; ++i) scheme.reclaim_nudge(0);
        });
  }

  /// The quantum-0 foreground outcome, checked against the setup: every
  /// pre-operation node is freeable, no pinned node is.
  static std::set<std::uint64_t> reference() {
    const std::set<std::uint64_t> freed = foreground(0, 1);
    for (std::uint64_t key = 0; key < kEquivNodes / 2; ++key) {
      EXPECT_EQ(freed.count(key), 1u) << "unprotected key " << key;
    }
    for (const std::uint64_t key : kPinnedKeys) {
      EXPECT_EQ(freed.count(key), 0u) << "pinned key " << key;
    }
    return freed;
  }
};
TYPED_TEST_SUITE(EngineEquivalenceTest, mp::test::ReclaimingSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(EngineEquivalenceTest, ForegroundQuantumZeroAndFourFreeTheSame) {
  using Scheme = typename TestFixture::Scheme;
  if constexpr (Scheme::kSnapshotFree) {
    GTEST_SKIP() << "snapshot-free scheme: no engine pass to compare";
  } else {
    const auto reference = TestFixture::reference();
    // 32 nudges: a quantum-4 pass over 32 nodes completes within 8 steps;
    // later nudges rescan the survivors and must free nothing new.
    EXPECT_EQ(TestFixture::foreground(4, static_cast<int>(kEquivNodes)),
              reference);
  }
}

TYPED_TEST(EngineEquivalenceTest, BackgroundQuantumZeroAndFourFreeTheSame) {
  using Scheme = typename TestFixture::Scheme;
  if constexpr (Scheme::kSnapshotFree) {
    GTEST_SKIP() << "snapshot-free scheme: no engine pass to compare";
  } else {
    const auto reference = TestFixture::reference();
    // Background: empty_freq 16 offloads each half as one batch. A pass
    // may run on the reclaimer thread at any point, but every snapshot
    // taken after the second batch sees the pins, so the arm converges to
    // a fixed survivor set; force passes until it reaches the reference
    // (or time out), then force more to show it stays there.
    const auto settle = [&reference](Scheme& scheme, FreedKeys& freed) {
      for (int spin = 0; spin < 5000 && freed.copy() != reference; ++spin) {
        scheme.reclaim_sync();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (int i = 0; i < 4; ++i) scheme.reclaim_sync();
    };
    for (const std::uint64_t quantum : {0u, 4u}) {
      Config config = mp::test::ds_config(2, 4, kEquivNodes / 2);
      config.background_reclaim = true;
      config.reclaim_poll_ms = 3600 * 1000;
      EXPECT_EQ(freed_after<Scheme>(TestFixture::with_quantum(config, quantum),
                                    settle),
                reference)
          << "scan_quantum " << quantum;
    }
  }
}

// ---- Background arm: chunked passes at quantum boundaries ----

template <typename Tag>
class IncrementalScanReclaimerTest : public ::testing::Test {};
TYPED_TEST_SUITE(IncrementalScanReclaimerTest, mp::test::ReclaimingSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(IncrementalScanReclaimerTest, ChunkedBackgroundPassConserves) {
  using Scheme = typename TypeParam::type;
  if constexpr (Scheme::kSnapshotFree) {
    GTEST_SKIP() << "snapshot-free scheme: the bg pass has no snapshot to "
                    "chunk against";
  }
  Config config = mp::test::ds_config(2, 2, 8);
  config.background_reclaim = true;
  config.scan_quantum = 4;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Scheme scheme(config);
  WasteWatchdog<Scheme> watchdog(scheme);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&scheme, t] {
      for (int i = 0; i < 2000; ++i) {
        scheme.retire(t, scheme.alloc(t, static_cast<std::uint64_t>(i)));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_TRUE(watchdog.inflight_ok())
      << "peak in-flight must respect cap + T * per-thread bound";
  scheme.drain();
  EXPECT_EQ(scheme.reclaim_inflight(), 0u);
  const auto stats = scheme.stats_snapshot();
  EXPECT_GT(stats.offloaded, 0u) << "the bg arm must actually offload";
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
  oracle.expect_clean();
}

TEST(IncrementalScanEbrTest, BackgroundChunksCarrySurvivorsAcrossYields) {
  using Scheme = mp::smr::EBR<TestNode>;
  Config config = mp::test::ds_config(3, 1, 8);
  config.background_reclaim = true;
  config.scan_quantum = 4;
  // A very long poll: after the storm's producer kicks die down, the only
  // passes are the forced ones below, so the counters are deterministic.
  config.reclaim_poll_ms = 3600 * 1000;
  Scheme scheme(config);
  scheme.start_op(2);  // pin: the whole storm parks in the backlog
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&scheme, t] {
      for (int i = 0; i < 800; ++i) {
        scheme.retire(t, scheme.alloc(t, static_cast<std::uint64_t>(i)));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  scheme.reclaim_sync();  // chunked pass over a pinned backlog: all survive
  EXPECT_EQ(scheme.reclaim_inflight(), 2u * 800u)
      << "the pinned horizon must park the whole storm";
  const auto pinned = scheme.stats_snapshot();
  EXPECT_GT(pinned.scan_increments, 0u);
  EXPECT_GT(pinned.cursor_carryover, 0u)
      << "a pass yielding mid-backlog must report its remainder";

  scheme.end_op(2);
  // A leftover producer-kicked pass may still be chunking with the old
  // (pinned) snapshot; force_pass yields to it. Re-force until a pass with
  // a post-release snapshot has cleared the backlog.
  for (int spin = 0; spin < 1000 && scheme.reclaim_inflight() != 0; ++spin) {
    scheme.reclaim_sync();  // one pass, many quantum chunks, frees the lot
    if (scheme.reclaim_inflight() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(scheme.reclaim_inflight(), 0u);
  const auto after = scheme.stats_snapshot();
  EXPECT_GE(after.scan_increments - pinned.scan_increments,
            (2u * 800u) / config.scan_quantum)
      << "freeing N parked nodes takes at least N/quantum chunk steps";

  scheme.drain();
  const auto end = scheme.stats_snapshot();
  EXPECT_EQ(end.retires, end.reclaims + end.drained);
}

// ---- TSan regression: cursor steps racing detach()/adoption ----

TEST(IncrementalScanDetachTest, CursorStepsRaceDetachAndAdoption) {
  using Scheme = mp::smr::EBR<TestNode>;
  Config config = mp::test::ds_config(2, 1, 8);
  config.scan_quantum = 4;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Scheme scheme(config);
  // Thread A steps its cursor on every retire while thread B repeatedly
  // orphans its list mid-pass (detach resets B's cursor; A's scheduled
  // passes adopt B's orphans into a list A's cursor is indexing).
  std::thread stepper([&scheme] {
    for (int i = 0; i < 4000; ++i) {
      scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
    }
  });
  std::thread churner([&scheme] {
    for (int round = 0; round < 40; ++round) {
      for (int i = 0; i < 100; ++i) {
        scheme.retire(1, scheme.alloc(1, static_cast<std::uint64_t>(i)));
      }
      scheme.detach(1);  // own tid, quiescent: hands the list to orphans
    }
  });
  stepper.join();
  churner.join();
  scheme.drain();
  const auto stats = scheme.stats_snapshot();
  EXPECT_GT(stats.orphaned, 0u);
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  EXPECT_EQ(scheme.outstanding(), 0u);
  oracle.expect_clean();
}

// ---- Cursor under concurrent churn (torture) ----

TEST(IncrementalScanTortureTest, CursorSurvivesConcurrentChurn) {
  using List = mp::ds::MichaelList<mp::smr::EBR>;
  Config config = mp::test::ds_config(4, List::kRequiredSlots, 8);
  config.scan_quantum = 8;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  List list(config);
  WasteWatchdog<List::Scheme> watchdog(list.scheme());
  mp::test::concurrent_mix_check(list, 4, 4000, /*key_range=*/128,
                                 /*insert_pct=*/40, /*remove_pct=*/40);
  EXPECT_TRUE(watchdog.ok())
      << "peak_retired " << watchdog.peak()
      << " exceeds the deamortized bound " << watchdog.bound();
  EXPECT_TRUE(watchdog.inflight_ok());
  list.scheme().drain();
  const auto stats = list.scheme().stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  oracle.expect_clean();
}

TEST(IncrementalScanTortureTest, CursorSurvivesChurnWithBackgroundArm) {
  using Tree = mp::ds::NatarajanTree<mp::smr::EBR>;
  Config config = mp::test::ds_config(4, Tree::kRequiredSlots, 8);
  config.scan_quantum = 8;
  config.background_reclaim = true;
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Tree tree(config);
  WasteWatchdog<Tree::Scheme> watchdog(tree.scheme());
  mp::test::concurrent_mix_check(tree, 4, 4000, /*key_range=*/128,
                                 /*insert_pct=*/40, /*remove_pct=*/40);
  EXPECT_TRUE(watchdog.inflight_ok());
  tree.scheme().drain();
  EXPECT_EQ(tree.scheme().reclaim_inflight(), 0u);
  const auto stats = tree.scheme().stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims + stats.drained);
  oracle.expect_clean();
}

// ---- get_many: batched reads under one protection bracket ----

/// Prefill `ds` with key -> key * 7 + 1 for keys not divisible by 3, then
/// compare get_many against per-key get over batches mixing hits, misses,
/// and duplicates.
template <typename DS>
void expect_get_many_matches_singles(DS& ds) {
  for (std::uint64_t key = 1; key <= 200; ++key) {
    if (key % 3 != 0) {
      ASSERT_TRUE(ds.insert(ds.scheme().handle(0), key, key * 7 + 1));
    }
  }
  constexpr std::size_t kBatch = 16;
  std::uint64_t keys[kBatch];
  std::uint64_t values[kBatch];
  bool found[kBatch];
  mp::common::Xoshiro256 rng(0x6E7);
  for (int round = 0; round < 64; ++round) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      // ~1/6 of probes land past the populated range; duplicates happen.
      keys[j] = 1 + rng.next_below(240);
      values[j] = 0;
    }
    const std::size_t hits = ds.get_many(ds.scheme().handle(0),
                                         keys, kBatch, values, found);
    std::size_t expected_hits = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      std::uint64_t single = 0;
      const bool present = ds.get(ds.scheme().handle(0), keys[j], single);
      ASSERT_EQ(found[j], present) << "key " << keys[j];
      if (present) {
        ASSERT_EQ(values[j], single) << "key " << keys[j];
        ASSERT_EQ(values[j], keys[j] * 7 + 1);
        ++expected_hits;
      }
    }
    ASSERT_EQ(hits, expected_hits);
  }
  // The handle overload is the same call with the tid pre-bound.
  const std::size_t hits = ds.get_many(ds.scheme().handle(0), keys, kBatch,
                                       values, found);
  std::size_t expected = 0;
  for (std::size_t j = 0; j < kBatch; ++j) {
    expected += keys[j] <= 200 && keys[j] % 3 != 0;
  }
  EXPECT_EQ(hits, expected);
}

TEST(GetManyTest, MatchesSinglesOnMichaelList) {
  using List = mp::ds::MichaelList<mp::smr::EBR>;
  List list(mp::test::ds_config(1, List::kRequiredSlots));
  expect_get_many_matches_singles(list);
}

TEST(GetManyTest, MatchesSinglesOnMichaelHashSet) {
  using Set = mp::ds::MichaelHashSet<mp::smr::EBR>;
  Set set(mp::test::ds_config(1, Set::kRequiredSlots), /*buckets=*/32);
  expect_get_many_matches_singles(set);
}

TEST(GetManyTest, MatchesSinglesOnFraserSkipList) {
  using SkipList = mp::ds::FraserSkipList<mp::smr::EBR>;
  SkipList skiplist(mp::test::ds_config(1, SkipList::kRequiredSlots));
  expect_get_many_matches_singles(skiplist);
}

TEST(GetManyTest, MatchesSinglesOnNatarajanTree) {
  using Tree = mp::ds::NatarajanTree<mp::smr::EBR>;
  Tree tree(mp::test::ds_config(1, Tree::kRequiredSlots));
  expect_get_many_matches_singles(tree);
}

TEST(GetManyChurnTest, OracleCleanUnderConcurrentRemoves) {
  using Set = mp::ds::MichaelHashSet<mp::smr::EBR>;
  Config config = mp::test::ds_config(2, Set::kRequiredSlots, 8);
  config.scan_quantum = 8;  // batched reads under the deamortized cursor
  mp::test::OracleAttachment oracle;
  oracle.attach(config);
  Set set(config, /*buckets=*/32);
  constexpr std::uint64_t kRange = 256;
  for (std::uint64_t key = 1; key <= kRange; ++key) {
    ASSERT_TRUE(set.insert(set.scheme().handle(0), key, key * 2 + 1));
  }
  std::thread writer([&set] {
    mp::common::Xoshiro256 rng(0x57);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = 1 + rng.next_below(kRange);
      if (i % 2 == 0) {
        set.remove(set.scheme().handle(1), key);
      } else {
        set.insert(set.scheme().handle(1), key, key * 2 + 1);
      }
    }
  });
  constexpr std::size_t kBatch = 16;
  std::uint64_t keys[kBatch];
  std::uint64_t values[kBatch];
  bool found[kBatch];
  mp::common::Xoshiro256 rng(0x9D);
  for (int round = 0; round < 2000; ++round) {
    for (std::size_t j = 0; j < kBatch; ++j) keys[j] = 1 + rng.next_below(kRange);
    set.get_many(set.scheme().handle(0), keys, kBatch, values, found);
    for (std::size_t j = 0; j < kBatch; ++j) {
      if (found[j]) {
        // Values are a pure function of the key, so a hit must never
        // observe a torn or reclaimed node.
        ASSERT_EQ(values[j], keys[j] * 2 + 1) << "key " << keys[j];
      }
    }
  }
  writer.join();
  oracle.expect_clean();
}

// ---- Service routing: Client::submit_multi_get ----

using HashMap = mp::svc::ShardedMap<mp::ds::MichaelHashSet<mp::smr::EBR>>;
using mp::svc::Completion;
using mp::svc::OpType;
using mp::svc::Request;

HashMap make_map(std::size_t shards) {
  mp::smr::Config config;
  config.max_threads = 1;
  config.slots_per_thread =
      mp::ds::MichaelHashSet<mp::smr::EBR>::kRequiredSlots;
  return HashMap(shards, config, /*buckets=*/64);
}

TEST(GetManyServiceTest, SubmitMultiGetCompletesEveryKey) {
  auto map = make_map(4);
  auto client = map.client(0);
  for (std::uint64_t key = 1; key <= 20; ++key) {
    Request request;
    request.op = OpType::kInsert;
    request.key = key;
    request.value = key * 7;
    ASSERT_TRUE(client.submit(request).has_value());
  }
  client.flush();
  Completion done;
  while (client.try_complete(done)) {
    ASSERT_TRUE(done.ok);
  }

  // 8 present keys and 4 absent ones, spread across all shards, one call.
  std::vector<std::uint64_t> keys = {1, 2, 3, 4, 5, 6, 7, 8,
                                     100, 101, 102, 103};
  const auto first = client.submit_multi_get(keys.data(), keys.size(),
                                             /*user=*/42);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(client.in_flight(), keys.size());
  client.flush();

  std::set<std::uint64_t> tickets;
  std::size_t harvested = 0;
  std::size_t hits = 0;
  while (client.try_complete(done)) {
    ++harvested;
    EXPECT_TRUE(tickets.insert(done.ticket).second);
    EXPECT_EQ(done.op, OpType::kGet);
    EXPECT_EQ(done.user, 42u);
    if (done.key <= 20) {
      EXPECT_TRUE(done.ok) << "key " << done.key;
      EXPECT_EQ(done.status, Completion::Status::kOk);
      EXPECT_EQ(done.value, done.key * 7);
      ++hits;
    } else {
      EXPECT_FALSE(done.ok) << "key " << done.key;
      EXPECT_EQ(done.status, Completion::Status::kNotFound);
    }
  }
  EXPECT_EQ(harvested, keys.size()) << "one completion per submitted key";
  EXPECT_EQ(hits, 8u);
  // The batch holds consecutive tickets starting at the returned one.
  EXPECT_EQ(*tickets.begin(), *first);
  EXPECT_EQ(*tickets.rbegin(), *first + keys.size() - 1);
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(GetManyServiceTest, SubmitMultiGetIsAllOrNothingOnRingSpace) {
  auto map = make_map(2);
  auto client = map.client(0, /*batch_limit=*/64, /*ring_capacity=*/8);
  std::uint64_t keys[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  // 9 completions cannot fit an 8-slot ring: the whole call must bounce
  // before any key is enqueued.
  EXPECT_FALSE(client.submit_multi_get(keys, 9).has_value());
  EXPECT_EQ(client.in_flight(), 0u);
  // Exactly ring-many keys are fine.
  ASSERT_TRUE(client.submit_multi_get(keys, 8).has_value());
  EXPECT_EQ(client.in_flight(), 8u);
  client.flush();
  Completion done;
  std::size_t harvested = 0;
  while (client.try_complete(done)) ++harvested;
  EXPECT_EQ(harvested, 8u);
  // Zero keys is a no-op, not a ticket.
  EXPECT_FALSE(client.submit_multi_get(keys, 0).has_value());
}

}  // namespace
