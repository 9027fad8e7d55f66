// Tests for MP behavior beyond the unit protocol: the allocation epoch
// window a stalled margin pins (the Theorem 4.2 term §4.4 proposes to
// shrink), index uniqueness and order in every client structure, and the
// index-collision statistic behind the §4.6 analysis.
#include <gtest/gtest.h>

#include "ds/michael_hashset.hpp"
#include "ds/michael_list.hpp"
#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::AtomicTaggedPtr;
using mp::smr::Config;
using mp::smr::kUseHp;
using mp::smr::TaggedPtr;
using mp::test::TestNode;
using MP = mp::smr::MP<TestNode>;

Config base_config() {
  Config config;
  config.max_threads = 2;
  config.slots_per_thread = 4;
  config.empty_freq = 1;
  config.epoch_freq = 1 << 20;  // effectively never
  return config;
}

// ---- The epoch window (§4.4) ----

TEST(MpUnlinkEpoch, DefaultModePinsEpochWindow) {
  // Allocation-based epochs with a large freq pin the whole churn (all
  // born in the stalled epoch): the epoch_freq*T term of Theorem 4.2.
  Config config = base_config();  // epoch_freq = 2^20: never advances here
  MP scheme(config);
  TestNode* anchor = scheme.alloc(0, 0u);
  scheme.set_index(anchor, 1u << 24);
  AtomicTaggedPtr cell(scheme.make_link(anchor));
  scheme.start_op(1);
  scheme.read(1, 0, cell);
  for (int i = 0; i < 5000; ++i) {
    TestNode* node = scheme.alloc(0, 0u);
    scheme.set_index(node, (1u << 24) + 1);
    scheme.retire(0, node);
  }
  EXPECT_EQ(scheme.outstanding() - 1, 5000u)
      << "same-epoch covered nodes all stay pinned";
  scheme.end_op(1);
  scheme.delete_unlinked(0, anchor);
}

// ---- Index uniqueness / order consistency (Theorem 4.2's invariant) ----

TEST(MpIndexInvariant, MidpointKeepsLinkedIndicesUniqueAndOrdered) {
  mp::ds::MichaelList<mp::smr::MP> list(mp::test::ds_config(2, 4, 8));
  mp::common::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = 1 + rng.next_below(1u << 16);
    if (rng.next() % 3 == 0) {
      list.remove(list.scheme().handle(0), key);
    } else {
      list.insert(list.scheme().handle(0), key, key);
    }
  }
  EXPECT_TRUE(list.validate());
  EXPECT_TRUE(list.validate_indices());
}

TEST(MpIndexInvariant, SkipListIndicesUniqueAndOrdered) {
  using SL = mp::ds::FraserSkipList<mp::smr::MP>;
  SL sl(mp::test::ds_config(2, SL::kRequiredSlots, 8));
  mp::common::Xoshiro256 rng(21);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t key = 1 + rng.next_below(1u << 18);
    if (rng.next() % 3 == 0) {
      sl.remove(sl.scheme().handle(0), key);
    } else {
      sl.insert(sl.scheme().handle(0), key, key);
    }
  }
  EXPECT_TRUE(sl.validate());
  EXPECT_TRUE(sl.validate_indices());
}

TEST(MpIndexInvariant, TreeLeafIndicesUniqueAndOrdered) {
  using Tree = mp::ds::NatarajanTree<mp::smr::MP>;
  Tree tree(mp::test::ds_config(2, Tree::kRequiredSlots, 8));
  mp::common::Xoshiro256 rng(22);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t key = 1 + rng.next_below(1u << 18);
    if (rng.next() % 3 == 0) {
      tree.remove(tree.scheme().handle(0), key);
    } else {
      tree.insert(tree.scheme().handle(0), key, key);
    }
  }
  EXPECT_TRUE(tree.validate());
  EXPECT_TRUE(tree.validate_indices());
}

TEST(MpIndexInvariant, ConcurrentChurnPreservesListIndexOrder) {
  mp::ds::MichaelList<mp::smr::MP> list(mp::test::ds_config(8, 4, 4));
  mp::test::concurrent_mix_check(list, 8, 3000, 512, 50, 50);
  EXPECT_TRUE(list.validate_indices());
}

TEST(MpIndexInvariant, ConcurrentChurnPreservesHashSetIndexOrder) {
  using Set = mp::ds::MichaelHashSet<mp::smr::MP>;
  Set set(mp::test::ds_config(8, Set::kRequiredSlots, 4), 16);
  mp::test::concurrent_mix_check(set, 8, 4000, 1024, 50, 50);
  EXPECT_TRUE(set.validate_indices());
}

TEST(MpIndexInvariant, ConcurrentChurnPreservesSkipListIndexOrder) {
  // Regression: a skip-list insert once reused its node (and stale index)
  // across bottom-level CAS retries.
  using SL = mp::ds::FraserSkipList<mp::smr::MP>;
  SL sl(mp::test::ds_config(8, SL::kRequiredSlots, 4));
  mp::test::concurrent_mix_check(sl, 8, 4000, 256, 50, 50);
  EXPECT_TRUE(sl.validate_indices());
}

TEST(MpIndexInvariant, ConcurrentChurnPreservesTreeIndexOrder) {
  using Tree = mp::ds::NatarajanTree<mp::smr::MP>;
  Tree tree(mp::test::ds_config(8, Tree::kRequiredSlots, 4));
  mp::test::concurrent_mix_check(tree, 8, 4000, 256, 50, 50);
  EXPECT_TRUE(tree.validate_indices());
}

// ---- Collision statistics (§4.6 analysis plumbing) ----

TEST(MpCollisions, UniformInsertsRarelyCollide) {
  Config config = mp::test::ds_config(2, 4, 8);
  mp::ds::MichaelList<mp::smr::MP> list(config);
  mp::common::Xoshiro256 rng(5);
  std::size_t inserted = 0;
  while (inserted < 1000) {
    inserted += list.insert(list.scheme().handle(0),
                            1 + rng.next_below(1u << 30), 1);
  }
  const auto snapshot = list.scheme().stats_snapshot();
  EXPECT_LT(snapshot.index_collisions, snapshot.allocs / 10)
      << "uniform keys leave plenty of index room";
}

TEST(MpCollisions, AscendingInsertsMostlyCollide) {
  // The Fig 7a worst case: each insert halves the remaining range, so all
  // but ~32 nodes get USE_HP.
  Config config = mp::test::ds_config(2, 4, 8);
  mp::ds::MichaelList<mp::smr::MP> list(config);
  for (std::uint64_t key = 1; key <= 500; ++key) {
    list.insert(list.scheme().handle(0), key, key);
  }
  const auto snapshot = list.scheme().stats_snapshot();
  EXPECT_GT(snapshot.index_collisions, 400u);
  // And the read side degrades to hazard pointers, not to unsafety.
  for (std::uint64_t key = 1; key <= 500; ++key) {
    ASSERT_TRUE(list.contains(list.scheme().handle(0), key));
  }
  const auto after = list.scheme().stats_snapshot();
  EXPECT_GT(after.hp_fallbacks, 0u);
}

}  // namespace
