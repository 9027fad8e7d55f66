// Michael hash-set tests: bucket semantics, index striping for MP, and
// concurrent correctness across schemes.
#include <gtest/gtest.h>

#include "ds/michael_hashset.hpp"
#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::test::ds_config;

template <typename Tag>
class HashSetTest : public ::testing::Test {
 protected:
  using Set = mp::ds::MichaelHashSet<Tag::template scheme>;

  Set make(std::size_t buckets = 64) {
    return Set(ds_config(8, Set::kRequiredSlots, 4), buckets);
  }
};

TYPED_TEST_SUITE(HashSetTest, mp::test::AllSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(HashSetTest, EmptyBehaviour) {
  auto set = this->make();
  EXPECT_FALSE(set.contains(set.scheme().handle(0), 10));
  EXPECT_FALSE(set.remove(set.scheme().handle(0), 10));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.validate());
}

TYPED_TEST(HashSetTest, BucketCountRoundsToPowerOfTwo) {
  auto set = this->make(48);
  EXPECT_EQ(set.bucket_count(), 64u);
}

TYPED_TEST(HashSetTest, InsertContainsRemove) {
  auto set = this->make();
  EXPECT_TRUE(set.insert(set.scheme().handle(0), 5, 50));
  EXPECT_FALSE(set.insert(set.scheme().handle(0), 5, 51));
  EXPECT_TRUE(set.contains(set.scheme().handle(0), 5));
  EXPECT_FALSE(set.contains(set.scheme().handle(0), 6));
  std::uint64_t value = 0;
  EXPECT_TRUE(set.get(set.scheme().handle(0), 5, value));
  EXPECT_EQ(value, 50u);
  EXPECT_TRUE(set.remove(set.scheme().handle(0), 5));
  EXPECT_FALSE(set.remove(set.scheme().handle(0), 5));
}

TYPED_TEST(HashSetTest, ManyKeysSpreadAcrossBuckets) {
  auto set = this->make(16);
  for (std::uint64_t key = 1; key <= 2000; ++key) {
    ASSERT_TRUE(set.insert(set.scheme().handle(0), key, key));
  }
  EXPECT_EQ(set.size(), 2000u);
  EXPECT_TRUE(set.validate()) << "per-bucket order and hash placement";
  for (std::uint64_t key = 2; key <= 2000; key += 2) {
    ASSERT_TRUE(set.remove(set.scheme().handle(0), key));
  }
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_TRUE(set.validate());
}

TYPED_TEST(HashSetTest, ConcurrentMixedWorkload) {
  auto set = this->make(64);
  mp::test::concurrent_mix_check(set, 8, 4000, 1024, 50, 50);
}

TYPED_TEST(HashSetTest, ConcurrentDisjointStripes) {
  auto set = this->make(32);
  mp::test::disjoint_stripes_check(set, 8, 128);
}

// MP-specific: index striping keeps node indices strictly increasing
// inside each bucket's stripe, so linked indices stay globally unique.
TEST(HashSetMp, StripedIndicesStayInBucketRange) {
  using Set = mp::ds::MichaelHashSet<mp::smr::MP>;
  Set set(ds_config(2, Set::kRequiredSlots), 4);
  // Spread the arrival order (ascending arrival per bucket is the known
  // worst case for midpoint indices — covered by MpCollisions tests).
  mp::common::Xoshiro256 rng(11);
  std::size_t inserted = 0;
  while (inserted < 400) {
    inserted += set.insert(set.scheme().handle(0),
                           1 + rng.next_below(1u << 24), 1);
  }
  EXPECT_TRUE(set.validate());
  EXPECT_TRUE(set.validate_indices());
  // Fallback rate should not be total: most inserts land a real midpoint
  // inside the stripe.
  const auto snapshot = set.scheme().stats_snapshot();
  EXPECT_LT(snapshot.index_collisions, snapshot.allocs / 2);
}

TEST(HashSetMp, WasteBoundedUnderChurn) {
  using Set = mp::ds::MichaelHashSet<mp::smr::MP>;
  auto config = ds_config(2, Set::kRequiredSlots, 1);
  Set set(config, 16);
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t key = 1; key <= 200; ++key) {
      set.insert(set.scheme().handle(0), key, key);
    }
    for (std::uint64_t key = 1; key <= 200; ++key) {
      set.remove(set.scheme().handle(0), key);
    }
  }
  EXPECT_LE(set.scheme().outstanding(), 2u * 16u + 40u)
      << "sentinels plus a small buffer; churn must not accumulate";
}

}  // namespace
