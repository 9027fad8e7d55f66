// Fraser skip-list semantics across every SMR scheme, tower invariants,
// and randomized reference-model property tests.
#include <gtest/gtest.h>

#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::test::ds_config;

template <typename Tag>
class SkipListTest : public ::testing::Test {
 protected:
  using SkipList = mp::ds::FraserSkipList<Tag::template scheme>;

  Config config() const { return ds_config(4, SkipList::kRequiredSlots); }
};

TYPED_TEST_SUITE(SkipListTest, mp::test::AllSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(SkipListTest, EmptyBehaviour) {
  typename TestFixture::SkipList sl(this->config());
  EXPECT_FALSE(sl.contains(sl.scheme().handle(0), 10));
  EXPECT_FALSE(sl.remove(sl.scheme().handle(0), 10));
  EXPECT_EQ(sl.size(), 0u);
  EXPECT_TRUE(sl.validate());
}

TYPED_TEST(SkipListTest, InsertContainsRemove) {
  typename TestFixture::SkipList sl(this->config());
  EXPECT_TRUE(sl.insert(sl.scheme().handle(0), 5, 50));
  EXPECT_FALSE(sl.insert(sl.scheme().handle(0), 5, 51));
  EXPECT_TRUE(sl.contains(sl.scheme().handle(0), 5));
  EXPECT_FALSE(sl.contains(sl.scheme().handle(0), 6));
  EXPECT_TRUE(sl.remove(sl.scheme().handle(0), 5));
  EXPECT_FALSE(sl.remove(sl.scheme().handle(0), 5));
  EXPECT_EQ(sl.size(), 0u);
}

TYPED_TEST(SkipListTest, TowersStayContained) {
  typename TestFixture::SkipList sl(this->config());
  // Enough inserts to create multi-level towers with high probability.
  for (std::uint64_t key = 1; key <= 500; ++key) {
    ASSERT_TRUE(sl.insert(sl.scheme().handle(0), key * 3, key));
  }
  EXPECT_TRUE(sl.validate()) << "per-level order + containment";
  for (std::uint64_t key = 1; key <= 500; key += 2) {
    ASSERT_TRUE(sl.remove(sl.scheme().handle(0), key * 3));
  }
  EXPECT_TRUE(sl.validate()) << "invariants survive deletions";
  EXPECT_EQ(sl.size(), 250u);
}

TYPED_TEST(SkipListTest, GetReturnsStoredValue) {
  typename TestFixture::SkipList sl(this->config());
  sl.insert(sl.scheme().handle(0), 11, 1100);
  std::uint64_t value = 0;
  EXPECT_TRUE(sl.get(sl.scheme().handle(0), 11, value));
  EXPECT_EQ(value, 1100u);
  EXPECT_FALSE(sl.get(sl.scheme().handle(0), 12, value));
}

TYPED_TEST(SkipListTest, ReinsertCycles) {
  typename TestFixture::SkipList sl(this->config());
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(sl.insert(sl.scheme().handle(0),
                          99, static_cast<std::uint64_t>(round)));
    ASSERT_TRUE(sl.remove(sl.scheme().handle(0), 99));
  }
  EXPECT_EQ(sl.size(), 0u);
  EXPECT_TRUE(sl.validate());
}

TYPED_TEST(SkipListTest, DescendingInsertOrder) {
  typename TestFixture::SkipList sl(this->config());
  for (std::uint64_t key = 400; key >= 1; --key) {
    ASSERT_TRUE(sl.insert(sl.scheme().handle(0), key, key));
  }
  EXPECT_EQ(sl.size(), 400u);
  EXPECT_TRUE(sl.validate());
  const auto keys = sl.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TYPED_TEST(SkipListTest, ReferenceModelAgreement) {
  typename TestFixture::SkipList sl(this->config());
  mp::test::reference_model_check(sl, /*seed=*/0xBEEF, /*ops=*/4000,
                                  /*key_range=*/256);
}

TYPED_TEST(SkipListTest, ExtremeClientKeys) {
  using SkipList = typename TestFixture::SkipList;
  SkipList sl(this->config());
  EXPECT_TRUE(sl.insert(sl.scheme().handle(0), SkipList::kMinKey + 1, 1));
  EXPECT_TRUE(sl.insert(sl.scheme().handle(0), SkipList::kMaxKey - 1, 2));
  EXPECT_TRUE(sl.contains(sl.scheme().handle(0), SkipList::kMinKey + 1));
  EXPECT_TRUE(sl.contains(sl.scheme().handle(0), SkipList::kMaxKey - 1));
}

// Seed sweep on the MP-backed skip list.
class SkipListPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkipListPropertyTest, AgreesWithStdSet) {
  mp::ds::FraserSkipList<mp::smr::MP> sl(
      ds_config(2, mp::ds::FraserSkipList<mp::smr::MP>::kRequiredSlots));
  mp::test::reference_model_check(sl, GetParam(), 3000, 512);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipListPropertyTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

}  // namespace
