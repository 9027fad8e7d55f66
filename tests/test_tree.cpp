// Natarajan–Mittal BST semantics across every SMR scheme, routing
// invariants, and randomized reference-model property tests.
#include <gtest/gtest.h>

#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::test::ds_config;

template <typename Tag>
class TreeTest : public ::testing::Test {
 protected:
  using Tree = mp::ds::NatarajanTree<Tag::template scheme>;

  Config config() const { return ds_config(4, Tree::kRequiredSlots); }
};

TYPED_TEST_SUITE(TreeTest, mp::test::AllSchemeTags, mp::test::SchemeTagNames);

TYPED_TEST(TreeTest, EmptyBehaviour) {
  typename TestFixture::Tree tree(this->config());
  EXPECT_FALSE(tree.contains(tree.scheme().handle(0), 10));
  EXPECT_FALSE(tree.remove(tree.scheme().handle(0), 10));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.validate());
}

TYPED_TEST(TreeTest, InsertContainsRemove) {
  typename TestFixture::Tree tree(this->config());
  EXPECT_TRUE(tree.insert(tree.scheme().handle(0), 5, 50));
  EXPECT_FALSE(tree.insert(tree.scheme().handle(0), 5, 51));
  EXPECT_TRUE(tree.contains(tree.scheme().handle(0), 5));
  EXPECT_FALSE(tree.contains(tree.scheme().handle(0), 4));
  EXPECT_TRUE(tree.remove(tree.scheme().handle(0), 5));
  EXPECT_FALSE(tree.remove(tree.scheme().handle(0), 5));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.validate()) << "tree restored to initial shape";
}

TYPED_TEST(TreeTest, RoutingInvariantUnderAscendingInserts) {
  typename TestFixture::Tree tree(this->config());
  for (std::uint64_t key = 1; key <= 400; ++key) {
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), key, key));
  }
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.size(), 400u);
}

TYPED_TEST(TreeTest, RoutingInvariantUnderDescendingInserts) {
  typename TestFixture::Tree tree(this->config());
  for (std::uint64_t key = 400; key >= 1; --key) {
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), key, key));
  }
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.size(), 400u);
}

TYPED_TEST(TreeTest, DeleteEveryOtherKey) {
  typename TestFixture::Tree tree(this->config());
  for (std::uint64_t key = 1; key <= 300; ++key) {
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), key, key));
  }
  for (std::uint64_t key = 2; key <= 300; key += 2) {
    ASSERT_TRUE(tree.remove(tree.scheme().handle(0), key));
  }
  EXPECT_TRUE(tree.validate());
  for (std::uint64_t key = 1; key <= 300; ++key) {
    ASSERT_EQ(tree.contains(tree.scheme().handle(0), key), key % 2 == 1) << key;
  }
}

TYPED_TEST(TreeTest, DrainToEmptyAndRebuild) {
  typename TestFixture::Tree tree(this->config());
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t key = 1; key <= 100; ++key) {
      ASSERT_TRUE(tree.insert(tree.scheme().handle(0), key * 7, key));
    }
    for (std::uint64_t key = 1; key <= 100; ++key) {
      ASSERT_TRUE(tree.remove(tree.scheme().handle(0), key * 7));
    }
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_TRUE(tree.validate());
  }
}

TYPED_TEST(TreeTest, GetReturnsStoredValue) {
  typename TestFixture::Tree tree(this->config());
  tree.insert(tree.scheme().handle(0), 8, 800);
  std::uint64_t value = 0;
  EXPECT_TRUE(tree.get(tree.scheme().handle(0), 8, value));
  EXPECT_EQ(value, 800u);
  EXPECT_FALSE(tree.get(tree.scheme().handle(0), 9, value));
}

TYPED_TEST(TreeTest, LargestClientKey) {
  using Tree = typename TestFixture::Tree;
  Tree tree(this->config());
  const std::uint64_t top = Tree::kInf0 - 1;
  EXPECT_TRUE(tree.insert(tree.scheme().handle(0), top, 1));
  EXPECT_TRUE(tree.contains(tree.scheme().handle(0), top));
  EXPECT_TRUE(tree.remove(tree.scheme().handle(0), top));
  EXPECT_TRUE(tree.validate());
}

TYPED_TEST(TreeTest, KeyZeroSupported) {
  typename TestFixture::Tree tree(this->config());
  EXPECT_TRUE(tree.insert(tree.scheme().handle(0), 0, 1));
  EXPECT_TRUE(tree.contains(tree.scheme().handle(0), 0));
  EXPECT_TRUE(tree.insert(tree.scheme().handle(0), 1, 2));
  EXPECT_TRUE(tree.remove(tree.scheme().handle(0), 0));
  EXPECT_TRUE(tree.contains(tree.scheme().handle(0), 1));
  EXPECT_TRUE(tree.validate());
}

TYPED_TEST(TreeTest, ReferenceModelAgreement) {
  typename TestFixture::Tree tree(this->config());
  mp::test::reference_model_check(tree, /*seed=*/0xFACADE, /*ops=*/4000,
                                  /*key_range=*/256);
}

// Seed sweep on the MP-backed tree.
class TreePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreePropertyTest, AgreesWithStdSet) {
  mp::ds::NatarajanTree<mp::smr::MP> tree(
      ds_config(2, mp::ds::NatarajanTree<mp::smr::MP>::kRequiredSlots));
  mp::test::reference_model_check(tree, GetParam(), 3000, 512);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Values(3, 9, 27, 81, 243, 729, 2187));

}  // namespace
