// COW AVL tree tests: balance invariants under rotations, index
// preservation across copies (the thesis §4.4.5 property), snapshot-reader
// correctness, and reader/writer concurrency.
#include <gtest/gtest.h>

#include <thread>

#include "ds/cow_avl_tree.hpp"
#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::test::ds_config;

template <typename Tag>
class AvlTest : public ::testing::Test {
 protected:
  using Tree = mp::ds::CowAvlTree<Tag::template scheme>;

  Tree make(int empty_freq = 8) {
    return Tree(ds_config(8, Tree::kRequiredSlots, empty_freq));
  }
};

TYPED_TEST_SUITE(AvlTest, mp::test::AllSchemeTags, mp::test::SchemeTagNames);

TYPED_TEST(AvlTest, EmptyBehaviour) {
  auto tree = this->make();
  EXPECT_FALSE(tree.contains(tree.scheme().handle(0), 1));
  EXPECT_FALSE(tree.remove(tree.scheme().handle(0), 1));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.validate());
}

TYPED_TEST(AvlTest, InsertContainsRemove) {
  auto tree = this->make();
  EXPECT_TRUE(tree.insert(tree.scheme().handle(0), 5, 50));
  EXPECT_FALSE(tree.insert(tree.scheme().handle(0), 5, 51));
  EXPECT_TRUE(tree.contains(tree.scheme().handle(0), 5));
  std::uint64_t value = 0;
  EXPECT_TRUE(tree.get(tree.scheme().handle(0), 5, value));
  EXPECT_EQ(value, 50u);
  EXPECT_TRUE(tree.remove(tree.scheme().handle(0), 5));
  EXPECT_FALSE(tree.remove(tree.scheme().handle(0), 5));
  EXPECT_EQ(tree.size(), 0u);
}

TYPED_TEST(AvlTest, AscendingInsertsStayBalanced) {
  // Ascending inserts force a rotation at nearly every step; the validate()
  // checks AVL balance, order, and height bookkeeping.
  auto tree = this->make();
  for (std::uint64_t key = 1; key <= 512; ++key) {
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), key, key));
    ASSERT_TRUE(tree.validate()) << "after inserting " << key;
  }
  EXPECT_EQ(tree.size(), 512u);
}

TYPED_TEST(AvlTest, DescendingInsertsStayBalanced) {
  auto tree = this->make();
  for (std::uint64_t key = 512; key >= 1; --key) {
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), key, key));
  }
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.size(), 512u);
}

TYPED_TEST(AvlTest, ZigZagInsertsTriggerDoubleRotations) {
  auto tree = this->make();
  // Interleave from both ends toward the middle: lots of LR/RL cases.
  std::uint64_t lo = 1, hi = 1000;
  while (lo < hi) {
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), hi, hi));
    ASSERT_TRUE(tree.insert(tree.scheme().handle(0), lo, lo));
    ASSERT_TRUE(tree.validate());
    ++lo;
    --hi;
  }
  EXPECT_TRUE(tree.validate());
}

TYPED_TEST(AvlTest, RemovalsRebalance) {
  auto tree = this->make();
  for (std::uint64_t key = 1; key <= 300; ++key) {
    tree.insert(tree.scheme().handle(0), key, key);
  }
  for (std::uint64_t key = 1; key <= 300; key += 3) {
    ASSERT_TRUE(tree.remove(tree.scheme().handle(0), key));
    ASSERT_TRUE(tree.validate()) << "after removing " << key;
  }
  EXPECT_EQ(tree.size(), 200u);
}

TYPED_TEST(AvlTest, RemoveRootWithTwoChildren) {
  auto tree = this->make();
  for (std::uint64_t key : {50, 30, 70, 20, 40, 60, 80}) {
    tree.insert(tree.scheme().handle(0), key, key);
  }
  // The root; its successor is 60.
  EXPECT_TRUE(tree.remove(tree.scheme().handle(0), 50));
  EXPECT_TRUE(tree.validate());
  EXPECT_FALSE(tree.contains(tree.scheme().handle(0), 50));
  for (std::uint64_t key : {30, 70, 20, 40, 60, 80}) {
    EXPECT_TRUE(tree.contains(tree.scheme().handle(0), key));
  }
}

TYPED_TEST(AvlTest, ReferenceModelAgreement) {
  auto tree = this->make();
  mp::test::reference_model_check(tree, 0xA71, 2000, 128);
}

TYPED_TEST(AvlTest, ConcurrentReadersDuringWrites) {
  auto tree = this->make(4);
  for (std::uint64_t key = 2; key <= 2000; key += 2) {
    tree.insert(tree.scheme().handle(0), key, key);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> found{0}, looked{0};
  std::vector<std::thread> readers;
  for (int r = 1; r <= 4; ++r) {
    readers.emplace_back([&, r] {
      mp::common::Xoshiro256 rng(r);
      std::uint64_t local_found = 0, local_looked = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.next_below(2000);
        local_found += tree.contains(tree.scheme().handle(r), key);
        ++local_looked;
      }
      found.fetch_add(local_found);
      looked.fetch_add(local_looked);
    });
  }
  // Writer churns while readers run.
  std::thread writer([&] {
    mp::common::Xoshiro256 rng(99);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = 1 + rng.next_below(2000);
      if (rng.next() % 2 == 0) {
        tree.insert(tree.scheme().handle(5), key, key);
      } else {
        tree.remove(tree.scheme().handle(5), key);
      }
    }
    stop.store(true);
  });
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_TRUE(tree.validate());
  EXPECT_GT(looked.load(), 0u);
  // Odd keys were only ever inserted by the churner; evens dominate, so
  // readers should have found plenty.
  EXPECT_GT(found.load(), looked.load() / 8);
}

TYPED_TEST(AvlTest, WriterChurnReclaimsCopies) {
  using Scheme = typename TestFixture::Tree::Scheme;
  auto config = ds_config(8, TestFixture::Tree::kRequiredSlots, 2);
  config.epoch_freq = 32;  // tight epoch window for the epoch-based schemes
  typename TestFixture::Tree tree(config);
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t key = 1; key <= 100; ++key) {
      tree.insert(tree.scheme().handle(0), key, key);
    }
    for (std::uint64_t key = 1; key <= 100; ++key) {
      tree.remove(tree.scheme().handle(0), key);
    }
  }
  // Path copying allocates heavily; with no concurrent readers, nearly all
  // of it must have been reclaimed (except under the leaky baseline).
  const auto allocated = tree.scheme().total_allocated();
  EXPECT_GT(allocated, 5000u);
  if constexpr (std::is_same_v<Scheme,
                               mp::smr::Leaky<typename Scheme::node_type>>) {
    EXPECT_EQ(tree.scheme().total_freed(), 0u);
  } else {
    // Pointer-based schemes reclaim almost immediately; epoch-based ones
    // lag by at most an epoch window plus the retire buffers.
    EXPECT_LE(tree.scheme().outstanding(), 256u);
  }
}

// MP-specific: rotations preserve indices — a key keeps its index through
// arbitrary rebalancing, so margin protection stays order-consistent.
TEST(AvlMp, RotationsPreserveIndices) {
  using Tree = mp::ds::CowAvlTree<mp::smr::MP>;
  Tree tree(ds_config(2, Tree::kRequiredSlots));
  // Build with random-ish inserts so real midpoint indices are assigned.
  mp::common::Xoshiro256 rng(4242);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = 1 + rng.next_below(1u << 20);
    if (tree.insert(tree.scheme().handle(0), key, key)) keys.push_back(key);
  }
  EXPECT_TRUE(tree.validate());
  // Force heavy rebalancing by deleting half the keys; the survivors'
  // lookups must still succeed (and under MP, their indices rode along
  // through every rotation — validated indirectly by margin protection
  // still working in the concurrent test above).
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(tree.remove(tree.scheme().handle(0), keys[i]));
  }
  for (std::size_t i = 1; i < keys.size(); i += 2) {
    ASSERT_TRUE(tree.contains(tree.scheme().handle(0), keys[i]));
  }
  EXPECT_TRUE(tree.validate());
}

}  // namespace
