// Scheme-generic unit tests: every SMR scheme must satisfy the interface
// contract of paper §2 (Listing 1) — these run against every scheme in smr::AllSchemes.
#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::smr::TaggedPtr;
using mp::test::AllSchemeTags;
using mp::test::SchemeTag;
using mp::test::SchemeTagNames;
using mp::test::TestNode;

template <typename Tag>
class SchemeBasicTest : public ::testing::Test {
 protected:
  using Scheme = typename Tag::type;

  Config small_config() const {
    Config config;
    config.max_threads = 4;
    config.slots_per_thread = 4;
    config.empty_freq = 4;
    return config;
  }
};

TYPED_TEST_SUITE(SchemeBasicTest, AllSchemeTags, SchemeTagNames);

TYPED_TEST(SchemeBasicTest, AllocSetsHeader) {
  typename TestFixture::Scheme scheme(this->small_config());
  scheme.start_op(0);
  TestNode* node = scheme.alloc(0, 42u);
  EXPECT_EQ(node->key, 42u);
  EXPECT_LE(node->smr_header.birth_relaxed(), scheme.epoch_now());
  scheme.end_op(0);
  scheme.delete_unlinked(node);
}

TYPED_TEST(SchemeBasicTest, MakeLinkEncodesNodeAndMark) {
  typename TestFixture::Scheme scheme(this->small_config());
  TestNode* node = scheme.alloc(0, 1u);
  const TaggedPtr link = scheme.make_link(node, 1);
  EXPECT_EQ(link.template ptr<TestNode>(), node);
  EXPECT_EQ(link.mark(), 1u);
  EXPECT_EQ(link.tag(), node->smr_header.tag());
  EXPECT_TRUE(scheme.make_link(nullptr).is_null());
  scheme.delete_unlinked(node);
}

TYPED_TEST(SchemeBasicTest, SetIndexControlsLinkTag) {
  typename TestFixture::Scheme scheme(this->small_config());
  TestNode* node = scheme.alloc(0, 1u);
  scheme.set_index(node, 0x12345678u);
  EXPECT_EQ(scheme.make_link(node).tag(), 0x1234);
  scheme.delete_unlinked(node);
}

TYPED_TEST(SchemeBasicTest, CopyIndexDuplicatesDonor) {
  typename TestFixture::Scheme scheme(this->small_config());
  TestNode* donor = scheme.alloc(0, 1u);
  TestNode* node = scheme.alloc(0, 2u);
  scheme.set_index(donor, 0xABCD1234u);
  scheme.copy_index(node, donor);
  EXPECT_EQ(node->smr_header.index_relaxed(), 0xABCD1234u);
  scheme.delete_unlinked(donor);
  scheme.delete_unlinked(node);
}

TYPED_TEST(SchemeBasicTest, ReadReturnsLinkedNode) {
  typename TestFixture::Scheme scheme(this->small_config());
  TestNode* node = scheme.alloc(0, 5u);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(node));
  scheme.start_op(0);
  const TaggedPtr observed = scheme.read(0, 0, cell);
  EXPECT_EQ(observed.template ptr<TestNode>(), node);
  EXPECT_EQ(observed.template ptr<TestNode>()->key, 5u);
  scheme.end_op(0);
  scheme.delete_unlinked(node);
}

TYPED_TEST(SchemeBasicTest, ReadOfNullReturnsNull) {
  typename TestFixture::Scheme scheme(this->small_config());
  mp::smr::AtomicTaggedPtr cell;
  scheme.start_op(0);
  EXPECT_TRUE(scheme.read(0, 0, cell).is_null());
  scheme.end_op(0);
}

TYPED_TEST(SchemeBasicTest, ReadPreservesMarkBits) {
  typename TestFixture::Scheme scheme(this->small_config());
  TestNode* node = scheme.alloc(0, 5u);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(node, 1));
  scheme.start_op(0);
  EXPECT_EQ(scheme.read(0, 0, cell).mark(), 1u);
  scheme.end_op(0);
  scheme.delete_unlinked(node);
}

TYPED_TEST(SchemeBasicTest, RetireCountsAndBuffers) {
  typename TestFixture::Scheme scheme(this->small_config());
  scheme.start_op(0);
  scheme.end_op(0);
  TestNode* node = scheme.alloc(0, 1u);
  scheme.retire(0, node);
  const auto snapshot = scheme.stats_snapshot();
  EXPECT_EQ(snapshot.retires, 1u);
  EXPECT_GE(node->smr_header.retire_relaxed(),
            node->smr_header.birth_relaxed());
}

TYPED_TEST(SchemeBasicTest, DrainFreesEverythingRetired) {
  typename TestFixture::Scheme scheme(this->small_config());
  for (int i = 0; i < 100; ++i) {
    scheme.retire(i % 4, scheme.alloc(i % 4, static_cast<std::uint64_t>(i)));
  }
  scheme.drain();
  EXPECT_EQ(scheme.outstanding(), 0u);
  EXPECT_EQ(scheme.total_allocated(), scheme.total_freed());
}

TYPED_TEST(SchemeBasicTest, DestructorLeaksNothing) {
  Config config = this->small_config();
  std::uint64_t allocated = 0;
  {
    typename TestFixture::Scheme scheme(config);
    for (int i = 0; i < 50; ++i) {
      scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
    }
    allocated = scheme.total_allocated();
    // No explicit drain: the destructor must release the buffered nodes.
  }
  EXPECT_EQ(allocated, 50u);
}

TYPED_TEST(SchemeBasicTest, DeleteUnlinkedBalancesAccounting) {
  typename TestFixture::Scheme scheme(this->small_config());
  TestNode* node = scheme.alloc(0, 1u);
  EXPECT_EQ(scheme.outstanding(), 1u);
  scheme.delete_unlinked(node);
  EXPECT_EQ(scheme.outstanding(), 0u);
}

TYPED_TEST(SchemeBasicTest, StartOpSamplesRetiredListSize) {
  typename TestFixture::Scheme scheme(this->small_config());
  scheme.start_op(0);
  scheme.end_op(0);
  scheme.retire(0, scheme.alloc(0, 1u));
  scheme.start_op(0);
  scheme.end_op(0);
  const auto snapshot = scheme.stats_snapshot();
  EXPECT_EQ(snapshot.retired_samples, 2u);
  // First sample saw an empty list; the second may or may not, depending on
  // whether the scheme already reclaimed — it is bounded by 1 either way.
  EXPECT_LE(snapshot.retired_sum, 1u);
}

TYPED_TEST(SchemeBasicTest, OpGuardBracketsOperation) {
  typename TestFixture::Scheme scheme(this->small_config());
  {
    mp::smr::OperationScope scope(scheme, 1);
    TestNode* node = scheme.alloc(1, 9u);
    mp::smr::AtomicTaggedPtr cell(scheme.make_link(node));
    EXPECT_EQ(scheme.read(1, 0, cell).template ptr<TestNode>(), node);
    scheme.delete_unlinked(node);
  }
  const auto snapshot = scheme.stats_snapshot();
  EXPECT_EQ(snapshot.retired_samples, 1u);
}

TYPED_TEST(SchemeBasicTest, ProtectedNodeSurvivesOtherThreadsEmpty) {
  // Thread 1 protects a node through read(); thread 0 retires it and runs
  // enough retirements to trigger reclamation — the protected node must
  // survive while the protection (or its operation) is live.
  using Scheme = typename TestFixture::Scheme;
  if constexpr (!Scheme::kBoundedWaste && !Scheme::kRobust) {
    // EBR/Leaky/DTA protect by operation scope; covered below all the same.
  }
  Scheme scheme(this->small_config());
  TestNode* node = scheme.alloc(0, 77u);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(node));

  scheme.start_op(1);
  const TaggedPtr observed = scheme.read(1, 0, cell);
  ASSERT_EQ(observed.template ptr<TestNode>(), node);

  // Unlink and retire from thread 0; churn to force empty() runs.
  cell.store(TaggedPtr::null());
  scheme.retire(0, node);
  for (int i = 0; i < 64; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  // The node must still be readable: its memory has not been reclaimed.
  EXPECT_EQ(node->key, 77u);
  scheme.end_op(1);
}

TYPED_TEST(SchemeBasicTest, UnprotectedRetiredNodesEventuallyReclaimed) {
  using Scheme = typename TestFixture::Scheme;
  Scheme scheme(this->small_config());
  // No thread in an operation: everything retired is fair game.
  for (int i = 0; i < 256; ++i) {
    scheme.retire(0, scheme.alloc(0, static_cast<std::uint64_t>(i)));
  }
  const auto snapshot = scheme.stats_snapshot();
  if constexpr (std::is_same_v<Scheme, mp::smr::Leaky<TestNode>>) {
    EXPECT_EQ(snapshot.reclaims, 0u) << "Leaky never reclaims";
  } else {
    EXPECT_GT(snapshot.reclaims, 0u);
    EXPECT_LT(scheme.outstanding(), 256u);
  }
}

// ---- One protection predicate, two consumers ----
//
// The reclaimer frees with collect_snapshot + snapshot_protects; the
// ProtectionOracle asserts oracle_covers on every protected read. Both ask
// the same question of the same announcements, so they must agree: inside
// tid 0's operation the node it read is protected by both, and once
// end_op(0) withdraws the announcement by neither. Typed over the
// snapshot schemes that reclaim (Leaky's predicate protects everything by
// design; Hyaline has no snapshot).
template <typename Tag>
class ProtectionPredicateTest : public ::testing::Test {};

using SnapshotSchemeTags = ::testing::Types<
    SchemeTag<mp::smr::EBR>, SchemeTag<mp::smr::DTA>, SchemeTag<mp::smr::HP>,
    SchemeTag<mp::smr::HE>, SchemeTag<mp::smr::IBR>, SchemeTag<mp::smr::MP>,
    SchemeTag<mp::smr::Stampit>>;
TYPED_TEST_SUITE(ProtectionPredicateTest, SnapshotSchemeTags, SchemeTagNames);

/// Tid 0 reads a node carrying `index`; tid 1 unlinks and retires it.
template <typename Scheme>
void expect_both_halves_agree(std::uint32_t index) {
  Config config;
  config.max_threads = 4;
  config.slots_per_thread = 4;
  config.empty_freq = 64;  // no scheduled pass inside the test
  Scheme scheme(config);
  TestNode* node = scheme.alloc(0, 5u);
  scheme.set_index(node, index);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(node));
  typename Scheme::Snapshot snapshot;

  scheme.start_op(0);
  ASSERT_EQ(scheme.read(0, 0, cell).template ptr<TestNode>(), node);
  scheme.start_op(1);
  cell.store(TaggedPtr::null());
  scheme.retire(1, node);
  scheme.end_op(1);
  EXPECT_TRUE(scheme.oracle_covers(0, node));
  scheme.collect_snapshot(snapshot);
  EXPECT_TRUE(scheme.snapshot_protects(node, snapshot));

  scheme.end_op(0);
  EXPECT_FALSE(scheme.oracle_covers(0, node));
  // Stamp-it: the non-const collection reaps the quiescent entries first.
  scheme.collect_snapshot(snapshot);
  EXPECT_FALSE(scheme.snapshot_protects(node, snapshot));
}

// MP: the margin path.
TYPED_TEST(ProtectionPredicateTest, BothHalvesAgreeOnIndexedNode) {
  expect_both_halves_agree<typename TypeParam::type>(0x12345678u);
}

// MP: the hazard path.
TYPED_TEST(ProtectionPredicateTest, BothHalvesAgreeOnUseHpNode) {
  expect_both_halves_agree<typename TypeParam::type>(mp::smr::kUseHp);
}

}  // namespace
