// Thread-lifecycle tests (DESIGN.md §6), per scheme: a departing thread's
// protection state must stop pinning memory the moment detach() runs, its
// orphaned retired batch must be adopted and reclaimed by survivors, and
// the satellite fixes (side-effect-free alloc failure, free_hook coverage
// in delete_unlinked, detach/adopt trace events) must hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <thread>

#include "common/rng.hpp"
#include "ds/natarajan_tree.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace {

using mp::obs::TraceEvent;
using mp::obs::Tracer;
using mp::smr::ChaosOptions;
using mp::smr::Config;
using mp::smr::FaultInjector;
using mp::test::TestNode;

Config lifecycle_config() {
  Config config;
  config.max_threads = 2;
  config.slots_per_thread = 1;
  config.empty_freq = 1 << 20;  // reclamation only when the test asks
  config.epoch_freq = 1;
  return config;
}

template <typename Tag>
class ThreadLifecycleTest : public ::testing::Test {
 protected:
  using Scheme = typename Tag::type;
};

TYPED_TEST_SUITE(ThreadLifecycleTest, mp::test::ReclaimingSchemeTags,
                 mp::test::SchemeTagNames);

// The acceptance scenario: thread 1 installs protection mid-operation
// (announced epoch / era / hazard / margin) and exits without end_op — a
// crashed or departed thread. Its stale protection pins the retired anchor
// (and for the epoch schemes the whole retired list) forever; detach(1)
// must clear it so the very next empty() reclaims everything.
TYPED_TEST(ThreadLifecycleTest, DepartedThreadStopsPinningAfterDetach) {
  typename TestFixture::Scheme scheme(lifecycle_config());
  TestNode* anchor = scheme.alloc(0, 1u);
  scheme.set_index(anchor, 1u << 24);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(anchor));

  std::thread departed([&scheme, &cell] {
    scheme.start_op(1);
    (void)scheme.read(1, 0, cell);
    // Departs mid-operation: no end_op, protection left installed.
  });
  departed.join();

  cell.store(mp::smr::TaggedPtr{}, std::memory_order_release);  // unlink
  scheme.retire(0, anchor);
  for (std::uint64_t i = 0; i < 64; ++i) {
    scheme.retire(0, scheme.alloc(0, 2u + i));
  }
  scheme.empty(0);
  if constexpr (TestFixture::Scheme::kSnapshotFree) {
    // Hyaline's empty() hands the whole retired list over as a refcounted
    // batch: the local list empties, but the in-op slot's reference keeps
    // every node pinned — visible as retired-but-unreclaimed nodes.
    const auto pinned = scheme.stats_snapshot();
    EXPECT_LT(pinned.reclaims, pinned.retires)
        << "the departed thread's reference must pin the handed-over batch";
  } else {
    EXPECT_GE(scheme.retired_count(0), 1u)
        << "the departed thread's protection must pin the anchor";
  }

  scheme.detach(1);
  scheme.empty(0);
  EXPECT_EQ(scheme.retired_count(0), 0u)
      << "after detach nothing may stay pinned";
  EXPECT_EQ(scheme.orphan_count(), 0u);
  const auto stats = scheme.stats_snapshot();
  EXPECT_EQ(stats.retires, stats.reclaims);
}

// A departed id must be fully reusable: the successor's operations protect
// and release as if the id were fresh.
TYPED_TEST(ThreadLifecycleTest, DetachedIdIsReusableByASuccessor) {
  typename TestFixture::Scheme scheme(lifecycle_config());
  TestNode* node = scheme.alloc(0, 7u);
  scheme.set_index(node, 1u << 20);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(node));

  std::thread departed([&scheme, &cell] {
    scheme.start_op(1);
    (void)scheme.read(1, 0, cell);
  });
  departed.join();
  scheme.detach(1);

  // Successor lifecycle on the same id: a full protect/release round.
  scheme.start_op(1);
  EXPECT_EQ(scheme.read(1, 0, cell).template ptr<TestNode>(), node);
  scheme.end_op(1);

  cell.store(mp::smr::TaggedPtr{}, std::memory_order_release);
  scheme.retire(0, node);
  scheme.empty(0);
  EXPECT_EQ(scheme.retired_count(0), 0u);
}

// Orphaned batches flow to a survivor and get reclaimed there, with the
// handover visible in the stats identity.
TYPED_TEST(ThreadLifecycleTest, OrphanedBatchIsAdoptedAndReclaimed) {
  typename TestFixture::Scheme scheme(lifecycle_config());
  for (std::uint64_t i = 0; i < 8; ++i) {
    scheme.retire(0, scheme.alloc(0, i));
  }
  scheme.detach(0);
  ASSERT_EQ(scheme.orphan_count(), 8u);

  scheme.adopt_orphans(1);
  scheme.empty(1);
  EXPECT_EQ(scheme.retired_count(1), 0u);
  const auto stats = scheme.stats_snapshot();
  EXPECT_EQ(stats.orphaned, 8u);
  EXPECT_EQ(stats.adopted, 8u);
  EXPECT_EQ(stats.reclaims, 8u);
  EXPECT_EQ(scheme.total_allocated(), scheme.total_freed());
}

// ---- Satellite: alloc() failure paths are side-effect-free ----

TEST(AllocFaultOrdering, InjectedFailureLeavesSchemeUntouched) {
  ChaosOptions options;
  options.seed = 11;
  options.alloc_failure_period = 1;  // every draw fails
  options.alloc_failure_burst = 1;
  FaultInjector injector(options, 2);
  injector.set_armed(false);
  Config config = lifecycle_config();
  config.fault_injector = &injector;
  mp::smr::EBR<TestNode> scheme(config);

  TestNode* warmup = scheme.alloc(0, 1u);  // disarmed: succeeds
  const auto epoch_before = scheme.epoch_now();
  const auto before = scheme.stats_snapshot();

  injector.set_armed(true);
  EXPECT_THROW(scheme.alloc(0, 2u), std::bad_alloc);
  injector.set_armed(false);

  // No epoch tick, no counter bump, no node: the failed alloc never
  // happened as far as the scheme is concerned.
  EXPECT_EQ(scheme.epoch_now(), epoch_before);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(scheme.total_allocated(), 1u);
  scheme.delete_unlinked(warmup);
}

struct ThrowingNode : mp::smr::NodeBase {
  static bool throw_next;
  std::uint64_t key;
  explicit ThrowingNode(std::uint64_t k) : key(k) {
    if (throw_next) {
      throw_next = false;
      throw std::bad_alloc{};
    }
  }
};
bool ThrowingNode::throw_next = false;

TEST(AllocFaultOrdering, ThrowingConstructorLeavesSchemeUntouched) {
  Config config = lifecycle_config();
  mp::smr::EBR<ThrowingNode> scheme(config);
  ThrowingNode* warmup = scheme.alloc(0, 1u);
  const auto epoch_before = scheme.epoch_now();
  const auto before = scheme.stats_snapshot();

  ThrowingNode::throw_next = true;
  EXPECT_THROW(scheme.alloc(0, 2u), std::bad_alloc);

  EXPECT_EQ(scheme.epoch_now(), epoch_before)
      << "a node that never existed must not tick the epoch";
  EXPECT_EQ(scheme.stats_snapshot().allocs, before.allocs);
  EXPECT_EQ(scheme.total_allocated(), 1u);
  scheme.delete_unlinked(warmup);
}

// NM-tree inserts allocate two nodes (leaf + router); an OOM on the
// second must free the first, not strand it. Heavy injected failure plus
// the allocation identity after emptying the tree catches any strand.
TEST(AllocFaultOrdering, TreeInsertSurvivesSecondAllocFailure) {
  ChaosOptions options;
  options.seed = 23;
  options.alloc_failure_period = 3;  // hits first and second allocs alike
  options.alloc_failure_burst = 1;
  FaultInjector injector(options, 1);
  injector.set_armed(false);
  Config config;
  config.max_threads = 1;
  config.slots_per_thread =
      mp::ds::NatarajanTree<mp::smr::EBR>::kRequiredSlots;
  config.empty_freq = 4;
  config.fault_injector = &injector;
  mp::ds::NatarajanTree<mp::smr::EBR> tree(config);
  const std::uint64_t sentinels =
      tree.scheme().total_allocated();  // construction-time nodes

  injector.set_armed(true);
  mp::common::Xoshiro256 rng(7);
  for (int i = 0; i < 800; ++i) {
    const std::uint64_t key = 1 + rng.next_below(64);
    try {
      if (rng.next() % 2 == 0) {
        tree.insert(tree.scheme().handle(0), key, key);
      } else {
        tree.remove(tree.scheme().handle(0), key);
      }
    } catch (const std::bad_alloc&) {
    }
  }
  injector.set_armed(false);
  for (std::uint64_t key = 1; key <= 64; ++key) {
    tree.remove(tree.scheme().handle(0), key);  // removal never allocates
  }
  ASSERT_EQ(tree.size(), 0u);
  tree.scheme().drain();
  EXPECT_EQ(tree.scheme().outstanding(), sentinels)
      << "a failed two-node insert stranded its first allocation";
}

// ---- Satellite: delete_unlinked honors the free hook ----

TEST(FreeHook, DeleteUnlinkedFiresFreeHook) {
  Config config = lifecycle_config();
  int freed = 0;
  config.free_hook = [](void* context, const void*) {
    ++*static_cast<int*>(context);
  };
  config.free_hook_context = &freed;
  mp::smr::EBR<TestNode> scheme(config);
  TestNode* node = scheme.alloc(0, 1u);
  scheme.delete_unlinked(node);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(scheme.total_freed(), 1u);
}

// ---- Satellite: detach/adopt leave a trace ----

TEST(LifecycleTrace, DetachAndAdoptAreRecorded) {
  Config config = lifecycle_config();
  Tracer tracer(2, 64);
  config.tracer = &tracer;
  mp::smr::EBR<TestNode> scheme(config);
  for (std::uint64_t i = 0; i < 3; ++i) {
    scheme.retire(0, scheme.alloc(0, i));
  }
  scheme.detach(0);
  scheme.adopt_orphans(1);

  const auto departed = tracer.drained(0);
  ASSERT_FALSE(departed.empty());
  EXPECT_EQ(departed.back().event, TraceEvent::kDetach);
  EXPECT_EQ(departed.back().arg, 3u);
  const auto adopter = tracer.drained(1);
  ASSERT_FALSE(adopter.empty());
  EXPECT_EQ(adopter.back().event, TraceEvent::kAdopt);
  EXPECT_EQ(adopter.back().arg, 3u);
}

}  // namespace
