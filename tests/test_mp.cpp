// Margin-pointer unit tests: index creation (Listing 5), margin coverage,
// the USE_HP collision fallback (§4.3.2), epoch-advance HP mode, and the
// Theorem 4.2 predetermined wasted-memory bound.
#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"

namespace {

using mp::smr::AtomicTaggedPtr;
using mp::smr::Config;
using mp::smr::kMaxIndex;
using mp::smr::kMinIndex;
using mp::smr::kUseHp;
using mp::smr::TaggedPtr;
using mp::test::TestNode;
using MP = mp::smr::MP<TestNode>;

Config config_for(std::size_t threads, std::uint32_t margin = 1u << 20,
                  std::uint64_t epoch_freq = 1000, int empty_freq = 4) {
  Config config;
  config.max_threads = threads;
  config.slots_per_thread = 4;
  config.empty_freq = empty_freq;
  config.epoch_freq = epoch_freq;
  config.margin = margin;
  return config;
}

/// Helper: a node with a chosen index, linked into a cell.
struct LinkedNode {
  TestNode* node;
  AtomicTaggedPtr cell;

  LinkedNode(MP& scheme, int tid, std::uint32_t index)
      : node(scheme.alloc(tid, 0u)) {
    scheme.set_index(node, index);
    cell.store(scheme.make_link(node));
  }
};

// ---- Index creation ----

TEST(MpIndex, MidpointOfSearchInterval) {
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* lo = scheme.alloc(0, 1u);
  TestNode* hi = scheme.alloc(0, 2u);
  scheme.set_index(lo, 1000);
  scheme.set_index(hi, 5000);
  scheme.update_lower_bound(0, lo);
  scheme.update_upper_bound(0, hi);
  TestNode* fresh = scheme.alloc(0, 3u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), 3000u);
  scheme.end_op(0);
  for (TestNode* n : {lo, hi, fresh}) scheme.delete_unlinked(n);
}

TEST(MpIndex, SentinelRangeMidpoint) {
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* head = scheme.alloc(0, 0u);
  TestNode* tail = scheme.alloc(0, 9u);
  scheme.set_index(head, kMinIndex);
  scheme.set_index(tail, kMaxIndex);
  scheme.update_lower_bound(0, head);
  scheme.update_upper_bound(0, tail);
  TestNode* fresh = scheme.alloc(0, 5u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kMaxIndex / 2);
  scheme.end_op(0);
  for (TestNode* n : {head, tail, fresh}) scheme.delete_unlinked(n);
}

TEST(MpIndex, CollisionGapOfOneFallsBackToUseHp) {
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* lo = scheme.alloc(0, 1u);
  TestNode* hi = scheme.alloc(0, 2u);
  scheme.set_index(lo, 70);
  scheme.set_index(hi, 71);
  scheme.update_lower_bound(0, lo);
  scheme.update_upper_bound(0, hi);
  TestNode* fresh = scheme.alloc(0, 3u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kUseHp)
      << "|hi - lo| <= 1 means no room for a unique index (Listing 10)";
  scheme.end_op(0);
  for (TestNode* n : {lo, hi, fresh}) scheme.delete_unlinked(n);
}

TEST(MpIndex, EqualBoundsFallBackToUseHp) {
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* node = scheme.alloc(0, 1u);
  scheme.set_index(node, 1234);
  scheme.update_lower_bound(0, node);
  scheme.update_upper_bound(0, node);
  TestNode* fresh = scheme.alloc(0, 2u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kUseHp);
  scheme.end_op(0);
  scheme.delete_unlinked(node);
  scheme.delete_unlinked(fresh);
}

TEST(MpIndex, UnestablishedBoundsFallBackToUseHp) {
  // start_op resets both bounds to 0; an alloc with no update_* calls must
  // not fabricate an ordered index (DESIGN.md deviation 4).
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* fresh = scheme.alloc(0, 1u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kUseHp);
  scheme.end_op(0);
  scheme.delete_unlinked(fresh);
}

TEST(MpIndex, InvertedBoundsFallBackToUseHp) {
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* lo = scheme.alloc(0, 1u);
  TestNode* hi = scheme.alloc(0, 2u);
  scheme.set_index(lo, 5000);
  scheme.set_index(hi, 1000);
  scheme.update_lower_bound(0, lo);
  scheme.update_upper_bound(0, hi);
  TestNode* fresh = scheme.alloc(0, 3u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kUseHp);
  scheme.end_op(0);
  for (TestNode* n : {lo, hi, fresh}) scheme.delete_unlinked(n);
}

TEST(MpIndex, UseHpBoundMakesEndpointUnknown) {
  // An endpoint whose index is USE_HP gives no ordering information; the
  // next alloc must fall back even if the other endpoint looks wide.
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* lo = scheme.alloc(0, 1u);
  TestNode* hp_node = scheme.alloc(0, 2u);
  scheme.set_index(lo, 0);
  scheme.set_index(hp_node, kUseHp);
  scheme.update_lower_bound(0, lo);
  scheme.update_upper_bound(0, hp_node);
  TestNode* fresh = scheme.alloc(0, 3u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kUseHp);
  scheme.end_op(0);
  for (TestNode* n : {lo, hp_node, fresh}) scheme.delete_unlinked(n);
}

TEST(MpIndex, EndpointRecoversFromUseHpUpdate) {
  // DESIGN.md deviation 4: passing a USE_HP node mid-traversal must not
  // condemn the operation — a later real-index update restores the
  // endpoint (otherwise collisions avalanche through the structure).
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* hp_node = scheme.alloc(0, 1u);
  TestNode* lo = scheme.alloc(0, 2u);
  TestNode* hi = scheme.alloc(0, 3u);
  scheme.set_index(hp_node, kUseHp);
  scheme.set_index(lo, 1000);
  scheme.set_index(hi, 5000);
  scheme.update_lower_bound(0, hp_node);  // unknown...
  scheme.update_lower_bound(0, lo);       // ...restored
  scheme.update_upper_bound(0, hi);
  TestNode* fresh = scheme.alloc(0, 4u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), 3000u);
  scheme.end_op(0);
  for (TestNode* n : {hp_node, lo, hi, fresh}) scheme.delete_unlinked(n);
}

TEST(MpIndex, NoLowerUpdateMeansNoPredecessor) {
  // A seek that never turns right has found a key smaller than everything
  // present; the lower endpoint defaults to the space minimum and a real
  // index is still assigned (front inserts must not collide).
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* succ = scheme.alloc(0, 1u);
  scheme.set_index(succ, 1u << 20);
  scheme.update_upper_bound(0, succ);
  TestNode* fresh = scheme.alloc(0, 2u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), (1u << 20) / 2);
  scheme.end_op(0);
  scheme.delete_unlinked(succ);
  scheme.delete_unlinked(fresh);
}

TEST(MpIndex, BoundsResetEachOperation) {
  MP scheme(config_for(2));
  scheme.start_op(0);
  TestNode* lo = scheme.alloc(0, 1u);
  TestNode* hi = scheme.alloc(0, 2u);
  scheme.set_index(lo, 100);
  scheme.set_index(hi, 1u << 20);
  scheme.update_lower_bound(0, lo);
  scheme.update_upper_bound(0, hi);
  scheme.end_op(0);
  scheme.start_op(0);  // new op: bounds reset, no updates
  TestNode* fresh = scheme.alloc(0, 3u);
  EXPECT_EQ(fresh->smr_header.index_relaxed(), kUseHp);
  scheme.end_op(0);
  for (TestNode* n : {lo, hi, fresh}) scheme.delete_unlinked(n);
}

// ---- Margin protection (read paths) ----

TEST(MpRead, FirstReadInstallsMarginWithOneFence) {
  MP scheme(config_for(2));
  LinkedNode linked(scheme, 0, 1u << 24);
  scheme.start_op(1);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, linked.cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.fences - before.fences, 1u);
  EXPECT_EQ(after.hp_fallbacks - before.hp_fallbacks, 0u);
  scheme.end_op(1);
  scheme.delete_unlinked(linked.node);
}

TEST(MpRead, NearbyIndexHitsMarginFastPath) {
  // The headline mechanism: once a margin is installed, nodes within the
  // margin are read with no protection write and no fence.
  MP scheme(config_for(2, /*margin=*/1u << 20));
  LinkedNode first(scheme, 0, 1u << 24);
  LinkedNode second(scheme, 0, (1u << 24) + (1u << 18));
  scheme.start_op(1);
  scheme.read(1, 0, first.cell);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, second.cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.fences, before.fences) << "covered read must be fence-free";
  scheme.end_op(1);
  scheme.delete_unlinked(first.node);
  scheme.delete_unlinked(second.node);
}

TEST(MpRead, FarIndexReinstallsMargin) {
  MP scheme(config_for(2, /*margin=*/1u << 20));
  LinkedNode first(scheme, 0, 1u << 24);
  LinkedNode far(scheme, 0, 1u << 28);
  scheme.start_op(1);
  scheme.read(1, 0, first.cell);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, far.cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.fences - before.fences, 1u)
      << "a node outside the margin needs a new announcement";
  scheme.end_op(1);
  scheme.delete_unlinked(first.node);
  scheme.delete_unlinked(far.node);
}

TEST(MpRead, MarginsArePerRefno) {
  MP scheme(config_for(2, 1u << 20));
  LinkedNode a(scheme, 0, 1u << 24);
  LinkedNode b(scheme, 0, (1u << 24) + 64);
  scheme.start_op(1);
  scheme.read(1, 0, a.cell);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 1, b.cell);  // different refno: own margin, own fence
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.fences - before.fences, 1u);
  scheme.end_op(1);
  scheme.delete_unlinked(a.node);
  scheme.delete_unlinked(b.node);
}

TEST(MpRead, UseHpIndexTakesHazardPath) {
  MP scheme(config_for(2));
  LinkedNode linked(scheme, 0, kUseHp);
  scheme.start_op(1);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, linked.cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.hp_fallbacks - before.hp_fallbacks, 1u);
  // Re-reading the same USE_HP node costs no second fence.
  const auto before2 = scheme.stats_snapshot();
  scheme.read(1, 0, linked.cell);
  const auto after2 = scheme.stats_snapshot();
  EXPECT_EQ(after2.fences, before2.fences);
  scheme.end_op(1);
  scheme.delete_unlinked(linked.node);
}

TEST(MpRead, TopTagRangeTreatedAsUseHp) {
  // Any index whose tag is 0xFFFF shares a range with USE_HP and must take
  // the hazard path (e.g. the tail sentinel at max_index, §5.2).
  MP scheme(config_for(2));
  LinkedNode linked(scheme, 0, kMaxIndex);
  scheme.start_op(1);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, linked.cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.hp_fallbacks - before.hp_fallbacks, 1u);
  scheme.end_op(1);
  scheme.delete_unlinked(linked.node);
}

TEST(MpRead, EpochAdvanceMidOpSwitchesToHp) {
  MP scheme(config_for(2, 1u << 20, /*epoch_freq=*/1));
  LinkedNode a(scheme, 0, 1u << 24);
  scheme.start_op(1);
  scheme.read(1, 0, a.cell);  // margin installed at the announced epoch
  // Another thread's allocations advance the global epoch.
  scheme.delete_unlinked(scheme.alloc(0, 0u));
  // Now even a margin-covered node must be read via a hazard pointer: its
  // birth epoch may exceed our announcement, making our margins invisible
  // to reclaimers (§4.3.2 / DESIGN.md deviation 8).
  LinkedNode b(scheme, 0, (1u << 24) + 128);
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, b.cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.hp_fallbacks - before.hp_fallbacks, 1u);
  scheme.end_op(1);
  // A fresh operation re-announces and margins work again.
  scheme.start_op(1);
  const auto before2 = scheme.stats_snapshot();
  scheme.read(1, 0, a.cell);
  const auto after2 = scheme.stats_snapshot();
  EXPECT_EQ(after2.hp_fallbacks, before2.hp_fallbacks);
  scheme.end_op(1);
  scheme.delete_unlinked(a.node);
  scheme.delete_unlinked(b.node);
}

// ---- Reclamation ----

TEST(MpReclaim, MarginBlocksCoveredRetiredNode) {
  MP scheme(config_for(2, 1u << 20, 1000, 2));
  LinkedNode victim(scheme, 0, 1u << 24);
  scheme.start_op(1);
  scheme.read(1, 0, victim.cell);
  victim.cell.store(TaggedPtr::null());
  scheme.retire(0, victim.node);
  for (int i = 0; i < 32; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_EQ(victim.node->smr_header.index_relaxed(), 1u << 24)
      << "covered node must still be alive";
  scheme.end_op(1);
  scheme.drain();
  EXPECT_EQ(scheme.outstanding(), 0u);
}

TEST(MpReclaim, UncoveredRetiredNodeReclaimed) {
  MP scheme(config_for(2, 1u << 20, 1000, 1));
  LinkedNode covered(scheme, 0, 1u << 24);
  scheme.start_op(1);
  scheme.read(1, 0, covered.cell);
  // Retire nodes far outside the margin: they must be reclaimed even while
  // thread 1 is mid-operation.
  for (int i = 0; i < 64; ++i) {
    TestNode* node = scheme.alloc(0, 0u);
    scheme.set_index(node, (1u << 28) + static_cast<std::uint32_t>(i));
    scheme.retire(0, node);
  }
  EXPECT_LE(scheme.outstanding(), 3u)
      << "uncovered nodes must not accumulate";
  scheme.end_op(1);
  scheme.delete_unlinked(covered.node);
}

TEST(MpReclaim, EpochFilterUnpinsOldMargins) {
  // A stale margin from an old epoch must not pin nodes born later: the
  // empty() epoch gate (Theorem 4.2) ignores threads whose announcement
  // lies outside the node's lifetime.
  MP scheme(config_for(2, 1u << 20, /*epoch_freq=*/4, 1));
  LinkedNode anchor(scheme, 0, 1u << 24);
  scheme.start_op(1);
  scheme.read(1, 0, anchor.cell);  // margin + epoch e announced; now stall
  // Advance the epoch well past e, then create and retire nodes with
  // indices inside the stalled thread's margin.
  for (int i = 0; i < 16; ++i) scheme.delete_unlinked(scheme.alloc(0, 0u));
  for (int i = 0; i < 64; ++i) {
    TestNode* node = scheme.alloc(0, 0u);
    scheme.set_index(node, (1u << 24) + 8 + static_cast<std::uint32_t>(i % 8));
    scheme.retire(0, node);
  }
  EXPECT_LE(scheme.outstanding(), 4u)
      << "nodes born after the stalled epoch are reclaimable despite margin "
         "coverage";
  scheme.end_op(1);
  scheme.delete_unlinked(anchor.node);
}

TEST(MpReclaim, HazardHonoredRegardlessOfEpochs) {
  // DESIGN.md deviation 2: a hazard pointer set in hp_mode can protect a
  // node born after the thread's announced epoch; empty() must honor it.
  MP scheme(config_for(2, 1u << 20, /*epoch_freq=*/1, 1));
  scheme.start_op(1);
  // Advance epoch past thread 1's announcement, then have it read a node
  // born in the new epoch (forcing the hazard path).
  scheme.delete_unlinked(scheme.alloc(0, 0u));
  LinkedNode late(scheme, 0, 1u << 24);
  scheme.read(1, 0, late.cell);
  late.cell.store(TaggedPtr::null());
  scheme.retire(0, late.node);
  for (int i = 0; i < 16; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_EQ(late.node->smr_header.index_relaxed(), 1u << 24)
      << "hazard-protected node must survive";
  scheme.end_op(1);
}

TEST(MpReclaim, ProtectAllocPinsOwnNode) {
  MP scheme(config_for(2, 1u << 20, 1000, 1));
  scheme.start_op(1);
  TestNode* own = scheme.alloc(1, 3u);
  scheme.set_index(own, 1u << 26);
  scheme.pin(1, 3, own);
  // Another thread retires it (simulating an immediate delete after link).
  scheme.retire(0, own);
  for (int i = 0; i < 16; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_EQ(own->key, 3u);
  scheme.end_op(1);
}

// ---- Theorem 4.2: predetermined wasted-memory bound ----

TEST(MpBound, StalledThreadPinsBoundedNodes) {
  // One thread stalls mid-operation holding margins; another thread churns
  // through far more nodes than the bound. Wasted memory must stay below
  // #HP + #MP*M + #MP*M*(epoch window), independent of churn volume.
  constexpr std::uint32_t kMargin = 1u << 17;  // minimum legal margin
  Config config = config_for(2, kMargin, /*epoch_freq=*/64, 1);
  MP scheme(config);

  LinkedNode anchor(scheme, 0, 1u << 24);
  scheme.start_op(1);
  scheme.read(1, 0, anchor.cell);  // stall with one margin installed

  // Churn: every node gets an index inside the stalled margin, the worst
  // case for MP. The epoch machinery must still cap the damage.
  for (int i = 0; i < 20000; ++i) {
    TestNode* node = scheme.alloc(0, 0u);
    scheme.set_index(node,
                     (1u << 24) + static_cast<std::uint32_t>(i % 1024));
    scheme.retire(0, node);
  }
  // The stalled thread's epoch covers only nodes born in its announcement
  // epoch; after the epoch advances (every 64 allocs), newer nodes are
  // reclaimable. Allow generous slack for retire-buffer granularity.
  EXPECT_LT(scheme.outstanding(), 2048u)
      << "wasted memory must be bounded regardless of 20k churn";
  scheme.end_op(1);
  scheme.delete_unlinked(0, anchor.node);
}

TEST(MpBound, NoStallMeansNoAccumulation) {
  MP scheme(config_for(2, 1u << 20, 64, 1));
  for (int i = 0; i < 5000; ++i) {
    TestNode* node = scheme.alloc(0, 0u);
    scheme.set_index(node, static_cast<std::uint32_t>(i * 512));
    scheme.retire(0, node);
  }
  EXPECT_LE(scheme.outstanding(), 2u);
}

TEST(MpBound, PerThreadBoundIsTheorem42) {
  // slots + slots*M*(1 + epoch_freq*T) + empty_freq, with epoch_freq 0
  // meaning 150*T.
  Config defaults = config_for(2, 1u << 20, /*epoch_freq=*/0, 30);
  EXPECT_EQ(MP::waste_bound_per_thread(defaults),
            4u + 4u * (1ull << 20) * (1 + (150 * 2) * 2) + 30u);
  Config minimal = config_for(3, 1u << 17, /*epoch_freq=*/7, 1);
  minimal.slots_per_thread = 8;
  EXPECT_EQ(MP::waste_bound_per_thread(minimal),
            8u + 8u * (1ull << 17) * (1 + 7 * 3) + 1u);

  // The sat_mul edge: slots*M = 2^31 times an epoch window of 2^32 - 1 is
  // exact (2^63 - 2^31); a window of 2^33 + 1 overflows and saturates.
  Config edge = config_for(2, 1u << 31, /*epoch_freq=*/(1ull << 31) - 1, 5);
  edge.slots_per_thread = 1;
  EXPECT_EQ(MP::waste_bound_per_thread(edge),
            1u + (1ull << 63) - (1ull << 31) + 5u);
  edge.max_threads = 1;
  edge.epoch_freq = 1ull << 33;
  EXPECT_EQ(MP::waste_bound_per_thread(edge), mp::smr::kUnboundedWaste);
}

}  // namespace
