// EBR / HE / IBR / DTA unit tests: operation-scoped protection, the
// robustness distinction (paper §3.2–3.3) and DTA's anchor-posting
// cadence — plus the shared global epoch's tick schedule and chaos
// advance, checked over every scheme.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "test_util.hpp"

namespace {

using mp::smr::AtomicTaggedPtr;
using mp::smr::Config;
using mp::smr::TaggedPtr;
using mp::test::TestNode;
using EBR = mp::smr::EBR<TestNode>;
using HE = mp::smr::HE<TestNode>;
using IBR = mp::smr::IBR<TestNode>;
using DTA = mp::smr::DTA<TestNode>;

Config config_for(std::size_t threads, std::uint64_t epoch_freq = 10,
                  int empty_freq = 4) {
  Config config;
  config.max_threads = threads;
  config.slots_per_thread = 4;
  config.empty_freq = empty_freq;
  config.epoch_freq = epoch_freq;
  return config;
}

// ---- The shared global epoch (SchemeBase), over every scheme ----

template <typename Tag>
class SharedEpochTest : public ::testing::Test {};
TYPED_TEST_SUITE(SharedEpochTest, mp::test::AllSchemeTags,
                 mp::test::SchemeTagNames);

/// The schemes whose epoch ticks on the allocation clock; the others tick
/// only inside their own protocol (Stamp-it's enrollment, Hyaline's
/// handover) or never (HP, Leaky).
template <typename Scheme>
constexpr bool ticks_on_allocations() {
  const std::string_view name = Scheme::kName;
  return name == "MP" || name == "HE" || name == "IBR" || name == "EBR" ||
         name == "DTA";
}

TYPED_TEST(SharedEpochTest, TicksEveryEpochFreqAllocationsWhereScheduled) {
  using Scheme = typename TypeParam::type;
  Scheme scheme(config_for(2, /*epoch_freq=*/5));
  const std::uint64_t start = scheme.epoch_now();
  std::vector<TestNode*> nodes;
  for (int i = 0; i < 25; ++i) nodes.push_back(scheme.alloc(0, 0u));
  EXPECT_EQ(scheme.epoch_now() - start,
            ticks_on_allocations<Scheme>() ? 5u : 0u)
      << "25 allocs / freq 5, outside any operation";
  for (TestNode* node : nodes) scheme.delete_unlinked(node);
}

TYPED_TEST(SharedEpochTest, ChaosAdvanceMovesTheEpochAndLaterBirths) {
  using Scheme = typename TypeParam::type;
  Scheme scheme(config_for(2, /*epoch_freq=*/5));
  const std::uint64_t start = scheme.epoch_now();
  scheme.chaos_advance_epoch(7);
  EXPECT_EQ(scheme.epoch_now(), start + 7);
  TestNode* node = scheme.alloc(0, 0u);  // 1st alloc: no scheduled tick
  EXPECT_EQ(node->smr_header.birth_relaxed(), start + 7);
  scheme.delete_unlinked(node);
}

TEST(EpochSchemes, DefaultEpochFreqIs150T) {
  Config config;
  config.max_threads = 8;
  EXPECT_EQ(config.effective_epoch_freq(), 150u * 8u);
  config.epoch_freq = 42;
  EXPECT_EQ(config.effective_epoch_freq(), 42u);
}

TEST(EpochSchemes, BirthAndRetireEpochsStamped) {
  IBR scheme(config_for(2, 3));
  TestNode* node = scheme.alloc(0, 0u);
  const std::uint64_t birth = node->smr_header.birth_relaxed();
  // Advance the epoch a few times before retiring.
  std::vector<TestNode*> filler;
  for (int i = 0; i < 9; ++i) filler.push_back(scheme.alloc(0, 0u));
  scheme.retire(0, node);
  EXPECT_GT(node->smr_header.retire_relaxed(), birth);
  for (TestNode* f : filler) scheme.delete_unlinked(f);
}

// ---- EBR: a stalled operation blocks ALL reclamation (non-robust) ----

TEST(EpochSchemes, EbrStalledThreadBlocksEverything) {
  EBR scheme(config_for(2, 5, 1));
  scheme.start_op(1);  // thread 1 "stalls" inside an operation
  // Nodes born and retired strictly after the stall still cannot be freed:
  // the stalled announcement pins the horizon.
  for (int i = 0; i < 200; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_EQ(scheme.outstanding(), 200u)
      << "EBR must not reclaim anything while an op is pinned";
  scheme.end_op(1);
  for (int i = 0; i < 2; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_LT(scheme.outstanding(), 200u) << "reclamation resumes after end_op";
}

// ---- HE / IBR: robust — post-stall garbage is reclaimable ----

template <typename Scheme>
void expect_robust_to_stalls() {
  Scheme scheme(config_for(2, 5, 1));
  scheme.start_op(1);  // stalls at the current epoch
  // Nodes allocated (and retired) after the stall have birth epochs beyond
  // the stalled thread's announcement, so they can be reclaimed.
  for (int i = 0; i < 200; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_LT(scheme.outstanding(), 100u)
      << "a robust scheme reclaims nodes born after the stall";
  scheme.end_op(1);
}

TEST(EpochSchemes, HeRobustToStalledThread) { expect_robust_to_stalls<HE>(); }
TEST(EpochSchemes, IbrRobustToStalledThread) {
  expect_robust_to_stalls<IBR>();
}

// ---- HE / IBR: but pre-stall nodes stay pinned (unbounded waste, §1) ----

template <typename Scheme>
void expect_pre_stall_nodes_pinned() {
  Scheme scheme(config_for(2, 1000, 1));
  // Allocate many nodes in the stalled thread's epoch...
  std::vector<TestNode*> nodes;
  std::vector<AtomicTaggedPtr> cells(128);
  for (int i = 0; i < 128; ++i) {
    nodes.push_back(scheme.alloc(0, static_cast<std::uint64_t>(i)));
    cells[i].store(scheme.make_link(nodes[i]));
  }
  scheme.start_op(1);
  scheme.read(1, 0, cells[0]);  // establish the reservation, then stall
  // ...then retire all of them while the thread is stalled. Their lifetimes
  // contain the stalled reservation, so none can be reclaimed — the
  // "arbitrarily large wasted memory" the paper criticizes.
  for (int i = 0; i < 128; ++i) {
    cells[i].store(TaggedPtr::null());
    scheme.retire(0, nodes[i]);
  }
  EXPECT_EQ(scheme.outstanding(), 128u);
  scheme.end_op(1);
}

TEST(EpochSchemes, HePreStallNodesPinned) {
  expect_pre_stall_nodes_pinned<HE>();
}
TEST(EpochSchemes, IbrPreStallNodesPinned) {
  expect_pre_stall_nodes_pinned<IBR>();
}

// ---- HE: era slots protect across epoch changes ----

TEST(EpochSchemes, HeEraSlotPinsLifetimeIntersection) {
  HE scheme(config_for(2, 2, 1));
  TestNode* node = scheme.alloc(0, 9u);
  AtomicTaggedPtr cell(scheme.make_link(node));
  scheme.start_op(1);
  scheme.read(1, 0, cell);  // era e announced; node birth <= e
  // Epoch churns on; the node is retired with retire >= e.
  for (int i = 0; i < 50; ++i) scheme.delete_unlinked(scheme.alloc(0, 0u));
  cell.store(TaggedPtr::null());
  scheme.retire(0, node);
  for (int i = 0; i < 16; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_EQ(node->key, 9u) << "era inside [birth,retire] must pin the node";
  scheme.end_op(1);
}

// ---- IBR: reservation interval semantics ----

TEST(EpochSchemes, IbrReadExtendsReservationOnEpochChange) {
  IBR scheme(config_for(2, 1, 1));  // epoch_freq=1: every alloc advances
  scheme.start_op(1);
  TestNode* early = scheme.alloc(0, 1u);
  AtomicTaggedPtr cell(scheme.make_link(early));
  const auto before = scheme.stats_snapshot();
  scheme.read(1, 0, cell);  // epoch changed since start_op -> slow path
  const auto after = scheme.stats_snapshot();
  EXPECT_GT(after.fences, before.fences)
      << "a reservation extension publishes with a fence";
  // Reading again without epoch movement is fence-free.
  const auto before2 = scheme.stats_snapshot();
  scheme.read(1, 0, cell);
  const auto after2 = scheme.stats_snapshot();
  EXPECT_EQ(after2.fences, before2.fences);
  scheme.end_op(1);
  scheme.delete_unlinked(early);
}

// ---- DTA ----

TEST(EpochSchemes, DtaPostsAnchorEveryKHops) {
  DTA scheme(config_for(2, 1000, 4));
  TestNode* node = scheme.alloc(0, 1u);
  AtomicTaggedPtr cell(scheme.make_link(node));
  scheme.start_op(1);
  const auto before = scheme.stats_snapshot();
  for (int i = 0; i < 10 * DTA::kAnchorDistance; ++i) scheme.read(1, 0, cell);
  const auto after = scheme.stats_snapshot();
  EXPECT_EQ(after.slow_protects - before.slow_protects, 10u)
      << "1000 hops / kAnchorDistance 100 = 10 anchor posts";
  scheme.end_op(1);
  scheme.delete_unlinked(node);
}

TEST(EpochSchemes, DtaReclaimsLikeEbrWithoutStalls) {
  DTA scheme(config_for(2, 5, 1));
  for (int i = 0; i < 100; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_LT(scheme.outstanding(), 20u);
}

}  // namespace
