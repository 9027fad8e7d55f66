// ProtectionOracle deliberate-violation suite (smr/oracle.hpp).
//
// Each test commits one specific protection-discipline violation through
// the public API and asserts the oracle rejects it — with the right
// violation kind, and (the point of the design) BEFORE the node's memory
// is freed. Violations run in recording mode
// (set_abort_on_violation(false)) so one process can exercise them all;
// one EXPECT_DEATH test proves the default abort-with-report path.
//
// The whole file compiles in both build arms. With SMR_ORACLE off the
// violation tests GTEST_SKIP (the disabled oracle records nothing); the
// clean-workload tests still run and trivially pass, which keeps the
// oracle-attached configuration itself covered by the default build.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_registry.hpp"
#include "obs/trace.hpp"
#include "smr/chaos.hpp"
#include "smr/guard.hpp"
#include "smr/smr.hpp"
#include "test_util.hpp"

namespace {

using mp::common::ThreadLease;
using mp::common::ThreadRegistry;
using mp::obs::Tracer;
using mp::smr::AtomicTaggedPtr;
using mp::smr::ChaosOptions;
using mp::smr::Config;
using mp::smr::FaultInjector;
using mp::smr::Guard;
using mp::smr::kOracleEnabled;
using mp::smr::OperationScope;
using mp::smr::OracleViolation;
using mp::smr::ProtectionOracle;
using mp::smr::TaggedPtr;
using mp::test::TestNode;

constexpr std::size_t kThreads = 4;
constexpr int kSlots = 4;

/// A scheme with an oracle (and its tracer) attached. The tracer gets one
/// lane past max_threads so off-thread frees (background reclaimer, drain)
/// have a ring for lifecycle events too.
template <typename Scheme>
struct OracleRig {
  Tracer tracer{kThreads + 1};
  ProtectionOracle oracle{kThreads, kSlots, &tracer};
  Scheme scheme;

  explicit OracleRig(Config config = base_config()) : scheme(wire(config)) {
    // Violation tests inspect violations()/last_report() instead of dying.
    oracle.set_abort_on_violation(false);
  }

  static Config base_config() {
    Config config;
    config.max_threads = kThreads;
    config.slots_per_thread = kSlots;
    config.empty_freq = 4;
    config.epoch_freq = 8;
    return config;
  }

  Config wire(Config config) {
    config.tracer = &tracer;
    config.oracle = &oracle;
    return config;
  }
};

#define SKIP_WITHOUT_ORACLE()                                          \
  do {                                                                 \
    if (!kOracleEnabled) {                                             \
      GTEST_SKIP() << "violation detection needs -DSMR_ORACLE=ON";     \
    }                                                                  \
  } while (0)

// ---------------------------------------------------------------------------
// Clean workloads stay oracle-clean (runs in both build arms; with the
// oracle ON this is the "no false positives" half of the contract).
// ---------------------------------------------------------------------------

template <typename Tag>
class OracleCleanTest : public ::testing::Test {};

TYPED_TEST_SUITE(OracleCleanTest, mp::test::AllSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(OracleCleanTest, GuardWorkloadHasNoViolations) {
  using Scheme = typename TypeParam::type;
  OracleRig<Scheme> rig;
  auto& scheme = rig.scheme;

  std::vector<AtomicTaggedPtr> cells(8);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    TestNode* node = scheme.alloc(0, i);
    scheme.set_index(node, static_cast<std::uint32_t>(i) << 20);
    cells[i].store(scheme.make_link(node));
  }
  for (int round = 0; round < 64; ++round) {
    const int tid = round % static_cast<int>(kThreads);
    OperationScope scope(scheme, tid);
    Guard guard(scope, 0);
    Guard other(scope, 1);
    for (auto& cell : cells) {
      if (TestNode* node = guard.protect_ptr(cell); node != nullptr) {
        EXPECT_NE(guard->key, 0xDEADu);
      }
      other.protect_ptr(cell);
      other.release();
    }
    // Unlink-and-retire one node per round, republishing a fresh one.
    auto& victim = cells[static_cast<std::size_t>(round) % cells.size()];
    TestNode* old = victim.load().template ptr<TestNode>();
    TestNode* fresh = scheme.alloc(tid, 1000 + round);
    scheme.copy_index(fresh, old);
    victim.store(scheme.make_link(fresh));
    scheme.retire(tid, old);
  }
  for (auto& cell : cells) {
    scheme.retire(0, cell.load().template ptr<TestNode>());
  }
  scheme.drain();
  EXPECT_EQ(rig.oracle.violations(), 0u)
      << "clean guard workload must not trip the oracle:\n"
      << rig.oracle.last_report();
}

TEST(OracleBuildArm, EnabledFlagMatchesBuild) {
  EXPECT_EQ(ProtectionOracle::enabled(), kOracleEnabled);
}

// ---------------------------------------------------------------------------
// Deliberate violations. Each test is one protocol break, one violation
// kind, caught before any free.
// ---------------------------------------------------------------------------

// Violation 1 (ISSUE: protect-after-end_op), on two scheme families: the
// operation bracket is mandatory; a read after end_op (or with no scope at
// all) is rejected even though nothing has been freed yet.
template <typename Tag>
class OracleBracketTest : public ::testing::Test {};

using BracketSchemeTags =
    ::testing::Types<mp::test::SchemeTag<mp::smr::HP>,
                     mp::test::SchemeTag<mp::smr::EBR>,
                     mp::test::SchemeTag<mp::smr::MP>>;
TYPED_TEST_SUITE(OracleBracketTest, BracketSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(OracleBracketTest, ProtectAfterEndOpIsRejected) {
  SKIP_WITHOUT_ORACLE();
  using Scheme = typename TypeParam::type;
  OracleRig<Scheme> rig;
  auto& scheme = rig.scheme;

  TestNode* node = scheme.alloc(0, 7u);
  AtomicTaggedPtr cell(scheme.make_link(node));

  scheme.start_op(0);
  scheme.read(0, 0, cell);
  scheme.end_op(0);
  EXPECT_EQ(rig.oracle.violations(), 0u);

  scheme.read(0, 0, cell);  // the violation: bracket already closed
  EXPECT_EQ(rig.oracle.violations(), 1u);
  EXPECT_EQ(rig.oracle.last_violation(), OracleViolation::kProtectOutsideOp);
  const std::string report = rig.oracle.last_report();
  EXPECT_NE(report.find("protect-outside-op"), std::string::npos) << report;
  EXPECT_NE(report.find("lifecycle"), std::string::npos)
      << "report must include the trace-ring lifecycle section:\n"
      << report;
  EXPECT_NE(report.find("oracle_alloc"), std::string::npos)
      << "lifecycle must reach back to the node's allocation:\n"
      << report;

  scheme.delete_unlinked(node);
}

// Violation 2 (ISSUE: deref-after-unprotect): a guard's target slot is
// re-protected by a second guard on the same refno; dereferencing through
// the first guard afterwards is a use of an unprotected node — rejected at
// the deref, while the node is still alive.
TEST(OracleViolationTest, DerefAfterSlotReuseIsRejected) {
  SKIP_WITHOUT_ORACLE();
  OracleRig<mp::smr::HP<TestNode>> rig;
  auto& scheme = rig.scheme;

  TestNode* a = scheme.alloc(0, 1u);
  TestNode* b = scheme.alloc(0, 2u);
  AtomicTaggedPtr cell_a(scheme.make_link(a));
  AtomicTaggedPtr cell_b(scheme.make_link(b));
  {
    OperationScope scope(scheme, 0);
    Guard first(scope, 0);
    ASSERT_EQ(first.protect_ptr(cell_a), a);
    EXPECT_EQ(first->key, 1u);  // covered: fine
    Guard second(scope, 0);     // same refno: steals the slot
    ASSERT_EQ(second.protect_ptr(cell_b), b);

    EXPECT_EQ(first->key, 1u);  // the violation: first's slot now covers b
    EXPECT_EQ(rig.oracle.violations(), 1u);
    EXPECT_EQ(rig.oracle.last_violation(),
              OracleViolation::kDerefUnprotected);
    EXPECT_NE(rig.oracle.last_report().find("deref-unprotected"),
              std::string::npos);
  }
  scheme.delete_unlinked(a);
  scheme.delete_unlinked(b);
}

// Deref-after-unprotect, traversal flavor: the read itself loads from a
// cell INSIDE a freed node (a traversal that kept walking through a stale
// pointer). The shadow model knows every allocation's [base, base+size)
// range, so the load is rejected as a use-after-free at the read — not
// later, when the garbage it returned corrupts something. The pooled arm
// keeps freed blocks mapped, which is exactly the configuration where
// ASan is blind and the oracle is the only thing that can see this.
TEST(OracleViolationTest, ReadThroughFreedNodeIsRejected) {
  SKIP_WITHOUT_ORACLE();
  OracleRig<mp::smr::HP<TestNode>> rig;
  auto& scheme = rig.scheme;
  if (!scheme.pool().enabled()) {
    GTEST_SKIP() << "needs the node pool to keep freed blocks mapped";
  }

  TestNode* dead = scheme.alloc(0, 1u);
  TestNode* target = scheme.alloc(0, 2u);
  dead->next.store(scheme.make_link(target));
  // The block goes back to tid 0's magazine: still mapped, logically gone.
  scheme.delete_unlinked(0, dead);

  scheme.start_op(0);
  scheme.read(0, 0, dead->next);  // the violation: src is freed memory
  EXPECT_EQ(rig.oracle.violations(), 1u);
  EXPECT_EQ(rig.oracle.last_violation(), OracleViolation::kUseAfterFree);
  EXPECT_NE(rig.oracle.last_report().find("use-after-free"),
            std::string::npos);
  EXPECT_NE(rig.oracle.last_report().find("walking through freed memory"),
            std::string::npos);
  scheme.end_op(0);
  scheme.delete_unlinked(target);
}

// Dead-edge tolerance, recycled-incarnation shape (MP only): a frozen edge
// still carries the OLD node's index tag after the pool recycles the block
// into a new node with a new index. The margin installed around the stale
// tag does not cover the new incarnation, so the read is genuinely
// uncovered — but it is a dead-edge result the structure will discard by
// its mark bits, not a discipline break, so the oracle drops the reference
// instead of flagging (oracle_edge_stale).
TEST(OracleToleranceTest, RecycledIncarnationReadIsDroppedNotFlagged) {
  SKIP_WITHOUT_ORACLE();
  OracleRig<mp::smr::MP<TestNode>> rig;
  auto& scheme = rig.scheme;
  if (!scheme.pool().enabled()) {
    GTEST_SKIP() << "needs the node pool to recycle the block";
  }

  TestNode* old_node = scheme.alloc(0, 1u);
  scheme.set_index(old_node, 7u << 20);  // a real (non-USE_HP) index block
  AtomicTaggedPtr frozen_edge(scheme.make_link(old_node));
  // The block goes back to tid 0's magazine and comes straight back out as
  // a fresh node: same address, new identity (index kUseHp here).
  scheme.delete_unlinked(0, old_node);
  TestNode* fresh = scheme.alloc(0, 2u);
  if (static_cast<void*>(fresh) != static_cast<void*>(old_node)) {
    scheme.delete_unlinked(0, fresh);
    GTEST_SKIP() << "magazine did not recycle the block in place";
  }

  scheme.start_op(0);
  const auto got = scheme.read(0, 0, frozen_edge);
  EXPECT_EQ(got.ptr<TestNode>(), fresh);
  EXPECT_EQ(rig.oracle.violations(), 0u);
  scheme.end_op(0);
  scheme.delete_unlinked(0, fresh);
}

// Violation 3 (ISSUE: stale-epoch read): a thread whose epoch reservation
// was revoked (scheme-level detach, e.g. after a crash-recovery path reused
// its tid slot) keeps reading. The scheme's own coverage predicate says the
// read is not protected; the oracle rejects it at the read — before any
// reclamation pass gets the chance to realize the latent use-after-free.
template <typename Tag>
class OracleStaleEpochTest : public ::testing::Test {};

using EpochSchemeTags =
    ::testing::Types<mp::test::SchemeTag<mp::smr::EBR>,
                     mp::test::SchemeTag<mp::smr::IBR>,
                     mp::test::SchemeTag<mp::smr::DTA>>;
TYPED_TEST_SUITE(OracleStaleEpochTest, EpochSchemeTags,
                 mp::test::SchemeTagNames);

TYPED_TEST(OracleStaleEpochTest, ReadWithRevokedReservationIsRejected) {
  SKIP_WITHOUT_ORACLE();
  using Scheme = typename TypeParam::type;
  OracleRig<Scheme> rig;
  auto& scheme = rig.scheme;

  TestNode* node = scheme.alloc(0, 9u);
  AtomicTaggedPtr cell(scheme.make_link(node));

  scheme.start_op(0);
  EXPECT_FALSE(scheme.read(0, 0, cell).is_null());
  EXPECT_EQ(rig.oracle.violations(), 0u);

  // Revoke the epoch reservation out from under the open operation. This
  // calls the scheme-level hook directly (not SchemeBase::detach, which
  // would itself be flagged): the physical announcement is cleared while
  // the thread believes it is still reading.
  scheme.on_detach(0);
  scheme.read(0, 0, cell);  // the violation: no reservation covers this
  EXPECT_EQ(rig.oracle.violations(), 1u);
  EXPECT_EQ(rig.oracle.last_violation(), OracleViolation::kUncoveredRead);
  EXPECT_NE(rig.oracle.last_report().find("uncovered-read"),
            std::string::npos);

  scheme.end_op(0);
  scheme.delete_unlinked(node);
}

// Violation 4 (ISSUE: thread-death / OperationScope outliving its
// ThreadLease): the churn harness's injected thread death decides when a
// worker "dies" mid-operation; the lease detach runs the registry's detach
// hook -> SchemeBase::detach while the scope is still open. Rejected at
// the detach, before the departing thread's protections are recycled.
TEST(OracleViolationTest, LeaseDetachInsideOperationIsRejected) {
  SKIP_WITHOUT_ORACLE();
  using Scheme = mp::smr::EBR<TestNode>;
  OracleRig<Scheme> rig;
  auto& scheme = rig.scheme;

  ChaosOptions options;
  options.seed = 42;
  options.thread_death_period = 8;
  FaultInjector injector(options, kThreads);

  ThreadRegistry registry(kThreads);
  registry.set_detach_hook(
      [](void* context, int tid) { static_cast<Scheme*>(context)->detach(tid); },
      &scheme);

  TestNode* node = scheme.alloc(0, 3u);
  AtomicTaggedPtr cell(scheme.make_link(node));

  bool died = false;
  for (int round = 0; round < 10000 && !died; ++round) {
    ThreadLease lease(registry);
    const int tid = lease.tid();
    ASSERT_GE(tid, 0);
    scheme.start_op(tid);
    scheme.read(tid, 0, cell);
    if (injector.should_die(tid)) {
      // Injected death: the lease detaches with the operation still open.
      died = true;
      lease.detach();
      EXPECT_EQ(rig.oracle.violations(), 1u);
      EXPECT_EQ(rig.oracle.last_violation(),
                OracleViolation::kDetachInsideOp);
      EXPECT_NE(rig.oracle.last_report().find("detach-inside-op"),
                std::string::npos);
    } else {
      scheme.end_op(tid);
    }
  }
  ASSERT_TRUE(died) << "fault injector never fired a thread death";
  scheme.delete_unlinked(node);
}

// Violation 5 (ISSUE: background scan freeing a covered node): tid 0 holds
// a shadow reference to a node whose physical hazard was revoked, tid 1
// retires it, and the background reclaimer's scan frees it. The oracle
// rejects the free from the reclaimer's own path — the free_hook proves
// the violation was already recorded when the memory was released.
TEST(OracleViolationTest, BackgroundReclaimerFreeOfHeldNodeIsCaught) {
  SKIP_WITHOUT_ORACLE();
  using Scheme = mp::smr::HP<TestNode>;

  struct FreeLog {
    const void* victim = nullptr;
    ProtectionOracle* oracle = nullptr;
    std::atomic<bool> victim_freed{false};
    std::atomic<std::uint64_t> violations_at_victim_free{0};

    static void hook(void* context, const void* node) {
      auto* log = static_cast<FreeLog*>(context);
      if (node == log->victim) {
        log->violations_at_victim_free.store(log->oracle->violations());
        log->victim_freed.store(true);
      }
    }
  };

  FreeLog log;
  Config config = OracleRig<Scheme>::base_config();
  config.background_reclaim = true;
  config.free_hook = &FreeLog::hook;
  config.free_hook_context = &log;
  OracleRig<Scheme> rig(config);
  auto& scheme = rig.scheme;
  log.oracle = &rig.oracle;

  TestNode* victim = scheme.alloc(1, 5u);
  AtomicTaggedPtr cell(scheme.make_link(victim));
  log.victim = victim;

  // tid 0 protects the victim (hazard slot + shadow reference)...
  scheme.start_op(0);
  ASSERT_EQ(scheme.read(0, 0, cell).template ptr<TestNode>(), victim);
  // ...then its physical hazard is revoked behind the oracle's back (the
  // scheme-level hook bypasses the base detach protocol), leaving the
  // shadow model as the only witness that tid 0 still holds the node.
  scheme.on_detach(0);

  // tid 1 unlinks and retires the victim, plus filler to reach the
  // empty_freq boundary so the batch offloads to the reclaimer.
  cell.store(TaggedPtr::null());
  scheme.retire(1, victim);
  for (int i = 0; i < 3; ++i) scheme.retire(1, scheme.alloc(1, 100 + i));
  scheme.reclaim_sync();

  ASSERT_TRUE(log.victim_freed.load())
      << "background reclaimer never freed the victim";
  EXPECT_GE(rig.oracle.violations(), 1u);
  EXPECT_EQ(rig.oracle.last_violation(), OracleViolation::kFreeOfProtected);
  EXPECT_GE(log.violations_at_victim_free.load(), 1u)
      << "the violation must be recorded BEFORE the free reaches the "
         "allocator";
  const std::string report = rig.oracle.last_report();
  EXPECT_NE(report.find("free-of-protected"), std::string::npos) << report;
  EXPECT_NE(report.find("(tid=0, refno=0)"), std::string::npos)
      << "report must name the holder:\n"
      << report;
  EXPECT_NE(report.find("lifecycle"), std::string::npos) << report;

  scheme.end_op(0);
}

// Satellite 3: nested OperationScopes on one tid are a bracket violation.
TEST(OracleViolationTest, NestedScopeOnOneTidIsRejected) {
  SKIP_WITHOUT_ORACLE();
  OracleRig<mp::smr::EBR<TestNode>> rig;
  auto& scheme = rig.scheme;
  {
    OperationScope outer(scheme, 2);
    EXPECT_EQ(rig.oracle.violations(), 0u);
    {
      OperationScope inner(scheme, 2);  // the violation
      EXPECT_EQ(rig.oracle.violations(), 1u);
      EXPECT_EQ(rig.oracle.last_violation(), OracleViolation::kNestedOp);
    }
    // inner's end_op closed the bracket; outer's destructor now ends an
    // operation that is no longer open.
  }
  EXPECT_EQ(rig.oracle.violations(), 2u);
  EXPECT_EQ(rig.oracle.last_violation(), OracleViolation::kEndOutsideOp);
}

// Double retire: rejected at the second retire, before the retired list is
// ever corrupted (under the default abort mode the process dies before the
// node is pushed twice — see the death test below, which exercises exactly
// this path end to end).
TEST(OracleDeathTest, DoubleRetireAbortsWithReport) {
  SKIP_WITHOUT_ORACLE();
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  using Scheme = mp::smr::EBR<TestNode>;
  OracleRig<Scheme> rig;
  rig.oracle.set_abort_on_violation(true);  // the default, re-asserted
  auto& scheme = rig.scheme;
  TestNode* node = scheme.alloc(0, 1u);
  scheme.retire(0, node);
  EXPECT_DEATH(scheme.retire(0, node),
               "ProtectionOracle violation: bad-retire");
}

}  // namespace
