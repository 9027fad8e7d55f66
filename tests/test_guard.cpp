// Tests for the RAII guard facade (smr/guard.hpp).
#include <gtest/gtest.h>

#include "smr/guard.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::AtomicTaggedPtr;
using mp::smr::Config;
using mp::smr::Guard;
using mp::smr::OperationScope;
using mp::smr::TaggedPtr;
using mp::test::AllSchemeTags;
using mp::test::SchemeTagNames;
using mp::test::TestNode;

template <typename Tag>
class GuardTest : public ::testing::Test {
 protected:
  using Scheme = typename Tag::type;

  Config config() const {
    Config config;
    config.max_threads = 4;
    config.slots_per_thread = 4;
    config.empty_freq = 2;
    return config;
  }
};

TYPED_TEST_SUITE(GuardTest, AllSchemeTags, SchemeTagNames);

TYPED_TEST(GuardTest, ProtectReturnsTarget) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* node = scheme.alloc(0, 7u);
  AtomicTaggedPtr cell(scheme.make_link(node));
  {
    OperationScope scope(scheme, 0);
    Guard guard(scope, 0);
    EXPECT_EQ(guard.protect_ptr(cell), node);
    EXPECT_EQ(guard.get(), node);
    EXPECT_EQ(guard->key, 7u);
    EXPECT_TRUE(static_cast<bool>(guard));
  }
  scheme.delete_unlinked(node);
}

TYPED_TEST(GuardTest, NullProtectIsFalsy) {
  typename TestFixture::Scheme scheme(this->config());
  AtomicTaggedPtr cell;
  OperationScope scope(scheme, 0);
  Guard guard(scope, 0);
  EXPECT_EQ(guard.protect_ptr(cell), nullptr);
  EXPECT_FALSE(static_cast<bool>(guard));
}

TYPED_TEST(GuardTest, WordCarriesMarks) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* node = scheme.alloc(0, 1u);
  AtomicTaggedPtr cell(scheme.make_link(node, 1));
  OperationScope scope(scheme, 0);
  Guard guard(scope, 0);
  const TaggedPtr word = guard.protect(cell);
  EXPECT_EQ(word.mark(), 1u);
  EXPECT_EQ(guard.get(), node) << "get() strips marks";
  scheme.delete_unlinked(node);
}

TYPED_TEST(GuardTest, GuardKeepsNodeAliveAcrossRetire) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* node = scheme.alloc(0, 99u);
  AtomicTaggedPtr cell(scheme.make_link(node));
  OperationScope scope(scheme, 1);
  Guard guard(scope, 0);
  ASSERT_EQ(guard.protect_ptr(cell), node);
  cell.store(TaggedPtr::null());
  scheme.retire(0, node);
  for (int i = 0; i < 32; ++i) scheme.retire(0, scheme.alloc(0, 0u));
  EXPECT_EQ(guard->key, 99u) << "guarded node must not be reclaimed";
}

TYPED_TEST(GuardTest, ScopeEndsOperation) {
  typename TestFixture::Scheme scheme(this->config());
  { OperationScope scope(scheme, 0); }
  { OperationScope scope(scheme, 0); }
  const auto snapshot = scheme.stats_snapshot();
  EXPECT_EQ(snapshot.retired_samples, 2u) << "each scope samples at start_op";
}

TYPED_TEST(GuardTest, ResetDropsProtectionEagerly) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* node = scheme.alloc(0, 1u);
  AtomicTaggedPtr cell(scheme.make_link(node));
  OperationScope scope(scheme, 0);
  Guard guard(scope, 0);
  guard.protect(cell);
  guard.release();
  EXPECT_FALSE(static_cast<bool>(guard));
  EXPECT_EQ(guard.get(), nullptr);
  scheme.delete_unlinked(node);
}

TYPED_TEST(GuardTest, DoubleReleaseIsIdempotent) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* a = scheme.alloc(0, 1u);
  TestNode* b = scheme.alloc(0, 2u);
  AtomicTaggedPtr cell_a(scheme.make_link(a));
  AtomicTaggedPtr cell_b(scheme.make_link(b));
  OperationScope scope(scheme, 0);
  Guard first(scope, 0);
  first.protect(cell_a);
  first.release();
  EXPECT_TRUE(first.released());

  // A later guard re-binds the same refno; the first guard's second
  // release (and its destructor) must not tear that protection down.
  Guard second(scope, 0);
  ASSERT_EQ(second.protect_ptr(cell_b), b);
  first.release();  // no-op: the slot was already surrendered
  first.release();  // and every later one
  EXPECT_EQ(second.get(), b) << "double release must not disturb the slot";

  // The protection must actually hold: retire b and make sure it survives
  // reclamation pressure while `second` still guards it.
  cell_b.store(TaggedPtr::null());
  scheme.retire(1, b);
  for (int i = 0; i < 32; ++i) scheme.retire(1, scheme.alloc(1, 0u));
  EXPECT_EQ(second->key, 2u) << "guarded node must not be reclaimed";
  scheme.delete_unlinked(a);
}

TYPED_TEST(GuardTest, ProtectAfterReleaseReArms) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* node = scheme.alloc(0, 4u);
  AtomicTaggedPtr cell(scheme.make_link(node));
  OperationScope scope(scheme, 0);
  Guard guard(scope, 0);
  guard.protect(cell);
  guard.release();
  EXPECT_TRUE(guard.released());
  EXPECT_EQ(guard.get(), nullptr);

  // protect() after release() is the supported way to reuse the guard:
  // it re-arms, and the destructor drops the protection exactly once.
  EXPECT_EQ(guard.protect_ptr(cell), node);
  EXPECT_FALSE(guard.released());
  EXPECT_EQ(guard->key, 4u);
  scheme.delete_unlinked(node);
}

TYPED_TEST(GuardTest, MultipleGuardsIndependentSlots) {
  typename TestFixture::Scheme scheme(this->config());
  TestNode* a = scheme.alloc(0, 1u);
  TestNode* b = scheme.alloc(0, 2u);
  AtomicTaggedPtr cell_a(scheme.make_link(a));
  AtomicTaggedPtr cell_b(scheme.make_link(b));
  OperationScope scope(scheme, 0);
  Guard guard_a(scope, 0);
  Guard guard_b(scope, 1);
  EXPECT_EQ(guard_a.protect_ptr(cell_a), a);
  EXPECT_EQ(guard_b.protect_ptr(cell_b), b);
  EXPECT_EQ(guard_a.get(), a) << "second guard must not disturb the first";
  scheme.delete_unlinked(a);
  scheme.delete_unlinked(b);
}

}  // namespace
