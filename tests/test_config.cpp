// Config::validate() promotion: the constraints that used to be debug-only
// asserts must now reject invalid configurations with std::invalid_argument
// in every build type, from every scheme's constructor.
#include <gtest/gtest.h>

#include <stdexcept>

#include "ds/fraser_skiplist.hpp"
#include "ds/michael_hashset.hpp"
#include "ds/michael_list.hpp"
#include "ds/natarajan_tree.hpp"
#include "test_util.hpp"

namespace {

using mp::smr::Config;
using mp::test::TestNode;

Config valid_config() {
  Config config;
  config.max_threads = 4;
  config.slots_per_thread = 4;
  return config;
}

TEST(ConfigValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(Config{}.validate());
  EXPECT_NO_THROW(valid_config().validate());
}

TEST(ConfigValidate, RejectsZeroThreads) {
  Config config = valid_config();
  config.max_threads = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsTooManyThreads) {
  Config config = valid_config();
  config.max_threads = mp::smr::kMaxSchemeThreads + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsZeroSlots) {
  Config config = valid_config();
  config.slots_per_thread = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsTooManySlots) {
  Config config = valid_config();
  config.slots_per_thread = mp::smr::kMaxSlotsPerThread + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsNonPositiveEmptyFreq) {
  Config config = valid_config();
  config.empty_freq = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.empty_freq = -5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidate, MarginRuleIsMpOnly) {
  Config config = valid_config();
  config.margin = (1u << 17) - 1;
  EXPECT_NO_THROW(config.validate());  // scheme-agnostic check passes...
  EXPECT_THROW(config.validate_margin(), std::invalid_argument);  // ...MP's no
  config.margin = 1u << 17;
  EXPECT_NO_THROW(config.validate_margin());
}

// The contract that matters to clients: scheme *constructors* throw, in
// every build type, so a misconfigured scheme can never come into being.

TEST(ConfigValidate, SchemeConstructorsReject) {
  Config config = valid_config();
  config.slots_per_thread = -1;
  EXPECT_THROW(mp::smr::HP<TestNode> hp(config), std::invalid_argument);
  EXPECT_THROW(mp::smr::EBR<TestNode> ebr(config), std::invalid_argument);
  EXPECT_THROW(mp::smr::HE<TestNode> he(config), std::invalid_argument);
  EXPECT_THROW(mp::smr::IBR<TestNode> ibr(config), std::invalid_argument);
  EXPECT_THROW(mp::smr::DTA<TestNode> dta(config), std::invalid_argument);
  EXPECT_THROW(mp::smr::MP<TestNode> mp_(config), std::invalid_argument);
  EXPECT_THROW(mp::smr::Leaky<TestNode> leaky(config), std::invalid_argument);
}

TEST(ConfigValidate, SmallMarginRejectedByMpAcceptedElsewhere) {
  Config config = valid_config();
  config.margin = 1u << 10;
  EXPECT_THROW(mp::smr::MP<TestNode> mp_(config), std::invalid_argument);
  EXPECT_NO_THROW(mp::smr::HP<TestNode> hp(config));   // margin is MP-only
  EXPECT_NO_THROW(mp::smr::EBR<TestNode> ebr(config));
}

// A structure protects up to kRequiredSlots nodes at once; with fewer
// slots its upper refnos would be written but never scanned. The check
// must hold in release builds, not only as a debug assert.
template <typename DS, typename... Args>
void expect_slot_check(Args... args) {
  Config config = valid_config();
  config.slots_per_thread = DS::kRequiredSlots - 1;
  EXPECT_THROW(DS ds(config, args...), std::invalid_argument);
  config.slots_per_thread = DS::kRequiredSlots;
  EXPECT_NO_THROW(DS ds(config, args...));
}

TEST(ConfigValidate, StructuresRejectTooFewSlots) {
  using namespace mp::ds;
  expect_slot_check<MichaelList<mp::smr::MP>>();
  expect_slot_check<MichaelHashSet<mp::smr::MP>>(std::size_t{4});
  expect_slot_check<FraserSkipList<mp::smr::MP>>();
  expect_slot_check<NatarajanTree<mp::smr::MP>>();
}

TEST(ConfigValidate, ThrowsBeforeAnyAllocation) {
  // Validation must gate member construction: a wildly invalid Config must
  // not be used to size per-thread arrays before being rejected.
  Config config = valid_config();
  config.max_threads = static_cast<std::size_t>(-1);
  EXPECT_THROW(mp::smr::EBR<TestNode> ebr(config), std::invalid_argument);
}

}  // namespace
