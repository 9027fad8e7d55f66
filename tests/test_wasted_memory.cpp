// The paper's central claim, as executable properties: with a thread
// stalled mid-operation,
//   * EBR reclaims nothing (not robust, §3.2);
//   * HE/IBR reclaim post-stall garbage but pin everything alive at the
//     stall — waste proportional to data-structure size (§3.3, §1);
//   * HP and MP keep wasted memory *bounded* regardless of structure size
//     and churn volume (Theorem 4.2).
//
// The stall is injected deterministically: a thread enters an operation on
// the real data structure (protecting a node mid-traversal), then blocks on
// a condition variable while other threads churn.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "ds_test_util.hpp"
#include "test_util.hpp"

namespace {

using mp::test::ds_config;

/// Deterministic mid-operation stall on a scheme: start an op, protect one
/// node via read(), then wait until released.
template <typename Scheme, typename Node>
class StalledReader {
 public:
  StalledReader(Scheme& scheme, int tid, mp::smr::AtomicTaggedPtr& cell)
      : thread_([this, &scheme, tid, &cell] {
          scheme.start_op(tid);
          scheme.read(tid, 0, cell);
          {
            std::unique_lock lock(mutex_);
            stalled_ = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
          }
          scheme.end_op(tid);
        }) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return stalled_; });
  }

  void release_and_join() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stalled_ = false;
  bool released_ = false;
  std::thread thread_;
};

/// Churn helper: allocate and retire `count` nodes with spread-out indices
/// from thread 0 while the stall is active.
template <typename Scheme>
void churn(Scheme& scheme, int count) {
  for (int i = 0; i < count; ++i) {
    auto* node = scheme.alloc(0, static_cast<std::uint64_t>(i));
    scheme.set_index(node, static_cast<std::uint32_t>(
                               (static_cast<std::uint64_t>(i) * 97) << 12));
    scheme.retire(0, node);
  }
}

template <template <typename> class SchemeT>
std::uint64_t waste_under_stall(int churn_count) {
  using Scheme = SchemeT<mp::test::TestNode>;
  mp::smr::Config config;
  config.max_threads = 2;
  config.slots_per_thread = 4;
  config.empty_freq = 1;
  config.epoch_freq = 32;
  Scheme scheme(config);
  auto* anchor = scheme.alloc(0, 0u);
  scheme.set_index(anchor, 1u << 24);
  mp::smr::AtomicTaggedPtr cell(scheme.make_link(anchor));
  StalledReader<Scheme, mp::test::TestNode> stall(scheme, 1, cell);
  churn(scheme, churn_count);
  const std::uint64_t waste = scheme.outstanding() - 1;  // minus the anchor
  stall.release_and_join();
  scheme.delete_unlinked(0, anchor);
  return waste;
}

TEST(WastedMemory, EbrUnboundedUnderStall) {
  const std::uint64_t small = waste_under_stall<mp::smr::EBR>(1000);
  const std::uint64_t large = waste_under_stall<mp::smr::EBR>(4000);
  EXPECT_EQ(small, 1000u) << "EBR reclaims nothing under a stall";
  EXPECT_EQ(large, 4000u) << "waste grows linearly with churn";
}

TEST(WastedMemory, RobustSchemesWasteIndependentOfChurn) {
  // HE/IBR waste must not scale with churn volume (nodes born after the
  // stall are reclaimable) — the robustness property.
  for (auto waste_fn : {waste_under_stall<mp::smr::HE>,
                        waste_under_stall<mp::smr::IBR>}) {
    const std::uint64_t small = waste_fn(1000);
    const std::uint64_t large = waste_fn(8000);
    EXPECT_LT(large, 200u);
    EXPECT_LE(large, small + 64) << "robust waste must not grow with churn";
  }
}

TEST(WastedMemory, BoundedSchemesWasteSmallAndFlat) {
  for (auto waste_fn : {waste_under_stall<mp::smr::HP>,
                        waste_under_stall<mp::smr::MP>}) {
    const std::uint64_t small = waste_fn(1000);
    const std::uint64_t large = waste_fn(8000);
    EXPECT_LE(small, 64u);
    EXPECT_LE(large, 64u) << "bounded schemes pin O(slots*T) nodes";
  }
}

// ---- The §1 scenario, end to end on a real data structure ----
//
// "The data structure can grow arbitrarily large before a thread stalls
// mid-operation; if other threads subsequently empty the data structure,
// none of the removed nodes can be reclaimed by IBR or HE."

template <template <typename> class SchemeT>
std::uint64_t paper_intro_scenario(std::size_t structure_size) {
  using Tree = mp::ds::NatarajanTree<SchemeT>;
  mp::smr::Config config = ds_config(2, Tree::kRequiredSlots, 1);
  config.epoch_freq = 64;
  Tree tree(config);
  // Grow the structure from thread 0.
  for (std::uint64_t key = 1; key <= structure_size; ++key) {
    tree.insert(tree.scheme().handle(0), key * 2, key);
  }
  // Thread 1 stalls mid-operation: start an op and protect a node by
  // starting a contains() on the scheme level. We emulate the mid-operation
  // point by bracketing manually (the tree's ops are scheme clients).
  auto& scheme = tree.scheme();
  scheme.start_op(1);
  // Perform one protected read, as the first step of a seek would, so that
  // per-read schemes (HE) announce an era; then "stall". The auxiliary
  // node stands in for the root the seek would be holding.
  auto* aux = scheme.alloc(1, std::uint64_t{0}, std::uint64_t{0});
  mp::smr::AtomicTaggedPtr aux_cell(scheme.make_link(aux));
  scheme.read(1, 0, aux_cell);
  // Now thread 0 empties the structure.
  for (std::uint64_t key = 1; key <= structure_size; ++key) {
    tree.remove(tree.scheme().handle(0), key * 2);
  }
  const std::uint64_t waste = scheme.outstanding();
  scheme.end_op(1);
  scheme.delete_unlinked(aux);
  return waste;
}

TEST(WastedMemory, PaperIntroScenarioHeIbrScaleWithStructure) {
  const auto he_small = paper_intro_scenario<mp::smr::HE>(500);
  const auto he_large = paper_intro_scenario<mp::smr::HE>(2000);
  EXPECT_GT(he_large, 3000u)
      << "HE pins ~2 nodes per removed key (leaf + router)";
  EXPECT_GT(he_large, he_small * 2)
      << "waste scales with the structure size at stall time";
  const auto ibr_large = paper_intro_scenario<mp::smr::IBR>(2000);
  EXPECT_GT(ibr_large, 3000u);
}

TEST(WastedMemory, PaperIntroScenarioMpHpStayBounded) {
  const auto mp_small = paper_intro_scenario<mp::smr::MP>(500);
  const auto mp_large = paper_intro_scenario<mp::smr::MP>(2000);
  const auto hp_large = paper_intro_scenario<mp::smr::HP>(2000);
  // The live sentinels remain outstanding (5 initial nodes); waste beyond
  // that must stay flat.
  EXPECT_LE(mp_small, 128u);
  EXPECT_LE(mp_large, 128u) << "MP waste must not scale with structure size";
  EXPECT_LE(hp_large, 128u);
}

TEST(WastedMemory, Fig6MetricAvgRetiredSampled) {
  // The Fig 6 measurement plumbing: avg retired-list size at op start.
  using List = mp::ds::MichaelList<mp::smr::MP>;
  List list(ds_config(2, List::kRequiredSlots, 8));
  for (std::uint64_t key = 1; key <= 200; ++key) {
    list.insert(list.scheme().handle(0), key, key);
  }
  for (std::uint64_t key = 1; key <= 200; ++key) {
    list.remove(list.scheme().handle(0), key);
  }
  const auto snapshot = list.scheme().stats_snapshot();
  EXPECT_EQ(snapshot.retired_samples, 400u);
  EXPECT_GE(snapshot.avg_retired(), 0.0);
  EXPECT_LT(snapshot.avg_retired(), 16.0)
      << "MP keeps the sampled retired-list size near the empty_freq buffer";
}

}  // namespace
