// Fraser-style lock-free skip list (Fraser, PhD thesis 2004) — paper §5.2.
//
// The skip list is a tower of Michael-style linked lists ordered by
// containment; every node is linked at level 0 and with probability 2^-i at
// level i. Deletion marks the victim's next words from the top level down —
// the level-0 mark is the linearization point and selects the single
// deleting thread — after which a find() pass physically splices the node
// out of every level; only the deleter retires it, after its find pass, so
// a node is retired exactly once and only when unreachable.
//
// Open race (ROADMAP "Fix the FraserSkipList use-after-free"): a racing
// insert can re-link an upper level after the deleter's find pass. The
// inserter pins its node while linking and finishes with a deletion
// re-check + help-find, but the deleter may already have finished its
// splice pass and retired the node before the inserter's upper-level CAS.
// The node is then reachable after retire, and the pin covers only the
// inserter (operation-scoped schemes ignore it), so a prompt reclaimer
// (HP, MP, Hyaline) can free a node other readers still reach.
//
// Refno slot budget: three rotating slots per level (pred/curr/next, so a
// level's final pred+succ protections persist untouched while lower levels
// traverse), plus one self slot for inserts: 3*kMaxHeight + 1.
//
// MP integration (paper §5.2): the search interval shrinks exactly as in
// the single list; update_lower_bound on every rightward move and
// update_upper_bound at each level's stopping node. At level 0 the bounds
// are the true predecessor and successor of the key.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/align.hpp"
#include "common/rng.hpp"
#include "smr/smr.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class FraserSkipList {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  static constexpr Key kMinKey = 0;
  static constexpr Key kMaxKey = ~0ULL;

  static constexpr int kMaxHeight = 20;
  static constexpr int kRequiredSlots = 3 * kMaxHeight + 1;
  static constexpr int kSelfSlot = 3 * kMaxHeight;

  struct Node : smr::NodeBase {
    const Key key;
    Value value;
    const int height;
    smr::AtomicTaggedPtr next[kMaxHeight];

    Node(Key k, Value v, int h) : key(k), value(v), height(h) {}
  };

  using Scheme = SchemeT<Node>;

  explicit FraserSkipList(const smr::Config& config)
      : smr_(config),
        rngs_(std::make_unique<common::Padded<common::Xoshiro256>[]>(
            config.max_threads)) {
    config.validate_slots(kRequiredSlots, "FraserSkipList");
    for (std::size_t t = 0; t < config.max_threads; ++t) {
      rngs_[t].value = common::Xoshiro256{0x5ee9 + 0x9e3779b9 * t};
    }
    head_ = smr_.alloc(0, kMinKey, Value{0}, kMaxHeight);
    smr_.set_index(head_, smr::kMinIndex);
    tail_ = smr_.alloc(0, kMaxKey, Value{0}, kMaxHeight);
    smr_.set_index(tail_, smr::kMaxIndex);
    for (int level = 0; level < kMaxHeight; ++level) {
      head_->next[level].store(smr_.make_link(tail_));
    }
  }

  ~FraserSkipList() {
    Node* node = head_;
    while (node != nullptr) {
      Node* following = node->next[0]
                            .load(std::memory_order_relaxed)
                            .template ptr<Node>();
      smr_.delete_unlinked(node);
      node = following;
    }
  }

  Scheme& scheme() noexcept { return smr_; }
  const Scheme& scheme() const noexcept { return smr_; }

  // Typed-handle entry points (smr/handle.hpp).
  using Handle = smr::ThreadHandle<Scheme>;

  bool contains(Handle handle, Key key) {
    assert(&handle.scheme() == &smr_);
    return do_contains(handle.tid(), key);
  }
  bool get(Handle handle, Key key, Value& value_out) {
    assert(&handle.scheme() == &smr_);
    return do_get(handle.tid(), key, value_out);
  }
  /// Multi-key lookup under ONE operation bracket (DESIGN.md §12): K
  /// read-only descents share a single start_op/end_op — and under MP a
  /// single margin installation often covers consecutive descents the same
  /// way it covers consecutive levels. Each key linearizes at its own
  /// search, like get(); the batch is not atomic across keys. found[i] /
  /// values[i] mirror get()'s out-params; returns the hit count.
  std::size_t get_many(Handle handle, const Key* keys, std::size_t count,
                       Value* values, bool* found) {
    assert(&handle.scheme() == &smr_);
    return do_get_many(handle.tid(), keys, count, values, found);
  }
  bool insert(Handle handle, Key key, Value value) {
    assert(&handle.scheme() == &smr_);
    return do_insert(handle.tid(), key, value);
  }
  bool remove(Handle handle, Key key) {
    assert(&handle.scheme() == &smr_);
    return do_remove(handle.tid(), key);
  }

 private:
  bool do_contains(int tid, Key key) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    Node* node = search(tid, key);
    return node != nullptr;
  }

  bool do_get(int tid, Key key, Value& value_out) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    Node* node = search(tid, key);
    if (node == nullptr) return false;
    value_out = node->value;
    return true;
  }

  std::size_t do_get_many(int tid, const Key* keys, std::size_t count,
                          Value* values, bool* found) {
    smr::OperationScope<Scheme> scope(smr_, tid);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < count; ++i) {
      assert(keys[i] > kMinKey && keys[i] < kMaxKey);
      Node* node = search(tid, keys[i]);
      found[i] = node != nullptr;
      if (node != nullptr) {
        values[i] = node->value;
        ++hits;
      }
    }
    return hits;
  }

  bool do_insert(int tid, Key key, Value value) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    FindResult result;
    Node* node = nullptr;
    const int height = random_height(tid);

    // Link at level 0 — the insert's linearization point.
    while (true) {
      if (find(tid, key, result)) {
        if (node != nullptr) smr_.delete_unlinked(tid, node);
        return false;
      }
      if (node != nullptr) {
        // Retry after a lost race: the search interval moved, so the
        // node's index (computed from the previous find's bounds) may no
        // longer sit between its neighbors — reallocate for a fresh
        // midpoint, preserving MP's index order/uniqueness invariant.
        smr_.delete_unlinked(tid, node);
      }
      // Bounds from this find are the key's true pred/succ (Listing 5).
      node = smr_.alloc(tid, key, value, height);
      smr_.pin(tid, kSelfSlot, node);
      for (int level = 0; level < height; ++level) {
        node->next[level].store(result.succ_words[level]);
      }
      TaggedPtr expected = result.succ_words[0];
      if (result.preds[0]->next[0].compare_exchange_strong(
              expected, smr_.make_link(node))) {
        break;
      }
    }

    // Link the upper tower levels; abort if a deleter claimed the node.
    for (int level = 1; level < height; ++level) {
      while (true) {
        const TaggedPtr self_next =
            node->next[level].load(std::memory_order_acquire);
        if (self_next.mark() != 0) return true;  // deletion in progress
        if (node->next[0].load(std::memory_order_acquire).mark() != 0) {
          find(tid, key, result);  // help splice out any stale links
          return true;
        }
        const TaggedPtr succ = result.succ_words[level];
        if (self_next != succ) {
          TaggedPtr expected = self_next;
          if (!node->next[level].compare_exchange_strong(expected, succ)) {
            continue;  // marked under us; re-examine
          }
        }
        TaggedPtr expected = succ;
        if (result.preds[level]->next[level].compare_exchange_strong(
                expected, smr_.make_link(node))) {
          break;
        }
        // Stale preds/succs; refresh. If the key is gone or replaced, our
        // node is logically deleted — stop linking.
        if (!find(tid, key, result) || result.found != node) {
          if (node->next[0].load(std::memory_order_acquire).mark() != 0) {
            find(tid, key, result);
          }
          return true;
        }
      }
    }

    // Deletion re-check: a deleter may have finished its splice pass before
    // we linked the last level; splice any stale link before unprotecting.
    if (node->next[0].load(std::memory_order_acquire).mark() != 0) {
      find(tid, key, result);
    }
    return true;
  }

  bool do_remove(int tid, Key key) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    FindResult result;
    if (!find(tid, key, result)) return false;
    Node* node = result.found;

    // Mark the upper levels top-down (best effort; helpers may race).
    for (int level = node->height - 1; level >= 1; --level) {
      while (true) {
        const TaggedPtr word = node->next[level].load(std::memory_order_acquire);
        if (word.mark() != 0) break;
        TaggedPtr expected = word;
        if (node->next[level].compare_exchange_strong(expected,
                                                      word.with_mark(1))) {
          break;
        }
      }
    }
    // Level-0 mark: the deletion's linearization point and owner election.
    while (true) {
      const TaggedPtr word = node->next[0].load(std::memory_order_acquire);
      if (word.mark() != 0) return false;  // another deleter won
      TaggedPtr expected = word;
      if (node->next[0].compare_exchange_strong(expected, word.with_mark(1))) {
        break;
      }
    }
    // Physically splice the node out of every level, then retire: the find
    // pass traverses the key's search path, which crosses the node at each
    // level where it is still linked.
    find(tid, key, result);
    smr_.retire(tid, node);
    return true;
  }

 public:
  // ---- Single-threaded helpers for tests and examples ----

  std::size_t size() const {
    std::size_t count = 0;
    for (Node* node = first(); node != tail_; node = next_of(node, 0)) {
      ++count;
    }
    return count;
  }

  /// Check the per-level sorted order and tower containment invariants.
  bool validate() const {
    // Level lists are sorted and terminate at the tail.
    for (int level = 0; level < kMaxHeight; ++level) {
      Key previous = kMinKey;
      Node* node = next_of(head_, level);
      while (node != tail_) {
        if (node == nullptr || node->key <= previous) return false;
        if (level >= node->height) return false;
        previous = node->key;
        node = next_of(node, level);
      }
      if (node != tail_) return false;
    }
    // Every level-i node appears at level i-1 (containment).
    for (int level = kMaxHeight - 1; level >= 1; --level) {
      for (Node* node = next_of(head_, level); node != tail_;
           node = next_of(node, level)) {
        bool present = false;
        for (Node* below = next_of(head_, level - 1); below != tail_;
             below = next_of(below, level - 1)) {
          if (below == node) {
            present = true;
            break;
          }
        }
        if (!present) return false;
      }
    }
    return true;
  }

  std::vector<Key> keys() const {
    std::vector<Key> out;
    for (Node* node = first(); node != tail_; node = next_of(node, 0)) {
      out.push_back(node->key);
    }
    return out;
  }

  /// MP index invariant along the bottom level (single-threaded): real
  /// indices strictly increase with the keys — order consistency plus
  /// uniqueness, the basis of Theorem 4.2.
  bool validate_indices() const {
    std::uint64_t previous = 0;  // head's index (kMinIndex)
    for (Node* node = first(); node != tail_; node = next_of(node, 0)) {
      const std::uint32_t index = node->smr_header.index_relaxed();
      if (index == smr::kUseHp) continue;
      if (index <= previous) return false;
      previous = index;
    }
    return true;
  }

 private:
  using TaggedPtr = smr::TaggedPtr;

  struct FindResult {
    Node* preds[kMaxHeight];
    TaggedPtr succ_words[kMaxHeight];  ///< clean words in preds[i]->next[i]
    Node* found = nullptr;             ///< level-0 match, nullptr if absent
  };

  static constexpr int level_slot(int level, int member) {
    return 3 * level + member;
  }

  /// Fraser's find: per level, walk right splicing marked nodes, record the
  /// pred/succ pair, and descend. Returns true iff an unmarked node with
  /// the key is present at level 0.
  bool find(int tid, Key key, FindResult& result) {
  restart:
    Node* pred = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      // Rotating slot triple private to this level, so the recorded
      // pred/succ protections of higher levels stay untouched.
      int curr_slot = level_slot(level, 0);
      int spare_a = level_slot(level, 1);
      int spare_b = level_slot(level, 2);
      smr::AtomicTaggedPtr* pred_link = &pred->next[level];
      TaggedPtr curr = smr_.read(tid, curr_slot, *pred_link);
      // A marked entry word means pred was deleted at this level after we
      // descended into it; operating through its frozen pointer would
      // resurrect spliced nodes (and lose the deleter's mark). Restart.
      if (curr.mark() != 0) goto restart;
      while (true) {
        Node* curr_node = curr.template ptr<Node>();
        assert(curr_node != nullptr);
        const TaggedPtr next =
            smr_.read(tid, spare_a, curr_node->next[level]);
        if (next.mark() != 0) {
          // curr is deleted at this level: splice it out (no retire here —
          // the deleter retires after its own find pass).
          TaggedPtr expected = curr;
          const TaggedPtr desired = next.without_mark();
          if (!pred_link->compare_exchange_strong(expected, desired)) {
            goto restart;
          }
          curr = desired;
          std::swap(curr_slot, spare_a);
          continue;
        }
        if (curr_node->key < key) {
          smr_.update_lower_bound(tid, curr_node);
          pred = curr_node;
          pred_link = &curr_node->next[level];
          // Rotate: pred keeps curr's slot, next's slot becomes curr's.
          const int released = spare_b;
          spare_b = curr_slot;
          curr_slot = spare_a;
          spare_a = released;
          curr = next;
          continue;
        }
        smr_.update_upper_bound(tid, curr_node);
        result.preds[level] = pred;
        result.succ_words[level] = curr;
        break;
      }
    }
    Node* bottom = result.succ_words[0].template ptr<Node>();
    result.found = (bottom->key == key) ? bottom : nullptr;
    return result.found != nullptr;
  }

  /// Read-only descent for contains/get: unlike find(), it records no
  /// per-level pred/succ pairs, so THREE protection slots rotate across the
  /// whole traversal — the paper's "a search operation requires two MPs"
  /// (§5.2) plus one for the lookahead. Successive levels land at nearby
  /// indices, so margins installed at one level keep covering the next —
  /// the skip-list fence reduction of Fig 5 lives here. Marked nodes are
  /// still spliced out (or the search restarts): traversing *through* a
  /// frozen marked word would defeat protect-validate (see mp.hpp).
  Node* search(int tid, Key key) {
  restart:
    Node* pred = head_;
    int pred_slot = 0, curr_slot = 1, spare_slot = 2;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      smr::AtomicTaggedPtr* pred_link = &pred->next[level];
      TaggedPtr curr = smr_.read(tid, curr_slot, *pred_link);
      if (curr.mark() != 0) goto restart;  // pred deleted at this level
      while (true) {
        Node* curr_node = curr.template ptr<Node>();
        assert(curr_node != nullptr);
        if (curr_node->key > key) {
          if (level == 0) return nullptr;
          break;  // descend; pred and its protection carry over
        }
        if (curr_node->key == key) {
          // Present iff not logically deleted: the level-0 mark is the
          // deletion's linearization point, so it must be consulted.
          const TaggedPtr below =
              smr_.read(tid, spare_slot, curr_node->next[0]);
          return below.mark() == 0 ? curr_node : nullptr;
        }
        const TaggedPtr next = smr_.read(tid, spare_slot, curr_node->next[level]);
        // The successor's key and next word are the next loads on this
        // level; start the fetch while the mark check resolves.
        __builtin_prefetch(next.template ptr<Node>());
        if (next.mark() != 0) {
          TaggedPtr expected = curr;
          const TaggedPtr desired = next.without_mark();
          if (!pred_link->compare_exchange_strong(expected, desired)) {
            goto restart;
          }
          curr = desired;
          std::swap(curr_slot, spare_slot);
          continue;
        }
        pred = curr_node;
        pred_link = &curr_node->next[level];
        const int released = pred_slot;
        pred_slot = curr_slot;
        curr_slot = spare_slot;
        spare_slot = released;
        curr = next;
      }
    }
    return nullptr;  // unreachable: level 0 always returns
  }

  int random_height(int tid) noexcept {
    const std::uint64_t bits = rngs_[tid]->next();
    int height = 1;
    while (height < kMaxHeight && (bits >> (height - 1) & 1) != 0) ++height;
    return height;
  }

  Node* first() const { return next_of(head_, 0); }
  static Node* next_of(Node* node, int level) {
    return node->next[level]
        .load(std::memory_order_acquire)
        .template ptr<Node>();
  }

  Scheme smr_;
  std::unique_ptr<common::Padded<common::Xoshiro256>[]> rngs_;
  Node* head_;
  Node* tail_;
};

}  // namespace mp::ds
