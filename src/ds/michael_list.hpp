// Michael's lock-free linked list (SPAA 2002), with a tail sentinel and MP
// search-interval maintenance — the client of paper §5.2 (Listing 7).
//
// The list keeps keys in strictly increasing order between a head sentinel
// (key 0, index 0) and a tail sentinel (key 2^64-1, index max_index).
// Deletion is two-step: the deleter first sets the *deleted* mark bit in
// the victim's own next word, then the victim is physically spliced out by
// whoever notices — and only the successful splicer retires it, so retire
// happens exactly once and only after the node is unreachable.
//
// Traversal discipline, load-bearing for SMR safety (see mp.hpp): the seek
// only advances through *clean* (unmarked) words. A clean word read from
// curr->next proves curr was not deleted at the load, hence the successor
// was linked at the load; a marked word triggers help-unlink-or-restart.
//
// Template parameter: the SMR scheme (any class in smr/). Protection uses
// three rotating refno slots (prev, curr, next).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "smr/smr.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class MichaelList {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  /// Reserved sentinel keys; client keys must lie strictly between them.
  static constexpr Key kMinKey = 0;
  static constexpr Key kMaxKey = ~0ULL;

  /// Refno slots used by this data structure.
  static constexpr int kRequiredSlots = 3;

  struct Node : smr::NodeBase {
    const Key key;
    Value value;
    smr::AtomicTaggedPtr next;

    Node(Key k, Value v) : key(k), value(v) {}
  };

  using Scheme = SchemeT<Node>;

  explicit MichaelList(const smr::Config& config) : smr_(config) {
    assert(config.slots_per_thread >= kRequiredSlots);
    head_ = smr_.alloc(0, kMinKey, 0);
    smr_.set_index(head_, smr::kMinIndex);
    tail_ = smr_.alloc(0, kMaxKey, 0);
    smr_.set_index(tail_, smr::kMaxIndex);
    head_->next.store(smr_.make_link(tail_));
  }

  ~MichaelList() {
    // Single-threaded teardown: free the linked chain (retired nodes are
    // drained by the scheme's destructor).
    Node* node = head_;
    while (node != nullptr) {
      Node* following = node->next.load(std::memory_order_relaxed)
                            .template ptr<Node>();
      smr_.delete_unlinked(node);
      node = following;
    }
  }

  Scheme& scheme() noexcept { return smr_; }
  const Scheme& scheme() const noexcept { return smr_; }

  // ---- Typed-handle API (smr/handle.hpp) ----
  //
  // The entry points: the handle binds (scheme, tid) into one value, so a
  // tid can't be paired with the wrong scheme instance.
  using Handle = smr::ThreadHandle<Scheme>;

  /// Set membership. Linearizes at the seek's final clean pointer load.
  bool contains(Handle handle, Key key) {
    assert(&handle.scheme() == &smr_);
    return do_contains(handle.tid(), key);
  }
  /// Lookup with value copy-out.
  bool get(Handle handle, Key key, Value& value_out) {
    assert(&handle.scheme() == &smr_);
    return do_get(handle.tid(), key, value_out);
  }
  /// Multi-key lookup under ONE start_op/end_op bracket (DESIGN.md §12):
  /// found[i] says whether keys[i] was present and values[i] holds its
  /// value when it was. Returns the hit count. Each key linearizes at its
  /// own seek's final clean pointer load, exactly like get(); the batch is
  /// NOT atomic across keys — it just amortizes the operation bracket
  /// (fences, epoch announcement) over the whole batch.
  std::size_t get_many(Handle handle, const Key* keys, std::size_t count,
                       Value* values, bool* found) {
    assert(&handle.scheme() == &smr_);
    return do_get_many(handle.tid(), keys, count, values, found);
  }
  /// Insert key; returns false if already present.
  bool insert(Handle handle, Key key, Value value) {
    assert(&handle.scheme() == &smr_);
    return do_insert(handle.tid(), key, value);
  }
  /// Remove key; returns false if absent.
  bool remove(Handle handle, Key key) {
    assert(&handle.scheme() == &smr_);
    return do_remove(handle.tid(), key);
  }

  // ---- Single-threaded helpers for tests and examples ----

  /// Number of client keys (excludes sentinels). Not linearizable.
  std::size_t size() const {
    std::size_t count = 0;
    for (Node* node = first(); node != tail_; node = next_of(node)) ++count;
    return count;
  }

  /// Verify the sorted-unique invariant; returns false on violation.
  bool validate() const {
    Key previous = kMinKey;
    for (Node* node = first(); node != tail_; node = next_of(node)) {
      if (node->key <= previous || node->key >= kMaxKey) return false;
      previous = node->key;
    }
    return true;
  }

  /// Verify MP's index invariants along the list (single-threaded):
  /// order-consistency (k1 < k2 => idx1 <= idx2 over real indices) and
  /// uniqueness of linked real indices — the two properties Theorem 4.2's
  /// wasted-memory bound rests on. Trivially true for non-MP schemes
  /// (every index is USE_HP).
  bool validate_indices() const {
    std::uint64_t previous = 0;  // head's index (kMinIndex)
    for (Node* node = first(); node != tail_; node = next_of(node)) {
      const std::uint32_t index = node->smr_header.index_relaxed();
      if (index == smr::kUseHp) continue;  // collision fallback: exempt
      if (index <= previous) return false;
      previous = index;
    }
    return true;
  }

  /// Snapshot of the keys, in list order. Single-threaded only.
  std::vector<Key> keys() const {
    std::vector<Key> out;
    for (Node* node = first(); node != tail_; node = next_of(node)) {
      out.push_back(node->key);
    }
    return out;
  }

 private:
  using TaggedPtr = smr::TaggedPtr;

  bool do_contains(int tid, Key key) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    const Seek seek = locate(tid, key);
    return seek.curr_node->key == key;
  }

  bool do_get(int tid, Key key, Value& value_out) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    const Seek seek = locate(tid, key);
    if (seek.curr_node->key != key) return false;
    value_out = seek.curr_node->value;
    return true;
  }

  std::size_t do_get_many(int tid, const Key* keys, std::size_t count,
                          Value* values, bool* found) {
    smr::OperationScope<Scheme> scope(smr_, tid);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < count; ++i) {
      assert(keys[i] > kMinKey && keys[i] < kMaxKey);
      const Seek seek = locate(tid, keys[i]);
      const bool hit = seek.curr_node->key == keys[i];
      found[i] = hit;
      if (hit) {
        values[i] = seek.curr_node->value;
        ++hits;
      }
    }
    return hits;
  }

  bool do_insert(int tid, Key key, Value value) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    while (true) {
      const Seek seek = locate(tid, key);
      if (seek.curr_node->key == key) return false;
      // The MP search interval is now (pred, succ); alloc assigns the
      // midpoint index (Listing 5).
      Node* node = smr_.alloc(tid, key, value);
      node->next.store(smr_.make_link(seek.curr_node));
      TaggedPtr expected = seek.curr;
      if (seek.prev_link->compare_exchange_strong(expected,
                                                  smr_.make_link(node))) {
        return true;
      }
      // Lost the race; the node was never published.
      smr_.delete_unlinked(tid, node);
    }
  }

  bool do_remove(int tid, Key key) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    while (true) {
      const Seek seek = locate(tid, key);
      if (seek.curr_node->key != key) return false;
      // Logical deletion: mark the victim's next word. Exactly one thread
      // wins this CAS per node lifetime.
      const TaggedPtr successor =
          smr_.read(tid, seek.next_slot, seek.curr_node->next);
      if (successor.mark() != 0) continue;  // someone else is deleting it
      TaggedPtr expected = successor;
      if (!seek.curr_node->next.compare_exchange_strong(
              expected, successor.with_mark(1))) {
        continue;
      }
      // Physical removal; on failure a concurrent seek will splice it out
      // (and that seek retires it).
      expected = seek.curr;
      if (seek.prev_link->compare_exchange_strong(expected, successor)) {
        smr_.retire(tid, seek.curr_node);
      } else {
        locate(tid, key);
      }
      return true;
    }
  }

  struct Seek {
    smr::AtomicTaggedPtr* prev_link;  ///< &pred->next
    TaggedPtr curr;                   ///< clean word observed in *prev_link
    Node* curr_node;                  ///< first node with key >= target
    int curr_slot;                    ///< refno protecting curr_node
    int next_slot;                    ///< free refno for the caller
  };

  /// Listing 7's seek: returns with curr_node = first node whose key >= k
  /// (possibly the tail sentinel), helping to splice out marked nodes on
  /// the way, and reporting the shrinking search interval to MP.
  Seek locate(int tid, Key key) {
  restart:
    smr::AtomicTaggedPtr* prev_link = &head_->next;
    int prev_slot = 2, curr_slot = 0, next_slot = 1;
    TaggedPtr curr = smr_.read(tid, curr_slot, *prev_link);
    while (true) {
      Node* curr_node = curr.template ptr<Node>();
      assert(curr_node != nullptr);  // the tail sentinel terminates seeks
      const TaggedPtr next = smr_.read(tid, next_slot, curr_node->next);
      // The successor's key and next word are the very next loads; issue
      // the fetch now so it overlaps the mark check (nullptr is a no-op).
      __builtin_prefetch(next.template ptr<Node>());
      if (next.mark() != 0) {
        // curr is logically deleted: splice it out or restart.
        TaggedPtr expected = curr;
        const TaggedPtr desired = next.without_mark();
        if (!prev_link->compare_exchange_strong(expected, desired)) {
          goto restart;
        }
        smr_.retire(tid, curr_node);
        curr = desired;
        std::swap(curr_slot, next_slot);  // next's protection now covers curr
        continue;
      }
      if (curr_node->key >= key) {
        smr_.update_upper_bound(tid, curr_node);
        return Seek{prev_link, curr, curr_node, curr_slot, next_slot};
      }
      smr_.update_lower_bound(tid, curr_node);
      // Advance: prev <- curr, curr <- next; rotate the three slots.
      prev_link = &curr_node->next;
      const int released = prev_slot;
      prev_slot = curr_slot;
      curr_slot = next_slot;
      next_slot = released;
      curr = next;
    }
  }

  Node* first() const {
    return head_->next.load(std::memory_order_acquire)
        .template ptr<Node>();
  }
  static Node* next_of(Node* node) {
    return node->next.load(std::memory_order_acquire).template ptr<Node>();
  }

  Scheme smr_;
  Node* head_;
  Node* tail_;
};

}  // namespace mp::ds
