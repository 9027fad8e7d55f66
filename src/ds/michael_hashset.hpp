// Michael's lock-free hash set (SPAA 2002): a fixed array of bucket heads,
// each bucket an independent sorted lock-free linked list between a head
// sentinel (key 0) and a tail sentinel (key 2^64-1). This is the one
// implementation of Michael's algorithm in the repo: MichaelList
// (michael_list.hpp), the client of paper §5.2 (Listing 7), is its
// one-bucket case.
//
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
// A hash table is not globally a search data structure (Definition 4.1
// needs one total order), but each bucket is, so MP still applies: the
// 32-bit index space is striped across buckets — bucket b's sentinels take
// the endpoints of stripe b and every node inserted into the bucket gets a
// midpoint index inside the stripe. Linked-node indices remain globally
// unique and traversals stay index-local, so MP's margins and its wasted-
// memory bound carry over unchanged. With one bucket the stripe is the
// whole space and the sentinels get kMinIndex and kMaxIndex, exactly the
// list's. With many buckets the chains are short, so MP's margin
// amortization is modest — the structure is then primarily an HP-regime
// client (paper Table 1: "= HP (Other DS)").
//
// Template parameter: the SMR scheme (any class in smr/). Protection uses
// three rotating refno slots (prev, curr, next).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "smr/smr.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class MichaelHashSet {
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

  /// `buckets` rounds up to a power of two.
  MichaelHashSet(const smr::Config& config, std::size_t buckets)
      : smr_(config), bucket_count_(round_up_pow2(buckets)) {
    config.validate_slots(kRequiredSlots, "MichaelHashSet");
    heads_ = std::make_unique<Bucket[]>(bucket_count_);
    // Stripe the index space: bucket b owns indices
    // [b*stripe, (b+1)*stripe), sentinels at the stripe endpoints.
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      Node* head = smr_.alloc(0, kMinKey, Value{0});
      Node* tail = smr_.alloc(0, kMaxKey, Value{0});
      smr_.set_index(head, static_cast<std::uint32_t>(b * stripe()));
      smr_.set_index(tail,
                     static_cast<std::uint32_t>((b + 1) * stripe() - 2));
      head->next.store(smr_.make_link(tail));
      heads_[b].head = head;
      heads_[b].tail = tail;
    }
  }

  ~MichaelHashSet() {
    // Single-threaded teardown: free the linked chains (retired nodes are
    // drained by the scheme's destructor).
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      Node* node = heads_[b].head;
      while (node != nullptr) {
        Node* following = node->next.load(std::memory_order_relaxed)
                              .template ptr<Node>();
        smr_.delete_unlinked(node);
        node = following;
      }
    }
  }

  Scheme& scheme() noexcept { return smr_; }
  const Scheme& scheme() const noexcept { return smr_; }
  std::size_t bucket_count() const noexcept { return bucket_count_; }

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
  /// Multi-key lookup under ONE operation bracket (DESIGN.md §12): found[i]
  /// says whether keys[i] was present and values[i] holds its value when it
  /// was. Returns the hit count. The batch runs in chunks of
  /// kPrefetchChunk keys with a software-pipelined warm-up: first each
  /// key's bucket head line, then each bucket's first chain node, then the
  /// protected seeks — so the K independent bucket walks overlap their
  /// cache misses instead of serializing them. The warm-up only *loads
  /// pointer values* and prefetches the lines they name; no unprotected
  /// dereference happens (prefetching a freed line is harmless), so SMR
  /// safety is untouched. Each key linearizes at its own seek, like get();
  /// the batch is NOT atomic across keys — it just amortizes the operation
  /// bracket (fences, epoch announcement) over the whole batch.
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
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      for (Node* node = first(b); node != heads_[b].tail;
           node = next_of(node)) {
        ++count;
      }
    }
    return count;
  }

  /// Every bucket sorted and unique, every key hashed to its own bucket;
  /// returns false on violation.
  bool validate() const {
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      Key previous = kMinKey;
      for (Node* node = first(b); node != heads_[b].tail;
           node = next_of(node)) {
        if (node == nullptr || node->key <= previous ||
            node->key >= kMaxKey || bucket_of(node->key) != b) {
          return false;
        }
        previous = node->key;
      }
    }
    return true;
  }

  /// Verify MP's index invariants per bucket (single-threaded): real
  /// indices strictly increase along the bucket and stay strictly inside
  /// its stripe (b*stripe, (b+1)*stripe-2) — order-consistency and
  /// uniqueness of linked real indices, the two properties Theorem 4.2's
  /// wasted-memory bound rests on. Trivially true for non-MP schemes
  /// (every index is USE_HP).
  bool validate_indices() const {
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      std::uint64_t previous = b * stripe();  // the head sentinel's index
      const std::uint64_t tail_index = (b + 1) * stripe() - 2;
      for (Node* node = first(b); node != heads_[b].tail;
           node = next_of(node)) {
        const std::uint32_t index = node->smr_header.index_relaxed();
        if (index == smr::kUseHp) continue;  // collision fallback: exempt
        if (index <= previous || index >= tail_index) return false;
        previous = index;
      }
    }
    return true;
  }

  /// Snapshot of the keys, bucket by bucket in chain order (for one bucket:
  /// sorted). Single-threaded only.
  std::vector<Key> keys() const {
    std::vector<Key> out;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      for (Node* node = first(b); node != heads_[b].tail;
           node = next_of(node)) {
        out.push_back(node->key);
      }
    }
    return out;
  }

 private:
  using TaggedPtr = smr::TaggedPtr;

  /// get_many pipeline width: enough independent bucket walks in flight to
  /// saturate typical miss-level parallelism without spilling the warm-up
  /// array out of registers/L1.
  static constexpr std::size_t kPrefetchChunk = 16;

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
    for (std::size_t base = 0; base < count; base += kPrefetchChunk) {
      const std::size_t n =
          count - base < kPrefetchChunk ? count - base : kPrefetchChunk;
      Node* heads[kPrefetchChunk];
      for (std::size_t j = 0; j < n; ++j) {
        heads[j] = heads_[bucket_of(keys[base + j])].head;
        __builtin_prefetch(&heads[j]->next);
      }
      for (std::size_t j = 0; j < n; ++j) {
        __builtin_prefetch(heads[j]
                               ->next.load(std::memory_order_relaxed)
                               .template ptr<Node>());
      }
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t i = base + j;
        assert(keys[i] > kMinKey && keys[i] < kMaxKey);
        const Seek seek = locate(tid, keys[i]);
        const bool hit = seek.curr_node->key == keys[i];
        found[i] = hit;
        if (hit) {
          values[i] = seek.curr_node->value;
          ++hits;
        }
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

  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  struct Seek {
    smr::AtomicTaggedPtr* prev_link;  ///< &pred->next
    TaggedPtr curr;                   ///< clean word observed in *prev_link
    Node* curr_node;                  ///< first node with key >= target
    int curr_slot;                    ///< refno protecting curr_node
    int next_slot;                    ///< free refno for the caller
  };

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  /// Width of one bucket's index stripe (2^32 for a single bucket).
  std::uint64_t stripe() const noexcept {
    return (1ULL << 32) / bucket_count_;
  }

  std::size_t bucket_of(Key key) const noexcept {
    // Fibonacci hashing: multiplicative spread, then mask.
    return (key * 0x9E3779B97F4A7C15ULL >> 32) & (bucket_count_ - 1);
  }

  /// Listing 7's seek, confined to the key's bucket: returns with
  /// curr_node = first node whose key >= k (possibly the tail sentinel),
  /// helping to splice out marked nodes on the way, and reporting the
  /// shrinking search interval to MP.
  Seek locate(int tid, Key key) {
    Bucket& bucket = heads_[bucket_of(key)];
  restart:
    // The search interval opens at the bucket's head sentinel, so an insert
    // before the bucket's first node takes an index inside the stripe (the
    // op-start default, kMinIndex, lies in bucket 0's stripe).
    smr_.update_lower_bound(tid, bucket.head);
    smr::AtomicTaggedPtr* prev_link = &bucket.head->next;
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

  Node* first(std::size_t b) const { return next_of(heads_[b].head); }
  static Node* next_of(Node* node) {
    return node->next.load(std::memory_order_acquire).template ptr<Node>();
  }

  Scheme smr_;
  std::size_t bucket_count_;
  std::unique_ptr<Bucket[]> heads_;
};

}  // namespace mp::ds
