// Michael's lock-free hash set (SPAA 2002 — the same paper as the list):
// a fixed array of bucket heads, each bucket an independent sorted
// Michael-style linked list.
//
// A hash table is not globally a search data structure (Definition 4.1
// needs one total order), but each bucket is, so MP still applies: the
// 32-bit index space is striped across buckets — bucket b's sentinels take
// the endpoints of stripe b and every node inserted into the bucket gets a
// midpoint index inside the stripe. Linked-node indices remain globally
// unique and traversals stay index-local, so MP's margins and its wasted-
// memory bound carry over unchanged. Buckets are short, so MP's margin
// amortization is modest — the structure is primarily an HP-regime client
// (paper Table 1: "= HP (Other DS)").
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "smr/smr.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class MichaelHashSet {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  static constexpr Key kMinKey = 0;
  static constexpr Key kMaxKey = ~0ULL;

  static constexpr int kRequiredSlots = 3;

  struct Node : smr::NodeBase {
    const Key key;
    Value value;
    smr::AtomicTaggedPtr next;

    Node(Key k, Value v) : key(k), value(v) {}
  };

  using Scheme = SchemeT<Node>;

  MichaelHashSet(const smr::Config& config, std::size_t buckets)
      : smr_(config), bucket_count_(round_up_pow2(buckets)) {
    assert(config.slots_per_thread >= kRequiredSlots);
    heads_ = std::make_unique<Bucket[]>(bucket_count_);
    // Stripe the index space: bucket b owns indices
    // [b*stripe, (b+1)*stripe), sentinels at the stripe endpoints.
    const std::uint64_t stripe = (1ULL << 32) / bucket_count_;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      Node* head = smr_.alloc(0, kMinKey, Value{0});
      Node* tail = smr_.alloc(0, kMaxKey, Value{0});
      smr_.set_index(head, static_cast<std::uint32_t>(b * stripe));
      smr_.set_index(
          tail, static_cast<std::uint32_t>((b + 1) * stripe - 2));
      head->next.store(smr_.make_link(tail));
      heads_[b].head = head;
      heads_[b].tail = tail;
    }
  }

  ~MichaelHashSet() {
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
  /// Multi-key lookup under ONE operation bracket (DESIGN.md §12). The
  /// batch runs in chunks of kPrefetchChunk keys with a software-pipelined
  /// warm-up: first each key's bucket head line, then each bucket's first
  /// chain node, then the protected seeks — so the K independent bucket
  /// walks overlap their cache misses instead of serializing them. The
  /// warm-up only *loads pointer values* and prefetches the lines they
  /// name; no unprotected dereference happens (prefetching a freed line is
  /// harmless), so SMR safety is untouched. Each key still linearizes at
  /// its own seek, like get(). Returns the hit count.
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

  // ---- Single-threaded helpers ----

  std::size_t size() const {
    std::size_t count = 0;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      for (Node* node = next_of(heads_[b].head); node != heads_[b].tail;
           node = next_of(node)) {
        ++count;
      }
    }
    return count;
  }

  /// Every bucket sorted; every key hashed to its own bucket.
  bool validate() const {
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      Key previous = kMinKey;
      for (Node* node = next_of(heads_[b].head); node != heads_[b].tail;
           node = next_of(node)) {
        if (node == nullptr || node->key <= previous) return false;
        if (bucket_of(node->key) != b) return false;
        previous = node->key;
      }
    }
    return true;
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
      Node* node = smr_.alloc(tid, key, value);
      node->next.store(smr_.make_link(seek.curr_node));
      TaggedPtr expected = seek.curr;
      if (seek.prev_link->compare_exchange_strong(expected,
                                                  smr_.make_link(node))) {
        return true;
      }
      smr_.delete_unlinked(tid, node);
    }
  }

  bool do_remove(int tid, Key key) {
    assert(key > kMinKey && key < kMaxKey);
    smr::OperationScope<Scheme> scope(smr_, tid);
    while (true) {
      const Seek seek = locate(tid, key);
      if (seek.curr_node->key != key) return false;
      const TaggedPtr successor =
          smr_.read(tid, seek.next_slot, seek.curr_node->next);
      if (successor.mark() != 0) continue;
      TaggedPtr expected = successor;
      if (!seek.curr_node->next.compare_exchange_strong(
              expected, successor.with_mark(1))) {
        continue;
      }
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
    smr::AtomicTaggedPtr* prev_link;
    TaggedPtr curr;
    Node* curr_node;
    int curr_slot;
    int next_slot;
  };

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t bucket_of(Key key) const noexcept {
    // Fibonacci hashing: multiplicative spread, then mask.
    return (key * 0x9E3779B97F4A7C15ULL >> 32) & (bucket_count_ - 1);
  }

  /// Same protocol as MichaelList::locate, confined to the key's bucket.
  Seek locate(int tid, Key key) {
    Bucket& bucket = heads_[bucket_of(key)];
  restart:
    smr::AtomicTaggedPtr* prev_link = &bucket.head->next;
    int prev_slot = 2, curr_slot = 0, next_slot = 1;
    TaggedPtr curr = smr_.read(tid, curr_slot, *prev_link);
    while (true) {
      Node* curr_node = curr.template ptr<Node>();
      assert(curr_node != nullptr);
      const TaggedPtr next = smr_.read(tid, next_slot, curr_node->next);
      if (next.mark() != 0) {
        TaggedPtr expected = curr;
        const TaggedPtr desired = next.without_mark();
        if (!prev_link->compare_exchange_strong(expected, desired)) {
          goto restart;
        }
        smr_.retire(tid, curr_node);
        curr = desired;
        std::swap(curr_slot, next_slot);
        continue;
      }
      if (curr_node->key >= key) {
        smr_.update_upper_bound(tid, curr_node);
        return Seek{prev_link, curr, curr_node, curr_slot, next_slot};
      }
      smr_.update_lower_bound(tid, curr_node);
      prev_link = &curr_node->next;
      const int released = prev_slot;
      prev_slot = curr_slot;
      curr_slot = next_slot;
      next_slot = released;
      curr = next;
    }
  }

  static Node* next_of(Node* node) {
    return node->next.load(std::memory_order_acquire).template ptr<Node>();
  }

  Scheme smr_;
  std::size_t bucket_count_;
  std::unique_ptr<Bucket[]> heads_;
};

}  // namespace mp::ds
