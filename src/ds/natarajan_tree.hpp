// Natarajan–Mittal lock-free external BST (PPoPP 2014) — paper §5.3.
//
// Leaves store the set's keys; internal nodes only route (search goes left
// when key < node.key, right otherwise). An insert replaces a leaf with an
// internal router whose children are the old leaf and the new leaf; a
// delete removes a leaf and its parent router. Deletion works on *edges*:
// the child words carry two mark bits,
//     FLAG — the leaf this edge points to is being deleted,
//     TAG  — this edge is frozen (its subtree is being spliced out),
// and proceeds by (1) injection: flag the parent->leaf edge, then
// (2) cleanup: tag the parent's other (sibling) edge and swing the
// ancestor's child pointer from the successor to the sibling, pruning the
// whole under-deletion path in one CAS.
//
// Retirement is ownership-based: the thread whose injection CAS flagged a
// leaf owns that (leaf, parent) pair and retires both once they are
// unreachable (its own cleanup succeeded, or a re-seek shows the leaf
// gone). A pruned path's intermediate routers are each the flagged parent
// of some other delete, so every removed node is retired exactly once.
//
// MP integration (Listing 9): the seek reports the shrinking search
// interval — update_upper_bound when turning left, update_lower_bound when
// turning right — including the node the search terminates at (DESIGN.md
// deviation 6, which lets the ∞0 sentinel seed the upper bound). A new
// router copies the index of its equal-keyed child (deviation 5).
//
// Sentinels: keys ∞0 < ∞1 < ∞2 occupy the top of the key space; the ∞0
// leaf gets index max_index, the never-removed R/S/∞1/∞2 nodes keep
// USE_HP (§5.3).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "smr/smr.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class NatarajanTree {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  /// Sentinel keys; client keys must be < kInf0.
  static constexpr Key kInf2 = ~0ULL;
  static constexpr Key kInf1 = ~0ULL - 1;
  static constexpr Key kInf0 = ~0ULL - 2;

  /// ancestor + successor/parent + leaf + scratch for the seek rotation,
  /// plus one slot pinning a deleter's flagged leaf across re-seeks.
  static constexpr int kRequiredSlots = 6;
  static constexpr int kOwnerSlot = 5;

  /// Edge mark bits.
  static constexpr unsigned kFlag = 1;
  static constexpr unsigned kTag = 2;

  struct Node : smr::NodeBase {
    const Key key;
    Value value;
    smr::AtomicTaggedPtr left;
    smr::AtomicTaggedPtr right;

    Node(Key k, Value v) : key(k), value(v) {}
  };

  using Scheme = SchemeT<Node>;

  explicit NatarajanTree(const smr::Config& config) : smr_(config) {
    config.validate_slots(kRequiredSlots, "NatarajanTree");
    // Initial state (paper Fig 1): R{inf2}(S, leaf inf2), S{inf1}(leaf inf0,
    // leaf inf1). All permanent; only the inf0 leaf carries a real index.
    Node* leaf0 = smr_.alloc(0, kInf0, Value{0});
    smr_.set_index(leaf0, smr::kMaxIndex);
    Node* leaf1 = smr_.alloc(0, kInf1, Value{0});
    Node* leaf2 = smr_.alloc(0, kInf2, Value{0});
    s_ = smr_.alloc(0, kInf1, Value{0});
    r_ = smr_.alloc(0, kInf2, Value{0});
    s_->left.store(smr_.make_link(leaf0));
    s_->right.store(smr_.make_link(leaf1));
    r_->left.store(smr_.make_link(s_));
    r_->right.store(smr_.make_link(leaf2));
  }

  ~NatarajanTree() {
    // Single-threaded teardown: free the linked tree iteratively.
    std::vector<Node*> stack{r_};
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      Node* left = node->left.load(std::memory_order_relaxed)
                       .template ptr<Node>();
      Node* right = node->right.load(std::memory_order_relaxed)
                        .template ptr<Node>();
      if (left != nullptr) stack.push_back(left);
      if (right != nullptr) stack.push_back(right);
      smr_.delete_unlinked(node);
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
  /// Multi-key lookup under ONE operation bracket (DESIGN.md §12): K seeks
  /// share a single start_op/end_op. Each key linearizes at its own seek,
  /// like get(); the batch is not atomic across keys. found[i] / values[i]
  /// mirror get()'s out-params; returns the hit count.
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
    assert(key < kInf0);
    smr::OperationScope<Scheme> scope(smr_, tid);
    SeekRecord sr;
    seek(tid, key, sr);
    return sr.leaf->key == key;
  }

  bool do_get(int tid, Key key, Value& value_out) {
    assert(key < kInf0);
    smr::OperationScope<Scheme> scope(smr_, tid);
    SeekRecord sr;
    seek(tid, key, sr);
    if (sr.leaf->key != key) return false;
    value_out = sr.leaf->value;
    return true;
  }

  std::size_t do_get_many(int tid, const Key* keys, std::size_t count,
                          Value* values, bool* found) {
    smr::OperationScope<Scheme> scope(smr_, tid);
    std::size_t hits = 0;
    SeekRecord sr;
    for (std::size_t i = 0; i < count; ++i) {
      assert(keys[i] < kInf0);
      seek(tid, keys[i], sr);
      const bool hit = sr.leaf->key == keys[i];
      found[i] = hit;
      if (hit) {
        values[i] = sr.leaf->value;
        ++hits;
      }
    }
    return hits;
  }

  bool do_insert(int tid, Key key, Value value) {
    assert(key < kInf0);
    smr::OperationScope<Scheme> scope(smr_, tid);
    SeekRecord sr;
    while (true) {
      seek(tid, key, sr);
      Node* leaf = sr.leaf;
      if (leaf->key == key) return false;
      // The seek's bounds are the key's pred/succ indices: the new leaf
      // gets the midpoint; the router shares its equal-keyed child's index.
      Node* new_leaf = smr_.alloc(tid, key, value);
      Node* router;
      try {
        router = smr_.alloc(tid, key > leaf->key ? key : leaf->key,
                            Value{0});
      } catch (...) {
        // An OOM on the second alloc must not strand the first: the leaf
        // was never linked, so it can be freed directly.
        smr_.delete_unlinked(tid, new_leaf);
        throw;
      }
      smr_.copy_index(router, key > leaf->key ? new_leaf : leaf);
      if (key < leaf->key) {
        router->left.store(smr_.make_link(new_leaf));
        router->right.store(smr_.make_link(leaf));
      } else {
        router->left.store(smr_.make_link(leaf));
        router->right.store(smr_.make_link(new_leaf));
      }
      smr::AtomicTaggedPtr* parent_field = child_field(sr.parent, key);
      TaggedPtr expected = smr_.make_link(leaf);  // clean edge
      if (parent_field->compare_exchange_strong(expected,
                                                smr_.make_link(router))) {
        return true;
      }
      smr_.delete_unlinked(tid, new_leaf);
      smr_.delete_unlinked(tid, router);
      // Help an in-progress deletion of this leaf before retrying.
      const TaggedPtr word = parent_field->load(std::memory_order_acquire);
      if (word.template ptr<Node>() == leaf && word.mark() != 0) {
        cleanup(tid, key, sr);
      }
    }
  }

  bool do_remove(int tid, Key key) {
    assert(key < kInf0);
    smr::OperationScope<Scheme> scope(smr_, tid);
    SeekRecord sr;
    Node* my_leaf = nullptr;
    while (true) {
      seek(tid, key, sr);
      if (my_leaf == nullptr) {
        // Injection mode: claim the leaf by flagging its incoming edge.
        Node* leaf = sr.leaf;
        if (leaf->key != key) return false;
        smr::AtomicTaggedPtr* parent_field = child_field(sr.parent, key);
        TaggedPtr expected = smr_.make_link(leaf);
        if (!parent_field->compare_exchange_strong(
                expected, smr_.make_link(leaf, kFlag))) {
          // Failed: help whoever marked this edge, then retry.
          const TaggedPtr word =
              parent_field->load(std::memory_order_acquire);
          if (word.template ptr<Node>() == leaf && word.mark() != 0) {
            cleanup(tid, key, sr);
          }
          continue;
        }
        my_leaf = leaf;
        // Keep the flagged leaf protected across the re-seeks below (their
        // slot rotation would drop it): prevents its address from being
        // recycled while we compare against it.
        smr_.pin(tid, kOwnerSlot, my_leaf);
        if (cleanup(tid, key, sr)) return true;
        continue;
      }
      // Cleanup mode: keep pruning until our leaf is unreachable. The
      // successful pruner — us or a helper — retires the removed pair.
      if (sr.leaf != my_leaf) return true;  // a helper pruned it
      if (cleanup(tid, key, sr)) return true;
    }
  }

 public:
  // ---- Single-threaded helpers for tests and examples ----

  /// Number of client keys. Not linearizable.
  std::size_t size() const { return collect_keys().size(); }

  /// Check the external-BST routing invariant and leaf order.
  bool validate() const {
    return validate_node(r_, 0, kInf2) && ordered_leaves();
  }

  std::vector<Key> keys() const { return collect_keys(); }

  /// MP index invariant over the in-order leaf sequence (single-threaded):
  /// real leaf indices strictly increase with the keys. Routers share an
  /// equal-keyed child's index by design (DESIGN.md deviation 5), so only
  /// leaves are checked for uniqueness.
  bool validate_indices() const {
    std::vector<const Node*> leaves;
    collect_leaf_nodes(r_, leaves);
    std::uint64_t previous = 0;
    bool first_leaf = true;
    for (const Node* leaf : leaves) {
      const std::uint32_t index = leaf->smr_header.index_relaxed();
      if (index == smr::kUseHp) continue;
      if (!first_leaf && index <= previous) return false;
      previous = index;
      first_leaf = false;
    }
    return true;
  }

 private:
  using TaggedPtr = smr::TaggedPtr;

  struct SeekRecord {
    Node* ancestor;
    Node* successor;
    Node* parent;
    Node* leaf;
  };

  static smr::AtomicTaggedPtr* child_field(Node* node, Key key) noexcept {
    return key < node->key ? &node->left : &node->right;
  }

  /// NM seek with SMR protection and MP bound reporting. On return the
  /// record's four nodes are protected by refno slots.
  ///
  /// SMR-soundness note: the seek never traverses a flagged or tagged edge.
  /// Marked edges are frozen, so a pointer-validation read through one can
  /// succeed long after the target subtree was pruned and its nodes retired
  /// — protect-after-retire. A *clean* edge word, by contrast, proves its
  /// tail node was not part of any pruned segment at the load (a cleanup
  /// marks both of a chain node's edges before its prune CAS), hence the
  /// target was still reachable and unretired when our protection was
  /// already visible. On a marked edge the seek helps the pending cleanup
  /// and restarts; deletion still linearizes at the injection flag.
  void seek(int tid, Key key, SeekRecord& sr) {
  restart:
    sr.ancestor = r_;
    sr.successor = s_;
    sr.parent = s_;
    // Slot roles rotate: ancestor <- parent <- leaf <- child. R and S are
    // permanent so the initial protections are vacuous.
    int slot_a = 0, slot_p = 2, slot_l = 3, spare = 4;
    TaggedPtr leaf_word = smr_.read(tid, slot_l, s_->left);
    assert(leaf_word.mark() == 0);  // S's edges are never marked (§5.3)
    sr.leaf = leaf_word.template ptr<Node>();
    while (true) {
      Node* node = sr.leaf;
      smr::AtomicTaggedPtr* down;
      if (key < node->key) {
        smr_.update_upper_bound(tid, node);
        down = &node->left;
      } else {
        smr_.update_lower_bound(tid, node);
        down = &node->right;
      }
      const TaggedPtr current = smr_.read(tid, spare, *down);
      if (current.is_null()) return;  // node is a leaf; search ends
      // The child's key and edge words are the next loads; overlap the
      // fetch with the mark check.
      __builtin_prefetch(current.template ptr<Node>());
      if (current.mark() != 0) {
        // A deletion is pending below this node: help prune it, using the
        // current (protected) record with `node` in the parent role, then
        // restart from the root.
        SeekRecord help{sr.parent, node, node, current.template ptr<Node>()};
        cleanup(tid, key, help);
        goto restart;
      }
      // Descend across the clean edge; every crossed edge is untagged, so
      // ancestor/successor advance on each step (successor == parent).
      const int released = slot_a;
      sr.ancestor = sr.parent;
      slot_a = slot_p;
      sr.successor = sr.leaf;
      sr.parent = sr.leaf;
      slot_p = slot_l;
      sr.leaf = current.template ptr<Node>();
      slot_l = spare;
      spare = released;
    }
  }

  /// NM cleanup: freeze the parent's kept edge and swing the ancestor's
  /// child from the successor to it, pruning the parent and the discarded
  /// (flagged) leaf. Returns true if this call did the prune.
  ///
  /// Retirement happens HERE, by the thread whose prune CAS succeeds: the
  /// CAS is unique per removal, so the parent and the discarded leaf are
  /// each retired exactly once — in particular, two deletes that flag both
  /// children of one parent cannot both retire it (the first prune
  /// relocates the second flagged leaf upward, still linked).
  bool cleanup(int tid, Key key, const SeekRecord& sr) {
    Node* ancestor = sr.ancestor;
    Node* parent = sr.parent;
    smr::AtomicTaggedPtr* ancestor_field = child_field(ancestor, key);
    smr::AtomicTaggedPtr* child;
    smr::AtomicTaggedPtr* other;
    if (key < parent->key) {
      child = &parent->left;
      other = &parent->right;
    } else {
      child = &parent->right;
      other = &parent->left;
    }
    const TaggedPtr child_word = child->load(std::memory_order_acquire);
    // Every caller observed a mark on the key-side edge (marks are
    // permanent); a flag there means that leaf is the victim, a bare tag
    // means the victim hangs off the other side.
    if (child_word.mark() == 0) return false;
    smr::AtomicTaggedPtr* kept;
    smr::AtomicTaggedPtr* discarded;
    if ((child_word.mark() & kFlag) != 0) {
      discarded = child;
      kept = other;
    } else {
      discarded = other;
      kept = child;
    }
    // Freeze the kept edge (preserving a flag if one is set). After this,
    // both of the parent's edges are marked and immutable.
    while (true) {
      const TaggedPtr word = kept->load(std::memory_order_acquire);
      if ((word.mark() & kTag) != 0) break;
      TaggedPtr expected = word;
      if (kept->compare_exchange_strong(
              expected, word.with_mark(word.mark() | kTag))) {
        break;
      }
    }
    const TaggedPtr kept_word = kept->load(std::memory_order_acquire);
    // Prune: ancestor adopts the kept child; the tag is dropped, the kept
    // child's own flag (if any) travels with it.
    TaggedPtr expected = smr_.make_link(sr.successor);
    const TaggedPtr desired = kept_word.with_mark(kept_word.mark() & kFlag);
    if (!ancestor_field->compare_exchange_strong(expected, desired)) {
      return false;
    }
    // We did the prune: the parent and the discarded leaf are unreachable,
    // and both edges of the parent are frozen, so the discarded word is
    // stable. Neither node can have been retired before (the CAS is the
    // unique removal point), so retiring here is exactly-once.
    Node* victim =
        discarded->load(std::memory_order_acquire).template ptr<Node>();
    smr_.retire(tid, victim);
    smr_.retire(tid, parent);
    return true;
  }

  // -- teardown / validation helpers (single-threaded) --

  std::vector<Key> collect_keys() const {
    std::vector<Key> out;
    collect(r_, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  void collect(Node* node, std::vector<Key>& out) const {
    Node* left =
        node->left.load(std::memory_order_relaxed).template ptr<Node>();
    Node* right =
        node->right.load(std::memory_order_relaxed).template ptr<Node>();
    if (left == nullptr && right == nullptr) {
      if (node->key < kInf0) out.push_back(node->key);
      return;
    }
    if (left != nullptr) collect(left, out);
    if (right != nullptr) collect(right, out);
  }

  bool validate_node(Node* node, Key low, Key high) const {
    Node* left =
        node->left.load(std::memory_order_relaxed).template ptr<Node>();
    Node* right =
        node->right.load(std::memory_order_relaxed).template ptr<Node>();
    if (left == nullptr && right == nullptr) {
      return node->key >= low && node->key <= high;
    }
    if (left == nullptr || right == nullptr) return false;  // external tree
    if (node->key == 0) return false;  // router keys route a nonempty left
    // Left subtree: keys < node.key; right subtree: keys >= node.key.
    return validate_node(left, low, node->key - 1) &&
           validate_node(right, node->key, high);
  }

  bool ordered_leaves() const {
    std::vector<Key> leaves;
    collect_all_leaves(r_, leaves);
    for (std::size_t i = 1; i < leaves.size(); ++i) {
      if (leaves[i - 1] >= leaves[i]) return false;
    }
    return true;
  }

  void collect_leaf_nodes(const Node* node,
                          std::vector<const Node*>& out) const {
    const Node* left =
        node->left.load(std::memory_order_relaxed).template ptr<Node>();
    const Node* right =
        node->right.load(std::memory_order_relaxed).template ptr<Node>();
    if (left == nullptr && right == nullptr) {
      out.push_back(node);
      return;
    }
    collect_leaf_nodes(left, out);
    collect_leaf_nodes(right, out);
  }

  void collect_all_leaves(Node* node, std::vector<Key>& out) const {
    Node* left =
        node->left.load(std::memory_order_relaxed).template ptr<Node>();
    Node* right =
        node->right.load(std::memory_order_relaxed).template ptr<Node>();
    if (left == nullptr && right == nullptr) {
      out.push_back(node->key);
      return;
    }
    collect_all_leaves(left, out);
    collect_all_leaves(right, out);
  }

  Scheme smr_;
  Node* r_;
  Node* s_;
};

}  // namespace mp::ds
