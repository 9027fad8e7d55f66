// Copy-on-write AVL tree: serialized writers, lock-free SMR-protected
// readers — the "MP naturally applies to tree rotations" claim of the
// paper's full version (§5 pointer to thesis §4.4.5), made concrete.
//
// Writers take a mutex, rebuild the root-to-key path persistently (path
// copying, including any rotation), publish the new root with one store,
// and retire every node the update replaced. Nodes are immutable once
// published, so readers need no per-edge validation — instead a reader
// re-checks that the ROOT is unchanged after each protected hop: an
// unchanged root means no writer has published (and therefore nothing has
// been retired) since the reader's traversal began, so every node on its
// path was reachable and unretired when its protection became visible. If
// the root moved, the reader restarts. This is the classic read-mostly
// snapshot-tree protocol; with SMR it is safe without a garbage collector.
//
// Retirement note: an update's intermediate copies (a clone that a
// rotation immediately re-clones) are retired too — they were never
// published, so nothing can reference them and retiring is trivially safe;
// it just routes their reclamation through the scheme, keeping the
// bookkeeping single-path.
//
// MP integration under rotations: a rotation copies nodes but never
// changes a key, so each copy takes its original's index (copy_index) and
// the order-consistent mapping survives arbitrary rebalancing — exactly
// why MP protects *logical* subsets. Fresh keys get midpoint indices from
// the search interval maintained during the descent, as usual.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

#include "smr/smr.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class CowAvlTree {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  /// root + two alternating traversal slots.
  static constexpr int kRequiredSlots = 3;

  struct Node : smr::NodeBase {
    const Key key;
    const Value value;
    const int height;
    // Children are written only while unpublished (under the writer lock),
    // then immutable; AtomicTaggedPtr keeps reader loads race-free.
    smr::AtomicTaggedPtr left;
    smr::AtomicTaggedPtr right;

    Node(Key k, Value v, int h) : key(k), value(v), height(h) {}
  };

  using Scheme = SchemeT<Node>;

  explicit CowAvlTree(const smr::Config& config) : smr_(config) {
    assert(config.slots_per_thread >= kRequiredSlots);
    root_.store(smr::TaggedPtr::null());
  }

  ~CowAvlTree() {
    free_subtree(root_.load(std::memory_order_relaxed).template ptr<Node>());
  }

  Scheme& scheme() noexcept { return smr_; }
  const Scheme& scheme() const noexcept { return smr_; }

  // Typed-handle entry points (smr/handle.hpp). Readers are lock-free;
  // writers serialize on the writer mutex.
  using Handle = smr::ThreadHandle<Scheme>;

  bool contains(Handle handle, Key key) {
    assert(&handle.scheme() == &smr_);
    return do_contains(handle.tid(), key);
  }
  bool get(Handle handle, Key key, Value& value_out) {
    assert(&handle.scheme() == &smr_);
    return do_get(handle.tid(), key, value_out);
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
  // ---- Readers: lock-free ----

  bool do_contains(int tid, Key key) {
    Value ignored;
    return do_get(tid, key, ignored);
  }

  bool do_get(int tid, Key key, Value& value_out) {
    smr::OperationScope<Scheme> scope(smr_, tid);
  retry:
    const TaggedPtr root_word = smr_.read(tid, kRootSlot, root_);
    Node* node = root_word.template ptr<Node>();
    int slot = kWalkSlotA;
    while (node != nullptr) {
      if (node->key == key) {
        value_out = node->value;
        return true;
      }
      const smr::AtomicTaggedPtr& child =
          key < node->key ? node->left : node->right;
      node = smr_.read(tid, slot, child).template ptr<Node>();
      // Unchanged root => no publish => nothing retired since we started,
      // so the node we just protected was reachable and safe. Otherwise
      // the path may already be retired: restart from the new root.
      if (root_.load(std::memory_order_acquire) != root_word) goto retry;
      slot = (slot == kWalkSlotA) ? kWalkSlotB : kWalkSlotA;
    }
    return false;
  }

  // ---- Writers: serialized, persistent path copy + rotations ----

  bool do_insert(int tid, Key key, Value value) {
    std::lock_guard lock(writer_mutex_);
    smr::OperationScope<Scheme> scope(smr_, tid);
    Node* root = root_.load(std::memory_order_relaxed).template ptr<Node>();
    replaced_.clear();
    bool inserted = false;
    Node* next_root = insert_rec(tid, root, key, value, inserted);
    if (!inserted) return false;
    publish(tid, next_root);
    return true;
  }

  bool do_remove(int tid, Key key) {
    std::lock_guard lock(writer_mutex_);
    smr::OperationScope<Scheme> scope(smr_, tid);
    Node* root = root_.load(std::memory_order_relaxed).template ptr<Node>();
    replaced_.clear();
    bool removed = false;
    Node* next_root = remove_rec(tid, root, key, removed);
    if (!removed) return false;
    publish(tid, next_root);
    return true;
  }

 public:

  // ---- Single-threaded helpers ----

  std::size_t size() const {
    return count(root_.load(std::memory_order_relaxed).template ptr<Node>());
  }

  /// BST order + AVL balance factor in [-1, 1] + height bookkeeping.
  bool validate() const {
    Node* root = root_.load(std::memory_order_relaxed).template ptr<Node>();
    return check(root, nullptr, nullptr) >= 0;
  }

  /// In-order key snapshot. Single-threaded only.
  std::vector<Key> keys() const {
    std::vector<Key> out;
    collect(root_.load(std::memory_order_relaxed).template ptr<Node>(), out);
    return out;
  }

 private:
  using TaggedPtr = smr::TaggedPtr;

  static constexpr int kRootSlot = 0;
  static constexpr int kWalkSlotA = 1;
  static constexpr int kWalkSlotB = 2;

  static Node* child(const Node* node, bool right) {
    const smr::AtomicTaggedPtr& link = right ? node->right : node->left;
    return link.load(std::memory_order_relaxed).template ptr<Node>();
  }
  static Node* left_of(const Node* node) { return child(node, false); }
  static Node* right_of(const Node* node) { return child(node, true); }
  static int height_of(const Node* node) {
    return node == nullptr ? 0 : node->height;
  }
  static int balance_of(const Node* node) {
    return height_of(left_of(node)) - height_of(right_of(node));
  }

  /// Allocate a node carrying `original`'s key, value, and MP index (COW
  /// copies and rotations preserve indices — the §4.4.5 property), and
  /// mark the original as replaced by this update.
  Node* clone_with(int tid, const Node* original, Node* new_left,
                   Node* new_right) {
    const int height =
        1 + std::max(height_of(new_left), height_of(new_right));
    Node* copy = smr_.alloc(tid, original->key, original->value, height);
    smr_.copy_index(copy, const_cast<Node*>(original));
    copy->left.store(smr_.make_link(new_left));
    copy->right.store(smr_.make_link(new_right));
    replaced_.push_back(const_cast<Node*>(original));
    return copy;
  }

  Node* make_leaf(int tid, Key key, Value value) {
    Node* node = smr_.alloc(tid, key, value, 1);
    node->left.store(TaggedPtr::null());
    node->right.store(TaggedPtr::null());
    return node;
  }

  /// Rebalance a freshly built (unpublished) node. Rotation clones retire
  /// the intermediate copies through replaced_ (see header note).
  Node* rebalance(int tid, Node* node) {
    const int balance = balance_of(node);
    if (balance > 1) {
      Node* l = left_of(node);
      if (balance_of(l) < 0) {
        // Left-right double rotation: lr becomes the subtree root.
        Node* lr = right_of(l);
        Node* new_l = clone_with(tid, l, left_of(l), left_of(lr));
        Node* new_this = clone_with(tid, node, right_of(lr), right_of(node));
        return clone_with(tid, lr, new_l, new_this);
      }
      // Left-left single rotation: l becomes the subtree root.
      Node* new_this = clone_with(tid, node, right_of(l), right_of(node));
      return clone_with(tid, l, left_of(l), new_this);
    }
    if (balance < -1) {
      Node* r = right_of(node);
      if (balance_of(r) > 0) {
        Node* rl = left_of(r);
        Node* new_r = clone_with(tid, r, right_of(rl), right_of(r));
        Node* new_this = clone_with(tid, node, left_of(node), left_of(rl));
        return clone_with(tid, rl, new_this, new_r);
      }
      Node* new_this = clone_with(tid, node, left_of(node), left_of(r));
      return clone_with(tid, r, new_this, right_of(r));
    }
    return node;
  }

  Node* insert_rec(int tid, Node* node, Key key, Value value,
                   bool& inserted) {
    if (node == nullptr) {
      inserted = true;
      return make_leaf(tid, key, value);
    }
    if (node->key == key) {
      inserted = false;
      return node;
    }
    if (key < node->key) {
      smr_.update_upper_bound(tid, node);
      Node* new_left = insert_rec(tid, left_of(node), key, value, inserted);
      if (!inserted) return node;
      return rebalance(tid, clone_with(tid, node, new_left, right_of(node)));
    }
    smr_.update_lower_bound(tid, node);
    Node* new_right = insert_rec(tid, right_of(node), key, value, inserted);
    if (!inserted) return node;
    return rebalance(tid, clone_with(tid, node, left_of(node), new_right));
  }

  Node* remove_rec(int tid, Node* node, Key key, bool& removed) {
    if (node == nullptr) {
      removed = false;
      return nullptr;
    }
    if (key < node->key) {
      Node* new_left = remove_rec(tid, left_of(node), key, removed);
      if (!removed) return node;
      return rebalance(tid, clone_with(tid, node, new_left, right_of(node)));
    }
    if (key > node->key) {
      Node* new_right = remove_rec(tid, right_of(node), key, removed);
      if (!removed) return node;
      return rebalance(tid, clone_with(tid, node, left_of(node), new_right));
    }
    // Found the key.
    removed = true;
    replaced_.push_back(node);
    Node* left = left_of(node);
    Node* right = right_of(node);
    if (left == nullptr) return right;
    if (right == nullptr) return left;
    // Two children: replace with the in-order successor (leftmost of the
    // right subtree), whose copy keeps its index (same key).
    const Node* successor = right;
    while (left_of(successor) != nullptr) successor = left_of(successor);
    Node* new_right = remove_min_rec(tid, right);
    const int height = 1 + std::max(height_of(left), height_of(new_right));
    Node* replacement =
        smr_.alloc(tid, successor->key, successor->value, height);
    smr_.copy_index(replacement, const_cast<Node*>(successor));
    replacement->left.store(smr_.make_link(left));
    replacement->right.store(smr_.make_link(new_right));
    return rebalance(tid, replacement);
  }

  Node* remove_min_rec(int tid, Node* node) {
    if (left_of(node) == nullptr) {
      replaced_.push_back(node);
      return right_of(node);
    }
    Node* new_left = remove_min_rec(tid, left_of(node));
    return rebalance(tid, clone_with(tid, node, new_left, right_of(node)));
  }

  /// Publish the new root, then retire every replaced node. Order matters:
  /// readers that saw the old root revalidate against root_, so nothing
  /// they can still reach is freed before the swap is visible — and the
  /// SMR scheme protects anything they already hold.
  void publish(int tid, Node* next_root) {
    root_.store(smr_.make_link(next_root), std::memory_order_release);
    for (Node* old : replaced_) smr_.retire(tid, old);
    replaced_.clear();
  }

  void free_subtree(Node* node) {
    if (node == nullptr) return;
    free_subtree(left_of(node));
    free_subtree(right_of(node));
    smr_.delete_unlinked(node);
  }

  void collect(const Node* node, std::vector<Key>& out) const {
    if (node == nullptr) return;
    collect(left_of(node), out);
    out.push_back(node->key);
    collect(right_of(node), out);
  }

  std::size_t count(const Node* node) const {
    if (node == nullptr) return 0;
    return 1 + count(left_of(node)) + count(right_of(node));
  }

  /// Returns subtree height, or -1 on an invariant violation.
  int check(const Node* node, const Key* low, const Key* high) const {
    if (node == nullptr) return 0;
    if (low != nullptr && node->key <= *low) return -1;
    if (high != nullptr && node->key >= *high) return -1;
    const int lh = check(left_of(node), low, &node->key);
    const int rh = check(right_of(node), &node->key, high);
    if (lh < 0 || rh < 0) return -1;
    if (lh - rh > 1 || rh - lh > 1) return -1;
    const int height = 1 + std::max(lh, rh);
    if (height != node->height) return -1;
    return height;
  }

  Scheme smr_;
  smr::AtomicTaggedPtr root_;
  std::mutex writer_mutex_;
  /// Writer-lock-protected scratch: nodes replaced by the current update.
  std::vector<Node*> replaced_;
};

}  // namespace mp::ds
