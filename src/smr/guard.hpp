// RAII facade over the SMR interface, in the shape of the C++ standard
// library's hazard-pointer proposal (P0233, cited in the paper's §1 as the
// motivation for bounded wasted memory): an OperationScope brackets
// start_op/end_op, and Guard objects bind protection slots whose lifetime
// releases the slot.
//
// This layer adds no overhead over the raw interface (everything inlines
// to the same calls); it exists so client code can't forget an end_op or
// leak a refno.
#pragma once

#include <cassert>
#include <utility>

#include "smr/handle.hpp"
#include "smr/tagged_ptr.hpp"

namespace mp::smr {

/// Brackets one data-structure operation: start_op on construction,
/// end_op on destruction (which also releases every protection).
template <typename Scheme>
class OperationScope {
 public:
  OperationScope(Scheme& scheme, int tid) : scheme_(scheme), tid_(tid) {
    scheme_.start_op(tid_);
  }

  /// Typed-handle form: the scheme/tid pairing was already checked at the
  /// point the handle was minted (Scheme::handle), so this is the
  /// preferred entry for new code.
  explicit OperationScope(ThreadHandle<Scheme> handle)
      : OperationScope(handle.scheme(), handle.tid()) {}
  ~OperationScope() { scheme_.end_op(tid_); }
  OperationScope(const OperationScope&) = delete;
  OperationScope& operator=(const OperationScope&) = delete;

  Scheme& scheme() const noexcept { return scheme_; }
  int tid() const noexcept { return tid_; }

 private:
  Scheme& scheme_;
  int tid_;
};

/// A protection slot bound for the lifetime of the guard. protect() loads
/// a link word and guarantees the target stays unreclaimed until the guard
/// is re-pointed, released, or destroyed (or the operation ends).
template <typename Scheme>
class Guard {
 public:
  using Node = typename Scheme::node_type;

  Guard(OperationScope<Scheme>& scope, int refno)
      : scheme_(scope.scheme()), tid_(scope.tid()), refno_(refno) {}

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  ~Guard() {
    if (!released_) scheme_.unprotect(tid_, refno_);
  }

  /// Protect-and-load: returns the validated link word (address + index
  /// tag + client mark bits). Re-arms a released guard: protecting again
  /// after release() is the supported way to reuse the slot.
  TaggedPtr protect(const AtomicTaggedPtr& src) {
    released_ = false;
    word_ = scheme_.read(tid_, refno_, src);
    return word_;
  }

  /// Convenience: protect and return the node pointer (marks stripped).
  Node* protect_ptr(const AtomicTaggedPtr& src) {
    return protect(src).template ptr<Node>();
  }

  /// The last word this guard protected.
  TaggedPtr word() const noexcept { return word_; }
  Node* get() const noexcept { return word_.template ptr<Node>(); }
  Node* operator->() const noexcept {
    assert(get() != nullptr);
    // In SMR_ORACLE builds, every handle-API dereference is checked
    // against the shadow model (deref after release, or after another
    // guard re-protected this refno, is rejected here). Compiles to
    // nothing otherwise.
    scheme_.oracle_deref(tid_, get());
    return get();
  }
  explicit operator bool() const noexcept { return !word_.is_null(); }

  /// Drop the protection early (before guard destruction). Idempotent: a
  /// second release (or the destructor after one) is a no-op — the slot
  /// was already surrendered, and unprotecting it again could tear down a
  /// protection a later guard re-bound to the same refno.
  void release() noexcept {
    if (released_) return;
    released_ = true;
    scheme_.unprotect(tid_, refno_);
    word_ = TaggedPtr::null();
  }

  bool released() const noexcept { return released_; }

  int refno() const noexcept { return refno_; }

 private:
  Scheme& scheme_;
  int tid_;
  int refno_;
  TaggedPtr word_;
  bool released_ = false;
};

}  // namespace mp::smr
