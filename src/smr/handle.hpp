// Typed per-thread handles: a (scheme&, tid) pair as one value.
//
// Every SMR entry point used to take a raw `int tid` alongside the scheme
// reference, which made it easy to cross the streams — pass thread A's id
// while holding thread B's scheme, or a tid from a different scheme's
// registry. A ThreadHandle binds the two at the one place the tid is
// minted (Scheme::handle(tid), typically right after a registry lease) and
// the rest of the call chain moves a single self-consistent value around.
//
// The handle is a trivially copyable two-word view — no ownership, no
// registration side effects — so it can be passed by value through the
// data-structure layer at zero cost. The data structures take only
// handles; the scheme layer below them keeps raw tids.
#pragma once

#include <utility>

namespace mp::smr {

template <typename Scheme>
class ThreadHandle {
 public:
  using scheme_type = Scheme;
  using node_type = typename Scheme::node_type;

  ThreadHandle(Scheme& scheme, int tid) noexcept
      : scheme_(&scheme), tid_(tid) {}

  Scheme& scheme() const noexcept { return *scheme_; }
  int tid() const noexcept { return tid_; }

  // ---- Forwarders for the non-operation-scoped scheme API ----

  template <typename... Args>
  node_type* alloc(Args&&... args) const {
    return scheme_->alloc(tid_, std::forward<Args>(args)...);
  }

  void retire(node_type* node) const { scheme_->retire(tid_, node); }

  void delete_unlinked(node_type* node) const noexcept {
    scheme_->delete_unlinked(tid_, node);
  }

  /// Depart this thread (scheme_base.hpp detach protocol). The handle is
  /// dead after this until the tid is re-leased and a fresh handle minted.
  void detach() const { scheme_->detach(tid_); }

 private:
  Scheme* scheme_;
  int tid_;
};

}  // namespace mp::smr
