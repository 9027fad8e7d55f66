// "Leaky" non-reclaiming baseline.
//
// retire() buffers nodes forever and nothing is freed until teardown. This
// is the zero-overhead upper bound every SMR scheme is measured against,
// and a control for differential testing: any data-structure bug that shows
// up only under a real scheme is a reclamation bug, not a client bug.
#pragma once

#include "smr/detail/scheme_base.hpp"

namespace mp::smr {

template <typename Node>
class Leaky : public detail::SchemeBase<Node, Leaky<Node>> {
  using Base = detail::SchemeBase<Node, Leaky<Node>>;

 public:
  static constexpr const char* kName = "Leaky";
  static constexpr bool kBoundedWaste = false;
  static constexpr bool kRobust = false;

  explicit Leaky(const Config& config) : Base(config) {}

  /// Symmetry with the reclaiming schemes' destructors: join the background
  /// reclaimer first. Leaky inherits the base Snapshot that protects
  /// everything, so in the bg arm offloaded batches just accumulate in the
  /// reclaimer's backlog until the in-flight cap forces inline (no-op)
  /// passes — the leaky semantics, preserved.
  ~Leaky() { this->stop_reclaimer(); }

  // No protocol hooks: the base bracket's plain-load read and its default
  // Snapshot, whose predicate covers everything (nothing is ever freed),
  // apply to the oracle as well.

  /// Never reclaims; the retired list only drains at teardown. Shadowing
  /// the base's engine pass also keeps scheduled passes from rescanning a
  /// list that only grows.
  void empty(int /*tid*/) noexcept {}
};

}  // namespace mp::smr
