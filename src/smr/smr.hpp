// Umbrella header for the marginptr SMR library.
//
// The SMR interface (paper §2, Listing 1), implemented by every scheme:
//
//   Scheme(config)                     fixed max_threads, slots, frequencies
//   start_op(tid) / end_op(tid)        bracket every data-structure operation
//   read(tid, refno, src) -> TaggedPtr protect-and-load a link word; `refno`
//                                      names the local reference (ignored by
//                                      schemes without per-reference state)
//   unprotect(tid, refno)              drop a local reference (no-op where
//                                      protection is interval/epoch based)
//   alloc<Args...>(tid, args...)       allocate a node, stamping SMR header
//   retire(tid, node)                  hand over a removed node
//   make_link(node, mark) -> TaggedPtr encode a link word (§4.3.1)
//   set_index(node, i) / copy_index()  sentinel / router index assignment
//   update_lower_bound(tid, node)      MP's optional search-interval calls
//   update_upper_bound(tid, node)      (no-ops everywhere else)
//
// Threads do not hold references across operations (§2), so end_op may
// clear all protections. OperationScope (guard.hpp) is the RAII bracket.
//
// start_op/end_op/read and the one global epoch are defined once, in
// detail::SchemeBase; a scheme supplies only its protection protocol as
// hooks the bracket calls — announce(tid) at start_op, withdraw(tid) at
// end_op, protect(tid, refno, src, stats) inside read — plus its
// kEpochClock tick schedule and its one protection predicate
// (Snapshot::protects, fed per thread by collect_row), which both the
// reclaimer and the oracle ask (scheme_base.hpp lists the hooks). HP's
// slots and MP's paired hazards share one hazard table, EBR and DTA one
// announced-epoch table, and EBR, DTA and Stamp-it one horizon snapshot
// (detail/protection_tables.hpp).
//
// Schemes:            wasted memory            per-read cost
//   Leaky             unbounded (never frees)  plain load
//   EBR               unbounded under stalls   plain load
//   Stamp-it          unbounded under stalls   plain load; O(1) horizon
//   Hyaline           unbounded under stalls   plain load; snapshot-free
//                                              refcounted batch handover
//   IBR (2GE)         robust, unbounded        load + epoch check
//   HE                robust, unbounded        load + epoch check (per slot)
//   DTA               robust†, list-only       load + anchor per k hops
//   HP                bounded O(#slots*T)      store + fence per dereference
//   MP  (this paper)  bounded (Thm 4.2)        load + epoch check; fence only
//                                              when leaving the margin
#pragma once

#include <concepts>
#include <cstdint>

#include "smr/chaos.hpp"
#include "smr/config.hpp"
#include "smr/detail/scheme_base.hpp"
#include "smr/dta.hpp"
#include "smr/ebr.hpp"
#include "smr/guard.hpp"
#include "smr/handle.hpp"
#include "smr/he.hpp"
#include "smr/hp.hpp"
#include "smr/hyaline.hpp"
#include "smr/ibr.hpp"
#include "smr/leaky.hpp"
#include "smr/mp.hpp"
#include "smr/node.hpp"
#include "smr/schemes.hpp"
#include "smr/stampit.hpp"
#include "smr/oracle.hpp"
#include "smr/stats.hpp"
#include "smr/tagged_ptr.hpp"

namespace mp::smr {

/// The core SMR protocol as a checkable C++20 concept: the paper's
/// Listing 1 surface (start_op/end_op/read/unprotect/alloc/retire/
/// make_link) plus the base-layer extensions every scheme inherits — the
/// typed-handle factory, the detach protocol, the epoch/waste
/// introspection hooks, and the per-thread reclamation entry point
/// (empty: the base runs one full pass of the reclamation engine; a
/// scheme that reclaims otherwise shadows it). Deliberately says nothing
/// about HOW a scheme reclaims: that is the capability axis below.
template <typename S>
concept SmrSchemeCore =
    requires(S s, const S cs, typename S::node_type* node,
             const typename S::node_type* cnode, const AtomicTaggedPtr& src,
             const Config& config, int tid, int refno) {
      typename S::node_type;
      // Compile-time properties (Table 1) and the reclamation capability.
      { S::kName } -> std::convertible_to<const char*>;
      { S::kBoundedWaste } -> std::convertible_to<bool>;
      { S::kRobust } -> std::convertible_to<bool>;
      { S::kSnapshotFree } -> std::convertible_to<bool>;
      // Listing 1: the per-operation protocol.
      { s.start_op(tid) };
      { s.end_op(tid) };
      { s.read(tid, refno, src) } -> std::same_as<TaggedPtr>;
      { s.unprotect(tid, refno) };
      { s.alloc(tid) } -> std::same_as<typename S::node_type*>;
      { s.retire(tid, node) };
      { cs.make_link(cnode) } -> std::same_as<TaggedPtr>;
      // Base-layer extensions.
      { s.handle(tid) } -> std::same_as<ThreadHandle<S>>;
      { s.detach(tid) };
      { s.on_detach(tid) };
      { cs.epoch_now() } -> std::same_as<std::uint64_t>;
      { S::waste_bound_per_thread(config) } -> std::same_as<std::uint64_t>;
      // ProtectionOracle coverage predicate (oracle.hpp): the scheme's
      // own Snapshot::protects asked of a one-row snapshot of tid's
      // announcements (SchemeBase; Hyaline, with no Snapshot, asks a
      // one-row horizon). Defined in both build arms (no oracle
      // dependency), so the concept holds with SMR_ORACLE OFF.
      { cs.oracle_covers(tid, cnode) } -> std::same_as<bool>;
      // Per-thread reclamation pass — the engine's snapshot filter or a
      // snapshot-free handover, the caller doesn't care.
      { s.empty(tid) };
    };

/// The snapshot-scan capability — all the reclamation engine needs
/// (reclaimer.hpp's filter_step, driven by the foreground ScanCursor and
/// the background pass): one hazard/epoch snapshot, collectable from a
/// const scheme and reusable across many retired-batch scans. A scheme
/// supplies only its Snapshot type, whose protects(node) is its one
/// protection predicate, and collect_row(tid, snapshot); SchemeBase
/// defines collect_snapshot (every row, then seal) and snapshot_protects
/// from them. Snapshot-free schemes (Hyaline) define `Snapshot = void`,
/// which fails every clause here by substitution — that is the designed
/// signal, not an error.
template <typename S>
concept SnapshotReclaimable =
    std::default_initializable<typename S::Snapshot> &&
    requires(const S cs, const typename S::node_type* cnode,
             typename S::Snapshot& snapshot,
             const typename S::Snapshot& csnapshot) {
      { cs.collect_snapshot(snapshot) };
      { cs.snapshot_protects(cnode, csnapshot) } -> std::same_as<bool>;
    };

/// A complete scheme: the core protocol, plus a coherent reclamation
/// capability — either it declares itself snapshot-free (and the scan
/// cursor / background reclaimer / waste watchdog dispatch around the
/// missing triple via `if constexpr`), or it provides the full snapshot
/// interface. A scheme that claims kSnapshotFree AND provides the triple
/// also passes: the trait, not the triple's presence, drives dispatch.
template <typename S>
concept SmrScheme =
    SmrSchemeCore<S> && (S::kSnapshotFree || SnapshotReclaimable<S>);

namespace detail {

/// Minimal client node for checking the concept against every scheme.
struct ConceptProbeNode : NodeBase {
  AtomicTaggedPtr next;
};

/// Fold the concept over the central typelist (schemes.hpp): adding a
/// scheme there is what puts it under the interface check.
template <template <typename> class... Ss>
struct ConceptCheck {
  static_assert((SmrScheme<Ss<ConceptProbeNode>> && ...),
                "a scheme in smr::AllSchemes does not satisfy SmrScheme");
  static constexpr bool value = (SmrScheme<Ss<ConceptProbeNode>> && ...);
};

static_assert(AllSchemes::apply<ConceptCheck>::value);

// The capability split, pinned down where it is defined: Hyaline is the
// snapshot-free scheme (and genuinely lacks the triple); every snapshot
// scheme satisfies SnapshotReclaimable.
static_assert(Hyaline<ConceptProbeNode>::kSnapshotFree);
static_assert(!SnapshotReclaimable<Hyaline<ConceptProbeNode>>);
static_assert(SnapshotReclaimable<MP<ConceptProbeNode>>);
static_assert(SnapshotReclaimable<Stampit<ConceptProbeNode>>);
static_assert(!Stampit<ConceptProbeNode>::kSnapshotFree);

}  // namespace detail

}  // namespace mp::smr
