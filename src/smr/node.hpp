// Per-node SMR metadata (paper Listing 10's extra node fields).
//
// Every node allocated through a scheme carries:
//   * birth epoch   — global epoch at allocation (HE / IBR / MP)
//   * retire epoch  — global epoch at retirement (EBR / HE / IBR / MP)
//   * index         — MP's 32-bit order-consistent index (kUseHp elsewhere)
//
// The header is uniform across schemes so that one data-structure
// instantiation works with any scheme; Table 1's per-node-overhead column
// reports the *logically required* words per scheme.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mp::smr {

/// Reserved index: "protect this node with a hazard pointer, not a margin
/// pointer" (paper §4.3.2). Also the initial value of unassigned indices.
inline constexpr std::uint32_t kUseHp = 0xFFFFFFFFu;

/// Largest assignable real index (paper §5.2: max_index = 2^32 - 2).
inline constexpr std::uint32_t kMaxIndex = 0xFFFFFFFEu;

/// Minimum assignable real index.
inline constexpr std::uint32_t kMinIndex = 0;

struct NodeHeader {
  /// Epochs are written once by the allocating / retiring thread and read
  /// concurrently by reclaimers; relaxed atomics make those races defined.
  std::atomic<std::uint64_t> birth_epoch{0};
  std::atomic<std::uint64_t> retire_epoch{0};

  /// MP index. Immutable from the moment the node is linked; only written
  /// between alloc() and the linking CAS, so a plain field would do, but an
  /// atomic keeps the reclaimer's concurrent reads race-free.
  std::atomic<std::uint32_t> index{kUseHp};

  std::uint32_t index_relaxed() const noexcept {
    return index.load(std::memory_order_relaxed);
  }
  std::uint64_t birth_relaxed() const noexcept {
    return birth_epoch.load(std::memory_order_relaxed);
  }
  std::uint64_t retire_relaxed() const noexcept {
    return retire_epoch.load(std::memory_order_relaxed);
  }

  /// Last epoch of the node's lifetime [birth, lifetime_end]: its retire
  /// epoch, or "forever" while it is not yet retired (retire == 0; epochs
  /// start at 1, so every retired node carries retire >= 1). Every
  /// lifetime predicate reads the end through here.
  std::uint64_t lifetime_end() const noexcept {
    const std::uint64_t retire = retire_relaxed();
    return retire == 0 ? std::numeric_limits<std::uint64_t>::max() : retire;
  }

  /// The 16-bit tag packed into pointers to this node.
  std::uint16_t tag() const noexcept {
    return static_cast<std::uint16_t>(index_relaxed() >> 16);
  }
};

/// Base class for client data-structure nodes managed by an SMR scheme.
struct NodeBase {
  NodeHeader smr_header;
};

// ---- Node-pool freelist-link storage (pool.hpp) ----
//
// While a node-sized block sits in a per-thread magazine or the global
// depot, the Node object has been destroyed and the block's first bytes are
// reinterpreted as one of the views below. No heap allocation happens on
// the magazine/depot paths: even a depot chunk's header lives inside the
// chunk's first block. NodeBase's header (two 8-byte epochs plus the index
// word) guarantees every pooled node is large and aligned enough.

/// Intrusive link threading free blocks into a magazine's LIFO list.
struct PoolFreeLink {
  PoolFreeLink* next;
};

/// A whole magazine parked in the global depot, headed by its first block.
struct PoolDepotChunk {
  PoolDepotChunk* next;  ///< Treiber-stack link
  PoolFreeLink* blocks;  ///< the chunk's remaining blocks (count - 1 of them)
  std::size_t count;     ///< total blocks, including this header block
};

static_assert(sizeof(NodeBase) >= sizeof(PoolDepotChunk) &&
                  alignof(NodeBase) >= alignof(PoolDepotChunk),
              "a dead node's block must be able to hold a depot-chunk header");

}  // namespace mp::smr
