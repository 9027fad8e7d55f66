// Michael's lock-free linked list (SPAA 2002), with a tail sentinel and MP
// search-interval maintenance — the client of paper §5.2 (Listing 7).
//
// The list is the one-bucket MichaelHashSet (michael_hashset.hpp), which
// holds the algorithm, its traversal discipline and its helpers. The case
// is exact: with one bucket every key hashes to bucket 0, and the bucket's
// index stripe is the whole 32-bit space, so the head sentinel (key 0)
// gets kMinIndex and the tail sentinel (key 2^64-1) gets kMaxIndex.
#pragma once

#include "ds/michael_hashset.hpp"

namespace mp::ds {

template <template <typename> class SchemeT>
class MichaelList : public MichaelHashSet<SchemeT> {
 public:
  explicit MichaelList(const smr::Config& config)
      : MichaelHashSet<SchemeT>(config, 1) {}
};

}  // namespace mp::ds
