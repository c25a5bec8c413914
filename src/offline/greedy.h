// Offline greedy Max k-Cover (Nemhauser-Wolsey-Fisher [35]).
//
// Repeatedly picks the set with the largest marginal coverage; guarantees a
// (1 - 1/e) fraction of the optimum, i.e. approximation factor
// 1/(1 - 1/e) ≈ 1.582, which Feige [23] shows is best possible in
// polynomial time. Used as the offline solver inside SmallSet (on the stored
// subsampled instance), as the quality yardstick in benches, and via
// LazyGreedy for speed on large instances.

#ifndef STREAMKC_OFFLINE_GREEDY_H_
#define STREAMKC_OFFLINE_GREEDY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "setsys/set_system.h"

namespace streamkc {

struct CoverSolution {
  std::vector<SetId> sets;
  uint64_t coverage = 0;
};

// Plain greedy: O(k · Σ|S|) time.
CoverSolution GreedyMaxCover(const SetSystem& sys, uint64_t k);

// Lazy greedy: identical output distribution quality (same guarantee; may
// break ties differently), typically far faster via stale-bound skipping.
CoverSolution LazyGreedyMaxCover(const SetSystem& sys, uint64_t k);

// Greedy over an instance in compressed-sparse-row form (used by SmallSet on
// its stored sample): the set named ids[i] holds
// elements[offsets[i], offsets[i+1]), so offsets has one entry more than ids
// and ends at elements.size(). Each round picks the set with the strictly
// largest marginal gain, ties going to the smallest id, so the picks do not
// depend on the order the sets come in. Element ids are arbitrary and may
// repeat inside a set (a repeat counts once): they are compacted through a
// table sized by the number of entries, never by the largest id. Returns the
// chosen ids.
CoverSolution GreedyOnLists(std::span<const size_t> offsets,
                            std::span<const SetId> ids,
                            std::span<const ElementId> elements, uint64_t k);

}  // namespace streamkc

#endif  // STREAMKC_OFFLINE_GREEDY_H_
