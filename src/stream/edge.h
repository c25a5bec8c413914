// The unit of the edge-arrival streaming model: a (set, element) incidence.

#ifndef STREAMKC_STREAM_EDGE_H_
#define STREAMKC_STREAM_EDGE_H_

#include <cstdint>
#include <functional>

namespace streamkc {

using SetId = uint64_t;
using ElementId = uint64_t;

// One stream token: "element `element` belongs to set `set`". The stream may
// present the incidences of a set in any order, interleaved arbitrarily with
// other sets', and may repeat an incidence (all algorithms here are
// duplicate-insensitive, as required by the model).
struct Edge {
  SetId set = 0;
  ElementId element = 0;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.set == b.set && a.element == b.element;
  }
};

struct EdgeHash {
  size_t operator()(const Edge& e) const {
    uint64_t h = e.set * 0x9e3779b97f4a7c15ULL;
    h ^= e.element + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

// Non-owning view of a block of edges with their ids pre-reduced into the
// GF(2^61-1) field domain (MersenneFold). The fold is idempotent and every
// KWiseHash evaluation starts with it, so computing it once per edge here
// lets every sub-estimator on the batched ingest path use the `*Folded`
// hash entry points and skip the redundant per-sketch fold. The arrays are
// parallel: set_folded[i] == MersenneFold(edges[i].set) and likewise for
// element_folded. Produced by EdgeBatch::Prefold()/View().
//
// The view may also carry a set index (core/set_index.h): entries
// d < num_distinct_sets, each the fold of a set id, and set_slot[i] < that
// count, the entry of edges[i].set, so that
// distinct_set_folded[set_slot[i]] == set_folded[i]. Set-keyed hashes then
// run once per entry instead of once per edge. The stack numbers distinct
// sets in first-seen order, but any numbering is valid. A view without an
// index has set_slot == nullptr.
struct PrefoldedEdges {
  const Edge* edges = nullptr;
  const uint64_t* set_folded = nullptr;
  const uint64_t* element_folded = nullptr;
  size_t size = 0;
  const uint32_t* set_slot = nullptr;
  const uint64_t* distinct_set_folded = nullptr;
  size_t num_distinct_sets = 0;
};

}  // namespace streamkc

#endif  // STREAMKC_STREAM_EDGE_H_
