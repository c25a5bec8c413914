// The batch set index: each set hashed once per batch.
//
// In the edge-arrival model a set's id arrives once for every element it
// holds, yet most of the oracle stack's per-edge hashing depends on the set
// id alone: LargeCommon's and SmallSet's set samplers, and LargeSet's
// superset hash with everything keyed on the superset (the contributing
// sketches' level sampler and CountSketch rows, the pool gate). A batch's
// set index (stream/edge.h) numbers its distinct sets in first-seen order
// and gives each edge its set's number, so those hashes run over the
// distinct sets and each edge reads its set's result by number. The state
// stays the one a Process() loop leaves: mutations run per edge in stream
// order, except LargeSet's linear counters, which take per-superset sums
// (large_set.h).

#ifndef STREAMKC_CORE_SET_INDEX_H_
#define STREAMKC_CORE_SET_INDEX_H_

#include "stream/edge.h"

namespace streamkc {

// A batch with a set index. Components take the index the caller passed
// down and build one only when the view carries none (a component driven
// directly: tests, benches), so one EstimateMaxCover batch indexes its sets
// once for all its oracles.
class IndexedBatch {
 public:
  // Indexes `batch` unless it carries an index already. A built index lives
  // in this thread's reused scratch until the object is destroyed; it is
  // not part of any estimator's state, copies, merges or MemoryBytes().
  // Only one IndexedBatch per thread may build at a time (CHECKed);
  // components below it receive its view and build nothing.
  explicit IndexedBatch(const PrefoldedEdges& batch);
  ~IndexedBatch();
  IndexedBatch(const IndexedBatch&) = delete;
  IndexedBatch& operator=(const IndexedBatch&) = delete;

  const PrefoldedEdges& view() const { return view_; }

 private:
  PrefoldedEdges view_;
  bool built_ = false;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_SET_INDEX_H_
