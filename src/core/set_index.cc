#include "core/set_index.h"

#include <vector>

#include "util/check.h"
#include "util/dense_index.h"
#include "util/scratch.h"

namespace streamkc {

namespace {

// One per thread, so replicas ingesting on concurrent pipeline workers
// never share it; sized by the largest batch the thread has indexed.
struct IndexScratch {
  DenseIndex index;
  std::vector<uint32_t> slot;
  std::vector<uint64_t> distinct_folded;
  bool in_use = false;
};

thread_local IndexScratch index_scratch;

}  // namespace

IndexedBatch::IndexedBatch(const PrefoldedEdges& batch) : view_(batch) {
  if (batch.set_slot != nullptr) return;
  IndexScratch& s = index_scratch;
  CHECK(!s.in_use);
  s.in_use = true;
  built_ = true;
  s.index.Reset(batch.size);
  uint32_t* slot = GrowTo(s.slot, batch.size);
  uint64_t* distinct_folded = GrowTo(s.distinct_folded, batch.size);
  size_t distinct = 0;
  for (size_t i = 0; i < batch.size; ++i) {
    slot[i] = s.index.Insert(batch.edges[i].set);
    if (slot[i] == distinct) distinct_folded[distinct++] = batch.set_folded[i];
  }
  view_.set_slot = slot;
  view_.distinct_set_folded = distinct_folded;
  view_.num_distinct_sets = distinct;
}

IndexedBatch::~IndexedBatch() {
  if (built_) index_scratch.in_use = false;
}

}  // namespace streamkc
