// Per-thread working arrays of the batched ingest path.
//
// Block updates need O(batch) arrays: hash keys per distinct id, survivor
// lists, renumberings. Each component keeps its arrays in a thread_local
// struct in its own source file rather than as members, so an estimator
// state (and each replica of it) carries none: they stay out of copies,
// merges and MemoryBytes(), and replicas ingesting on concurrent pipeline
// workers never share them. Arrays only grow, so once a thread has seen
// its largest batch, ingest allocates nothing.

#ifndef STREAMKC_UTIL_SCRATCH_H_
#define STREAMKC_UTIL_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace streamkc {

// `v` grown to at least n elements (new ones set to `fill`); its data,
// never null, even for n = 0.
template <typename T>
T* GrowTo(std::vector<T>& v, size_t n, const T& fill = T()) {
  if (v.size() < n || v.empty()) v.resize(n > 0 ? n : 1, fill);
  return v.data();
}

// 0, 1, ..., n-1: the index of a block whose ids are taken as distinct.
inline const uint32_t* IdentitySlots(size_t n) {
  CHECK_LE(n, size_t{UINT32_MAX});
  thread_local std::vector<uint32_t> slots;
  while (slots.size() < n) {
    slots.push_back(static_cast<uint32_t>(slots.size()));
  }
  return slots.data();
}

}  // namespace streamkc

#endif  // STREAMKC_UTIL_SCRATCH_H_
