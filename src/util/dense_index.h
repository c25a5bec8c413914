// DenseIndex: numbers arbitrary 64-bit keys 0, 1, 2, ... in first-seen order.
//
// An open-addressing table (linear probing, Fibonacci hashing) sized from
// the most keys it will hold, so its memory follows the number of keys and
// never their range. Offline solvers use it to compact ids drawn from a huge
// universe before they index arrays by them; the batched ingest path reuses
// one per thread to index each batch's sets (core/set_index.h).

#ifndef STREAMKC_UTIL_DENSE_INDEX_H_
#define STREAMKC_UTIL_DENSE_INDEX_H_

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/math_util.h"

namespace streamkc {

class DenseIndex {
 public:
  // An index with no room yet: Reset() it before the first Insert().
  DenseIndex() = default;
  // Room for `max_keys` distinct keys at load factor at most 1/2.
  explicit DenseIndex(size_t max_keys) { Reset(max_keys); }

  // Empties the index and makes room for `max_keys` distinct keys. The
  // table only grows, and emptying clears just the slots that were filled,
  // so a reused index costs O(size()) per reset and allocates only when
  // asked for more keys than ever before.
  void Reset(size_t max_keys) {
    CHECK_LT(max_keys, size_t{1} << 31);
    const uint64_t capacity = NextPowerOfTwo(2 * max_keys + 2);
    if (capacity > slots_.size()) {
      shift_ = 64 - FloorLog2(capacity);
      mask_ = capacity - 1;
      keys_.resize(capacity);
      slots_.assign(capacity, 0);
      filled_.reserve(capacity / 2);
    } else {
      for (uint64_t h : filled_) slots_[h] = 0;
    }
    filled_.clear();
    size_ = 0;
  }

  // The key's index; a key seen for the first time gets the next one, so
  // the result equals size() - 1 exactly when the key is new.
  uint32_t Insert(uint64_t key) {
    uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
    for (;; h = (h + 1) & mask_) {
      if (slots_[h] == 0) {
        DCHECK(size_ < (mask_ + 1) / 2);
        keys_[h] = key;
        slots_[h] = ++size_;
        filled_.push_back(h);
        return size_ - 1;
      }
      if (keys_[h] == key) return slots_[h] - 1;
    }
  }

  uint32_t size() const { return size_; }

 private:
  uint32_t shift_ = 0;
  uint64_t mask_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> slots_;   // index + 1; 0 marks an empty slot
  std::vector<uint64_t> filled_;  // table positions of the keys, for Reset
  uint32_t size_ = 0;
};

}  // namespace streamkc

#endif  // STREAMKC_UTIL_DENSE_INDEX_H_
