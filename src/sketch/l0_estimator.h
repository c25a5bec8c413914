// L0-estimation / distinct elements (Theorem 2.12).
//
// The paper needs a single-pass (1 ± ε) distinct-count sketch in Õ(1) space
// (it invokes it with ε = 1/2). We implement the KMV ("k minimum values" /
// bottom-k) sketch of Bar-Yossef et al. [11]: hash each item to [0, 2^61),
// keep the k smallest distinct hash values, and estimate L0 as (k-1) / v_k
// where v_k is the k-th smallest normalized value. Relative error is
// O(1/√k) with constant probability, so k = O(1/ε²) realizes Theorem 2.12's
// contract; memory is k words.
//
// The hash is 4-wise independent, not pairwise: a pairwise polynomial over
// GF(p) is affine, so arithmetic-progression id streams (ubiquitous in
// benchmarks and real data) map to arithmetic progressions mod p, whose
// order statistics have fat tails — we measured 2.5× errors. Degree ≥ 3
// breaks the linear structure and restores the expected 1/√k behavior.
//
// Representation: a sorted, duplicate-free array of the k smallest hash
// values flushed so far (`mins_`) plus an unsorted admission buffer
// (`buf_`). A new hash is admitted only if it beats the current k-th
// smallest (`threshold_`); the buffer is merged into `mins_` by
// sort/dedup/truncate when it fills or when an observer needs the exact
// state. Admission is O(1), the merge costs O((k + |buf|)·log) every |buf|
// admissions, and the admission rate itself decays like k/L0 — amortized
// O(log k) per admitted item, and no per-item linear duplicate scan (the
// previous max-heap representation paid an O(k) std::find for every hash
// below the running maximum).
//
// While fewer than k distinct hash values have been seen the sketch is exact.
// Sketches built with the same seed are mergeable (used by tests and by the
// reporting pipeline's per-group counters).

#ifndef STREAMKC_SKETCH_L0_ESTIMATOR_H_
#define STREAMKC_SKETCH_L0_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "hash/kwise_hash.h"
#include "obs/space_accountant.h"
#include "util/space.h"

namespace streamkc {

class L0Estimator : public SpaceMetered {
 public:
  struct Config {
    // Number of minima retained. Error ~ 2/sqrt(num_mins); the default gives
    // well under the (1 ± 1/2) guarantee the paper's Theorem 2.12 needs.
    uint32_t num_mins = 64;
    uint64_t seed = 1;
  };

  explicit L0Estimator(const Config& config);

  // Observes item `id` (duplicates are free: same hash value).
  void Add(uint64_t id) {
    ++items_added_;
    AddHash(hash_.Map(id));
  }

  // Hash-once ingest path: `folded` must equal MersenneFold(id).
  void AddFolded(uint64_t folded) {
    ++items_added_;
    AddHash(hash_.MapFolded(folded));
  }

  // Observes a block of pre-folded ids. Equivalent to calling AddFolded on
  // each in order (bit-identical state), but evaluates the hash with
  // KWiseHash::MapFoldedBatch.
  void AddFoldedBatch(const uint64_t* folded, size_t n);

  // Current estimate of the number of distinct ids seen.
  double Estimate() const;

  // True while the sketch still holds every distinct hash value (estimate is
  // exact).
  bool IsExact() const {
    FlushBuffer();
    return !saturated_;
  }

  // Merges another sketch built with the same Config (same seed). The result
  // estimates the distinct count of the union of the two input streams.
  void Merge(const L0Estimator& other);

  uint64_t items_added() const { return items_added_; }

  // Binary checkpointing (util/serialize.h conventions). Load rebuilds the
  // hash from the stored seed, so a restored sketch continues the stream
  // exactly where the saved one stopped. Load validates the blob: values
  // must lie in the field domain and be duplicate-free, and a saturated
  // sketch must be full — a tampered or corrupted checkpoint fails a CHECK
  // instead of silently skewing estimates.
  void Save(std::ostream& os) const;
  static L0Estimator Load(std::istream& is);

  size_t MemoryBytes() const override {
    return VectorBytes(mins_) + VectorBytes(buf_) + hash_.MemoryBytes();
  }
  const char* ComponentName() const override { return "l0_estimator"; }
  uint64_t ItemCount() const override {
    FlushBuffer();
    return mins_.size();
  }

 private:
  // Admission gate shared by all Add entry points.
  void AddHash(uint64_t h) {
    if (h >= threshold_) {
      // Beyond (or equal to) the current k-th smallest: either a duplicate
      // of the retained maximum or a distinct value outside the k smallest.
      // Only possible once the sketch is full (threshold_ starts at +inf).
      if (h > threshold_) saturated_ = true;
      return;
    }
    buf_.push_back(h);
    if (buf_.size() >= flush_at_) FlushBuffer();
  }

  // Merges buf_ into mins_ (sort/dedup/truncate) and refreshes threshold_ /
  // saturated_. Const because observers (Estimate, IsExact, Save) must see
  // the settled state; the mutated members are declared mutable.
  void FlushBuffer() const;
  // mins_ ∪= values (sorted in place), keeping the k smallest within
  // mins_'s k reserved slots; true when a distinct value was dropped.
  bool KeepSmallest(std::vector<uint64_t>& values) const;

  Config config_;
  KWiseHash hash_;
  size_t flush_at_;  // buffer capacity before a forced flush
  // Sorted ascending, duplicate-free: the k smallest flushed hash values.
  mutable std::vector<uint64_t> mins_;
  // Unsorted admitted hashes, each < threshold_ (may contain duplicates).
  mutable std::vector<uint64_t> buf_;
  // Admission gate: k-th smallest flushed value once full, else +inf.
  mutable uint64_t threshold_;
  mutable bool saturated_ = false;
  uint64_t items_added_ = 0;
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_L0_ESTIMATOR_H_
