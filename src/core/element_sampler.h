// Element sampling (Lemma 2.5) as a stored-hash membership predicate.
//
// L ⊆ U where each element survives with a fixed probability, realized as a
// range test on a Θ(log(mn))-wise independent hash so that membership is
// recomputable and storage is O(degree) words. Lemma 2.5: if an optimal
// k-cover covers a 1/η fraction of U and |L| = Θ̃(ηk), then a Θ(1)-approx
// k-cover of (L, F) is a Θ(1)-approx k-cover of (U, F) w.h.p.

#ifndef STREAMKC_CORE_ELEMENT_SAMPLER_H_
#define STREAMKC_CORE_ELEMENT_SAMPLER_H_

#include <cstdint>

#include "hash/kwise_hash.h"
#include "stream/edge.h"
#include "util/space.h"

namespace streamkc {

class ElementSampler : public SpaceAccounted {
 public:
  // Each element survives with probability min(1, rate).
  ElementSampler(double rate, uint32_t degree, uint64_t seed);

  static constexpr uint64_t kRateDen = 1ULL << 40;

  bool Sampled(ElementId e) const {
    return hash_.Keep(e, rate_num_, kRateDen);
  }

  // Batched membership keys: out[i] ∈ [0, kRateDen) is folded[i]'s sample
  // key; the element is sampled iff its key < rate_num() (keys are always
  // below kRateDen, so the test matches Sampled() even at rate 1).
  void SampleKeysFoldedBatch(const uint64_t* folded, uint64_t* out,
                             size_t n) const {
    hash_.MapRangeFoldedBatch(folded, out, n, kRateDen);
  }

  uint64_t rate_num() const { return rate_num_; }

  // The exact survival probability used (after clipping / quantization).
  double SampleRate() const {
    return static_cast<double>(rate_num_) / static_cast<double>(kRateDen);
  }

  size_t MemoryBytes() const override { return hash_.MemoryBytes(); }

 private:
  KWiseHash hash_;
  uint64_t rate_num_;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_ELEMENT_SAMPLER_H_
