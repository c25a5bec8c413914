// Set sampling with limited independence (Lemma 2.3, Appendix A.1).
//
// A collection F^rnd where each set survives with probability
// γ/(c·m·log m), implemented as "h(S) = 1" for a Θ(log(mn))-wise independent
// hash h : F → [c·m·log m / γ] (Lemma A.5–A.7): w.h.p. |F^rnd| ≤ γ and
// F^rnd covers every γ-common element. Storing the sampler costs one hash
// function (Θ(log(mn)) words), not |F^rnd| — membership is recomputable,
// which is what the reporting algorithm exploits.

#ifndef STREAMKC_CORE_SET_SAMPLER_H_
#define STREAMKC_CORE_SET_SAMPLER_H_

#include <cstdint>

#include "hash/kwise_hash.h"
#include "stream/edge.h"
#include "util/space.h"

namespace streamkc {

class SetSampler : public SpaceAccounted {
 public:
  // Samples each of the `m` sets with probability ≈ gamma/(c_hash·m·log2 m)
  // (so w.h.p. about gamma/(c_hash·log2 m) — and, with the paper's
  // accounting, at most gamma — sets survive and all gamma-common elements
  // are covered). `degree` is the hash independence.
  SetSampler(uint64_t m, double gamma, double c_hash, uint32_t degree,
             uint64_t seed);

  // Deterministic membership test.
  bool Sampled(SetId set) const { return hash_.MapRange(set, range_) == 0; }

  // Batched membership keys: out[i] is the sample key of folded[i]; the set
  // is sampled iff its key is 0 (same test Sampled() applies).
  void SampleKeysFoldedBatch(const uint64_t* folded, uint64_t* out,
                             size_t n) const {
    hash_.MapRangeFoldedBatch(folded, out, n, range_);
  }

  // 1/range: the survival probability of each set.
  double SampleRate() const { return 1.0 / static_cast<double>(range_); }

  uint64_t range() const { return range_; }

  size_t MemoryBytes() const override { return hash_.MemoryBytes(); }

 private:
  KWiseHash hash_;
  uint64_t range_;
};

// Observation 2.4: if Q (|Q| = βk) covers C, some k-subset of Q covers at
// least C/β; so C/β lower-bounds the optimal k-cover within Q.
inline double BestGroupLowerBound(double coverage, double beta) {
  return coverage / beta;
}

}  // namespace streamkc

#endif  // STREAMKC_CORE_SET_SAMPLER_H_
