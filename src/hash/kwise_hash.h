// d-wise independent hash families (Definition A.1 / Lemma A.2 of the paper).
//
// A degree-(d-1) polynomial with uniform coefficients over GF(2^61 - 1) gives
// a d-wise independent family. Storing the family costs d field elements
// (d·log(mn) bits, matching Lemma A.2), and evaluation is Horner's rule.
//
// The paper uses three independence levels:
//   * pairwise      (d = 2)  — KMV distinct-elements sketch, CountSketch rows
//   * 4-wise        (d = 4)  — universe reduction (Lemma 3.5), AMS signs
//   * Θ(log(mn))-wise        — set sampling (Appendix A.1), supersets (§4.2),
//                              element sampling (§B), F2-Contributing levels
//
// KWiseHash::Map gives a uniform value in [0, p); MapRange(x, r) maps it to
// [0, r) by fixed-point multiplication; Sign(x) gives a ±1 value; Keep(x, num,
// den) implements "h(x) = 1"-style subsampling at rate num/den without float
// roundoff.
//
// Hot-path variants: every `*Folded` method takes an input already reduced
// into the field domain by MersenneFold (the fold is idempotent, so callers
// can fold an id exactly once and evaluate it under arbitrarily many hash
// functions — the ingest stack's hash-once discipline). MapFoldedBatch
// evaluates one polynomial over a whole input block through the runtime-
// dispatched kernel (hash/kernel_dispatch.h): the scalar kernel interleaves
// eight Horner chains to hide the 128-bit multiply latency, the AVX2 kernel
// vectorizes the field multiply via 32-bit limb decomposition. Both emit
// canonical residues, so their outputs are bit-identical — the batched
// ingest path's determinism contract does not depend on which one runs.

#ifndef STREAMKC_HASH_KWISE_HASH_H_
#define STREAMKC_HASH_KWISE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hash/kernel_dispatch.h"
#include "hash/mersenne.h"
#include "util/check.h"
#include "util/random.h"
#include "util/space.h"

namespace streamkc {

class KWiseHash : public SpaceAccounted {
 public:
  // Draws a hash function uniformly from the d-wise independent polynomial
  // family, deterministically from `seed`. d >= 1 (d = 1 is a constant
  // function family; callers normally want d >= 2).
  KWiseHash(uint32_t d, uint64_t seed);

  // Convenience factories for the independence levels the paper names.
  static KWiseHash Pairwise(uint64_t seed) { return KWiseHash(2, seed); }
  static KWiseHash FourWise(uint64_t seed) { return KWiseHash(4, seed); }

  uint32_t degree() const { return static_cast<uint32_t>(coeffs_.size()); }

  // Uniform value in [0, 2^61 - 1).
  uint64_t Map(uint64_t x) const { return MapFolded(MersenneFold(x)); }

  // Fold-free core of Map(): `v` must already be in the field domain [0, p)
  // (i.e. v == MersenneFold(v)). Callers on the hash-once ingest path fold
  // each id once and evaluate it under every sub-estimator's hash with this.
  uint64_t MapFolded(uint64_t v) const {
    DCHECK(v < kMersennePrime61);
    uint64_t acc = 0;
    // Horner evaluation: acc = (((c_{d-1} x + c_{d-2}) x + ...) x + c_0).
    for (size_t i = coeffs_.size(); i-- > 0;) {
      acc = MersenneAdd(MersenneMul(acc, v), coeffs_[i]);
    }
    return acc;
  }

  // out[i] = MapFolded(folded[i]) for i in [0, n), through the runtime-
  // dispatched kernel (scalar interleaved Horner or AVX2 limb
  // decomposition — bit-identical by contract). `out` may alias `folded`.
  //
  // The folded-input precondition is a hard CHECK here, enforced once per
  // batch (a max-reduce scan, not a per-element branch in the Horner
  // loop): an unfolded id would evaluate the polynomial at the wrong field
  // point and silently decorrelate every estimate built on it, and the
  // batch boundary is the last place the whole violation is visible at
  // O(1) CHECK cost. Matches the MapRange zero-range precedent (PR 4).
  void MapFoldedBatch(const uint64_t* folded, uint64_t* out, size_t n) const {
    uint64_t max_v = 0;
    for (size_t i = 0; i < n; ++i) {
      max_v = folded[i] > max_v ? folded[i] : max_v;
    }
    CHECK_LT(max_v, kMersennePrime61);
    MapFoldedBatchActive(coeffs_.data(), coeffs_.size(), folded, out, n);
  }

  // Uniform value in [0, range); range in [1, 2^61). range == 0 would make
  // every input collapse to 0 — a mis-sized caller bug that must fail in
  // release builds too (a constant sampler silently destroys estimates), so
  // this is a CHECK, not a DCHECK.
  uint64_t MapRange(uint64_t x, uint64_t range) const {
    CHECK(range > 0);
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Map(x)) * range) >> 61);
  }

  uint64_t MapRangeFolded(uint64_t v, uint64_t range) const {
    CHECK(range > 0);
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(MapFolded(v)) * range) >> 61);
  }

  // out[i] = MapRangeFolded(folded[i], range). `out` may alias `folded`.
  void MapRangeFoldedBatch(const uint64_t* folded, uint64_t* out, size_t n,
                           uint64_t range) const {
    CHECK(range > 0);
    MapFoldedBatch(folded, out, n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint64_t>(
          (static_cast<__uint128_t>(out[i]) * range) >> 61);
    }
  }

  // ±1 sign, d-wise independent.
  int Sign(uint64_t x) const { return (Map(x) & 1) ? +1 : -1; }
  int SignFolded(uint64_t v) const { return (MapFolded(v) & 1) ? +1 : -1; }

  // True with probability num/den over the choice of the hash function
  // (clipped to 1 when num >= den). Equivalent to "h(x) < num" with
  // h: U -> [den]; this is the "h(S) = 1" subsampling idiom from the paper
  // generalized to non-unit numerators.
  bool Keep(uint64_t x, uint64_t num, uint64_t den) const {
    DCHECK(den > 0);
    if (num >= den) return true;
    return MapRange(x, den) < num;
  }

  bool KeepFolded(uint64_t v, uint64_t num, uint64_t den) const {
    DCHECK(den > 0);
    if (num >= den) return true;
    return MapRangeFolded(v, den) < num;
  }

  size_t MemoryBytes() const override { return VectorBytes(coeffs_); }

 private:
  std::vector<uint64_t> coeffs_;  // c_0 .. c_{d-1}, each in [0, p)
};

}  // namespace streamkc

#endif  // STREAMKC_HASH_KWISE_HASH_H_
