#include "hash/kwise_hash.h"

namespace streamkc {

KWiseHash::KWiseHash(uint32_t d, uint64_t seed) {
  CHECK_GE(d, 1u);
  coeffs_.resize(d);
  Rng rng(seed);
  for (auto& c : coeffs_) {
    // Rejection sampling for an exactly uniform field element.
    uint64_t v;
    do {
      v = rng.Next() >> 3;  // 61 random bits
    } while (v >= kMersennePrime61);
    c = v;
  }
  // Force the polynomial to be non-degenerate for d >= 2: a zero leading
  // coefficient would silently lower the independence. Probability ~2^-61,
  // but cheap to rule out.
  if (d >= 2 && coeffs_.back() == 0) coeffs_.back() = 1;
}

}  // namespace streamkc
