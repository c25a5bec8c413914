// Simple tabulation hashing (Zobrist / Thorup-Zhang [39]).
//
// Splits a 64-bit key into 8 bytes and XORs 8 random table entries. Simple
// tabulation is 3-independent and behaves like a fully random function for
// many applications (Patrascu-Thorup); the paper cites Thorup-Zhang [39] as
// one realization of the F2 heavy-hitter machinery. streamkc uses it where
// raw speed matters more than provable d-wise independence (e.g. bucket
// placement in throughput micro-benchmarks); the provable paths use
// KWiseHash.

#ifndef STREAMKC_HASH_TABULATION_HASH_H_
#define STREAMKC_HASH_TABULATION_HASH_H_

#include <array>
#include <cstdint>

#include "util/random.h"
#include "util/space.h"

namespace streamkc {

class TabulationHash : public SpaceAccounted {
 public:
  explicit TabulationHash(uint64_t seed) {
    Rng rng(seed);
    for (auto& table : tables_) {
      for (auto& cell : table) cell = rng.Next();
    }
  }

  uint64_t Map(uint64_t x) const {
    uint64_t h = 0;
    for (int i = 0; i < 8; ++i) {
      h ^= tables_[i][(x >> (8 * i)) & 0xff];
    }
    return h;
  }

  uint64_t MapRange(uint64_t x, uint64_t range) const {
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Map(x)) * range) >> 64);
  }

  size_t MemoryBytes() const override { return sizeof(tables_); }

 private:
  std::array<std::array<uint64_t, 256>, 8> tables_;
};

}  // namespace streamkc

#endif  // STREAMKC_HASH_TABULATION_HASH_H_
