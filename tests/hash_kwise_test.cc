#include "hash/kwise_hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "hash/kernel_dispatch.h"
#include "hash/mersenne.h"
#include "util/random.h"

namespace streamkc {
namespace {

TEST(Mersenne, ReduceIdentityBelowPrime) {
  EXPECT_EQ(MersenneReduce(0), 0u);
  EXPECT_EQ(MersenneReduce(12345), 12345u);
  EXPECT_EQ(MersenneReduce(kMersennePrime61 - 1), kMersennePrime61 - 1);
}

TEST(Mersenne, ReduceWraps) {
  EXPECT_EQ(MersenneReduce(kMersennePrime61), 0u);
  EXPECT_EQ(MersenneReduce(static_cast<__uint128_t>(kMersennePrime61) + 5), 5u);
}

TEST(Mersenne, MulMatchesBigInt) {
  // Cross-check against direct 128-bit modulo.
  uint64_t a = 0x123456789abcdefULL % kMersennePrime61;
  uint64_t b = 0xfedcba987654321ULL % kMersennePrime61;
  __uint128_t direct = static_cast<__uint128_t>(a) * b % kMersennePrime61;
  EXPECT_EQ(MersenneMul(a, b), static_cast<uint64_t>(direct));
}

TEST(Mersenne, AddWraps) {
  EXPECT_EQ(MersenneAdd(kMersennePrime61 - 1, 1), 0u);
  EXPECT_EQ(MersenneAdd(kMersennePrime61 - 1, 2), 1u);
}

TEST(Mersenne, FoldStaysInField) {
  EXPECT_LT(MersenneFold(~0ULL), kMersennePrime61);
  EXPECT_EQ(MersenneFold(5), 5u);
}

TEST(KWiseHash, Deterministic) {
  KWiseHash h1(4, 99), h2(4, 99), h3(4, 100);
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1.Map(x), h2.Map(x));
  }
  int same = 0;
  for (uint64_t x = 0; x < 100; ++x) same += (h1.Map(x) == h3.Map(x));
  EXPECT_LE(same, 1);
}

TEST(KWiseHash, MapRangeBounds) {
  KWiseHash h(2, 5);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h.MapRange(x, 17), 17u);
  }
  EXPECT_EQ(h.MapRange(12345, 1), 0u);
}

TEST(KWiseHash, MapRangeUniformity) {
  // Chi-square-ish check: bucket counts close to expectation.
  KWiseHash h(2, 7);
  const int kBuckets = 16, kDraws = 64000;
  std::vector<int> counts(kBuckets, 0);
  for (int x = 0; x < kDraws; ++x) ++counts[h.MapRange(x, kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 6 * std::sqrt(kDraws / kBuckets));
  }
}

TEST(KWiseHash, PairwiseCollisionRate) {
  // Pr[h(x) = h(y)] should be ~1/range for x != y.
  const uint64_t kRange = 64;
  int collisions = 0;
  const int kPairs = 20000;
  for (int t = 0; t < kPairs; ++t) {
    KWiseHash h(2, 10000 + t);
    collisions += (h.MapRange(1, kRange) == h.MapRange(2, kRange));
  }
  double rate = collisions / static_cast<double>(kPairs);
  EXPECT_NEAR(rate, 1.0 / kRange, 0.006);
}

TEST(KWiseHash, SignBalanced) {
  KWiseHash h = KWiseHash::FourWise(77);
  int sum = 0;
  const int kDraws = 100000;
  for (int x = 0; x < kDraws; ++x) sum += h.Sign(x);
  // Mean should be near 0 with std ~ sqrt(kDraws).
  EXPECT_LT(std::abs(sum), 6 * static_cast<int>(std::sqrt(kDraws)));
}

TEST(KWiseHash, SignPairwiseIndependent) {
  // E[s(x)s(y)] ≈ 0 over random functions.
  int sum = 0;
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    KWiseHash h = KWiseHash::FourWise(50000 + t);
    sum += h.Sign(3) * h.Sign(4);
  }
  EXPECT_LT(std::abs(sum), 6 * static_cast<int>(std::sqrt(kTrials)));
}

TEST(KWiseHash, KeepRateAccurate) {
  // Keep with rate 1/8 over many functions.
  int kept = 0;
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    KWiseHash h(2, 90000 + t);
    kept += h.Keep(42, 1, 8);
  }
  EXPECT_NEAR(kept / static_cast<double>(kTrials), 0.125, 0.01);
}

TEST(KWiseHash, KeepClipsAtOne) {
  KWiseHash h(2, 3);
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_TRUE(h.Keep(x, 10, 10));
    EXPECT_TRUE(h.Keep(x, 20, 10));
  }
}

TEST(KWiseHash, MemoryProportionalToDegree) {
  KWiseHash d2(2, 1), d16(16, 1);
  EXPECT_EQ(d2.MemoryBytes(), 2 * sizeof(uint64_t));
  EXPECT_EQ(d16.MemoryBytes(), 16 * sizeof(uint64_t));
}

TEST(KWiseHash, FourWiseFourthMomentBehaved) {
  // For 4-wise independent signs, E[(Σ s(x))⁴] over x in a window of size w
  // equals 3w² - 2w (same as fully independent). Sanity-check the empirical
  // fourth moment is in that ballpark.
  const int kWindow = 16;
  const int kTrials = 4000;
  double fourth = 0;
  for (int t = 0; t < kTrials; ++t) {
    KWiseHash h = KWiseHash::FourWise(7777 + t);
    double s = 0;
    for (int x = 0; x < kWindow; ++x) s += h.Sign(x);
    fourth += s * s * s * s;
  }
  fourth /= kTrials;
  double expected = 3.0 * kWindow * kWindow - 2.0 * kWindow;
  EXPECT_NEAR(fourth, expected, 0.25 * expected);
}

TEST(KWiseHash, ZeroRangeAborts) {
  // range = 0 would make MapRange collapse to the constant 0 — a sampler
  // built on it admits everything. Hard CHECK in release builds too: the
  // misconfiguration corrupts estimates silently, which is worse than
  // dying.
  KWiseHash h(4, 3);
  EXPECT_DEATH(h.MapRange(123, 0), "CHECK failed");
  EXPECT_DEATH(h.MapRangeFolded(MersenneFold(123), 0), "CHECK failed");
  uint64_t folded[2] = {1, 2};
  uint64_t out[2];
  EXPECT_DEATH(h.MapRangeFoldedBatch(folded, out, 2, 0), "CHECK failed");
}

TEST(KWiseHash, FoldedBatchMatchesScalarMap) {
  // The interleaved multi-lane Horner evaluation must agree with the scalar
  // path bit-for-bit at every size around the lane width (remainder loop,
  // exactly-full lanes, multiple blocks), for degrees on both sides of the
  // unrolled cases.
  for (uint32_t degree : {2u, 4u, 7u}) {
    KWiseHash h(degree, 1234 + degree);
    for (size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 61u}) {
      std::vector<uint64_t> folded(n), batch_out(n);
      for (size_t i = 0; i < n; ++i) {
        folded[i] = MersenneFold(SplitMix64(i ^ (degree << 20)));
      }
      h.MapFoldedBatch(folded.data(), batch_out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(batch_out[i], h.MapFolded(folded[i]))
            << "degree " << degree << " n " << n << " i " << i;
      }
      // And through the range-mapped variant (which may alias its input).
      std::vector<uint64_t> range_out(folded);
      h.MapRangeFoldedBatch(range_out.data(), range_out.data(), n, 17);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(range_out[i], h.MapRangeFolded(folded[i], 17));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-parameterized statistical checks: the k-wise uniformity /
// independence properties above are proved for the polynomial family, so
// they must hold through EITHER kernel — a vector kernel that stayed
// deterministic but mapped to the wrong field points would pass bit-level
// differential tests between its own runs while silently destroying
// uniformity. Each case pins the kernel with the forced-path override and
// drives the hashes through the batched (dispatched) entry.
// ---------------------------------------------------------------------------

class KWiseHashKernelTest : public ::testing::TestWithParam<HashKernel> {
 protected:
  void SetUp() override {
    if (!HashKernelAvailable(GetParam())) {
      GTEST_SKIP() << HashKernelName(GetParam())
                   << " kernel unavailable on this host";
    }
    ForceHashKernel(GetParam());
  }
  void TearDown() override { ResetHashKernel(); }
};

TEST_P(KWiseHashKernelTest, MapRangeUniformityBatched) {
  KWiseHash h(2, 7);
  const int kBuckets = 16, kDraws = 64000;
  std::vector<uint64_t> folded(kDraws);
  for (int x = 0; x < kDraws; ++x) folded[x] = MersenneFold(x);
  std::vector<uint64_t> out(kDraws);
  h.MapRangeFoldedBatch(folded.data(), out.data(), kDraws, kBuckets);
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t b : out) ++counts[b];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 6 * std::sqrt(kDraws / kBuckets));
  }
}

TEST_P(KWiseHashKernelTest, SignBalancedBatched) {
  KWiseHash h = KWiseHash::FourWise(77);
  const int kDraws = 100000;
  std::vector<uint64_t> folded(kDraws);
  for (int x = 0; x < kDraws; ++x) folded[x] = MersenneFold(x);
  std::vector<uint64_t> out(kDraws);
  h.MapFoldedBatch(folded.data(), out.data(), kDraws);
  int sum = 0;
  for (uint64_t v : out) sum += (v & 1) ? +1 : -1;
  EXPECT_LT(std::abs(sum), 6 * static_cast<int>(std::sqrt(kDraws)));
}

TEST_P(KWiseHashKernelTest, PairwiseCollisionRateBatched) {
  // Pr[h(x) = h(y)] ≈ 1/range over the family; the 2-element batches ride
  // the kernels' remainder lanes on every draw.
  const uint64_t kRange = 64;
  const int kPairs = 20000;
  const uint64_t probe[2] = {MersenneFold(1), MersenneFold(2)};
  int collisions = 0;
  for (int t = 0; t < kPairs; ++t) {
    KWiseHash h(2, 10000 + t);
    uint64_t out[2];
    h.MapRangeFoldedBatch(probe, out, 2, kRange);
    collisions += (out[0] == out[1]);
  }
  double rate = collisions / static_cast<double>(kPairs);
  EXPECT_NEAR(rate, 1.0 / kRange, 0.006);
}

TEST_P(KWiseHashKernelTest, FourWiseFourthMomentBatched) {
  // E[(Σ s(x))⁴] = 3w² − 2w for 4-wise independent signs, via the batched
  // sign extraction (full 8-lane blocks + remainder).
  const int kWindow = 16;
  const int kTrials = 4000;
  std::vector<uint64_t> folded(kWindow);
  for (int x = 0; x < kWindow; ++x) folded[x] = MersenneFold(x);
  double fourth = 0;
  for (int t = 0; t < kTrials; ++t) {
    KWiseHash h = KWiseHash::FourWise(7777 + t);
    uint64_t out[kWindow];
    h.MapFoldedBatch(folded.data(), out, kWindow);
    double s = 0;
    for (uint64_t v : out) s += (v & 1) ? +1.0 : -1.0;
    fourth += s * s * s * s;
  }
  fourth /= kTrials;
  double expected = 3.0 * kWindow * kWindow - 2.0 * kWindow;
  EXPECT_NEAR(fourth, expected, 0.25 * expected);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KWiseHashKernelTest,
                         ::testing::Values(HashKernel::kScalar,
                                           HashKernel::kAvx2),
                         [](const auto& info) {
                           return std::string(HashKernelName(info.param));
                         });

// An invalid STREAMKC_HASH_KERNEL must kill the process with a readable
// message at resolution time — a CI leg whose override were silently
// ignored would report green while testing the wrong kernel.
TEST(HashKernelDeathTest, InvalidEnvOverrideFailsFast) {
  EXPECT_DEATH(
      {
        setenv("STREAMKC_HASH_KERNEL", "avx512", 1);
        ResetHashKernel();  // drop the cached resolution, re-read the env
        ActiveHashKernel();
      },
      "STREAMKC_HASH_KERNEL");
}

TEST(HashKernelDeathTest, UnavailableEnvOverrideFailsFast) {
  // Only testable where the avx2 kernel is NOT runnable (scalar-only build
  // or non-AVX2 CPU): requesting it must die, not fall back.
  if (HashKernelAvailable(HashKernel::kAvx2)) {
    GTEST_SKIP() << "avx2 kernel available here; covered by the -mno-avx2 "
                    "CI leg";
  }
  EXPECT_DEATH(
      {
        setenv("STREAMKC_HASH_KERNEL", "avx2", 1);
        ResetHashKernel();
        ActiveHashKernel();
      },
      "STREAMKC_HASH_KERNEL");
}

// The folded-input precondition is a hard CHECK at the batch boundary
// (PR 4's MapRange precedent): an unfolded id evaluates the polynomial at
// the wrong field point and silently decorrelates every estimate downstream
// — worse than dying. Values ≥ p must abort in release builds too, for
// every batch size class (remainder-only, exactly one block, block +
// remainder) and through the range-mapped wrapper.
TEST(KWiseHash, UnfoldedBatchInputAborts) {
  KWiseHash h(4, 3);
  for (size_t n : {1u, 8u, 13u}) {
    std::vector<uint64_t> bad(n, 7);
    bad[n - 1] = kMersennePrime61;  // smallest out-of-field value
    std::vector<uint64_t> out(n);
    EXPECT_DEATH(h.MapFoldedBatch(bad.data(), out.data(), n), "CHECK failed");
    bad[n - 1] = ~0ULL;
    EXPECT_DEATH(h.MapFoldedBatch(bad.data(), out.data(), n), "CHECK failed");
    bad[n - 1] = kMersennePrime61;
    EXPECT_DEATH(h.MapRangeFoldedBatch(bad.data(), out.data(), n, 16),
                 "CHECK failed");
  }
}

}  // namespace
}  // namespace streamkc
