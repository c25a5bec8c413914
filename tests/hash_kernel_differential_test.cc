// Scalar-vs-AVX2 hash-kernel differential suite: the two MapFoldedBatch
// kernels (hash/kernel_dispatch.h) promise BYTE-IDENTICAL output for every
// input, and this file is the contract's enforcement. Coverage axes:
//
//   * every batch size n ∈ [0, 64] — crosses the 8-lane block boundary at
//     every remainder phase, plus 0 (no-op) and sizes with multiple full
//     vector blocks;
//   * degrees 2, 4 and Θ(log mn) (= 48, Params::log_wise_degree at
//     m = n = 2^20) — the three independence levels the paper uses;
//   * misaligned input/output pointers — batch views land on arbitrary
//     8-byte offsets, never guaranteed 32-byte SIMD alignment, and `out`
//     may alias `folded`;
//   * adversarial inputs and coefficients: 0, 1, p−2, p−1 (the largest
//     folded value) and values just below 2^61 — the operands that maximize
//     every limb partial product and force the conditional-subtract and
//     carry paths in the limb decomposition;
//   * the dispatched KWiseHash entry under the forced-path override; and
//   * a serialized-blob end-to-end run: the same edges through the inline
//     batched pipeline with the kernel forced to scalar and then to AVX2
//     must leave estimator state whose serialized bytes are identical.
//
// On hosts where the AVX2 kernel is unavailable (no CPU support, or a
// -mno-avx2 / STREAMKC_ENABLE_AVX2=OFF build) the cross-kernel cases skip
// and the scalar self-checks still run.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimate_max_cover.h"
#include "hash/kernel_dispatch.h"
#include "hash/kwise_hash.h"
#include "hash/mersenne.h"
#include "runtime/edge_batch.h"
#include "runtime/sketch_states.h"
#include "test_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

constexpr uint64_t kP = kMersennePrime61;
constexpr uint32_t kLogWiseDegree = 48;  // m = n = 2^20: 20 + 20 + 8

#define SKIP_WITHOUT_AVX2()                                        \
  do {                                                             \
    if (!HashKernelAvailable(HashKernel::kAvx2)) {                 \
      GTEST_SKIP() << "AVX2 hash kernel unavailable on this host"; \
    }                                                              \
  } while (0)

std::vector<uint64_t> UniformCoeffs(uint32_t d, uint64_t seed) {
  std::vector<uint64_t> c(d);
  for (uint32_t i = 0; i < d; ++i) c[i] = SplitMix64(seed + i) % kP;
  return c;
}

std::vector<uint64_t> RandomFolded(size_t n, uint64_t seed) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = MersenneFold(SplitMix64(seed + i));
  return v;
}

// Runs both kernels on the same (coeffs, input) and asserts byte equality.
void ExpectKernelsAgree(const std::vector<uint64_t>& coeffs,
                        const std::vector<uint64_t>& in,
                        const std::string& label) {
  const size_t n = in.size();
  std::vector<uint64_t> scalar_out(n + 1, 0xA5A5A5A5A5A5A5A5ULL);
  std::vector<uint64_t> avx2_out(n + 1, 0x5A5A5A5A5A5A5A5AULL);
  HashKernelFn(HashKernel::kScalar)(coeffs.data(), coeffs.size(), in.data(),
                                    scalar_out.data(), n);
  HashKernelFn(HashKernel::kAvx2)(coeffs.data(), coeffs.size(), in.data(),
                                  avx2_out.data(), n);
  ASSERT_EQ(0, std::memcmp(scalar_out.data(), avx2_out.data(),
                           n * sizeof(uint64_t)))
      << label << ": kernel outputs differ (n=" << n
      << ", d=" << coeffs.size() << ")";
  for (size_t i = 0; i < n; ++i) {
    ASSERT_LT(scalar_out[i], kP) << label << ": non-canonical output at " << i;
  }
}

TEST(HashKernelDifferential, AllBatchSizesZeroThrough64) {
  SKIP_WITHOUT_AVX2();
  for (uint32_t d : {2u, 4u, kLogWiseDegree}) {
    std::vector<uint64_t> coeffs = UniformCoeffs(d, 1000 + d);
    for (size_t n = 0; n <= 64; ++n) {
      ExpectKernelsAgree(coeffs, RandomFolded(n, 31 * n + d),
                         "uniform-random sweep");
    }
  }
}

TEST(HashKernelDifferential, AdversarialInputs) {
  SKIP_WITHOUT_AVX2();
  // Extremes of the folded domain plus values just below 2^61: p−1 is the
  // largest legal input, and the near-2^61 band maximizes a1·v1 and the
  // folded carry out of every partial product.
  const uint64_t pool[] = {0,      1,          2,          kP - 1,
                          kP - 2, kP - 3,     1ULL << 32, (1ULL << 32) - 1,
                          (1ULL << 60) + 7,   kP / 2,     kP / 2 + 1};
  const size_t pool_size = sizeof(pool) / sizeof(pool[0]);
  for (uint32_t d : {2u, 4u, kLogWiseDegree}) {
    std::vector<uint64_t> coeffs = UniformCoeffs(d, 77 + d);
    // Rotating windows over the pool at every remainder phase.
    for (size_t n = 1; n <= 64; ++n) {
      std::vector<uint64_t> in(n);
      for (size_t i = 0; i < n; ++i) in[i] = pool[(i + n) % pool_size];
      ExpectKernelsAgree(coeffs, in, "adversarial pool");
    }
    // Constant batches of each extreme (all lanes take the same branch).
    for (uint64_t v : pool) {
      ExpectKernelsAgree(coeffs, std::vector<uint64_t>(19, v),
                         "constant extreme batch");
    }
  }
}

TEST(HashKernelDifferential, AdversarialCoefficients) {
  SKIP_WITHOUT_AVX2();
  // Coefficient extremes drive the MersenneAdd conditional-subtract: c=p−1
  // forces the wrap on almost every step, c=0 exercises the no-op add.
  const std::vector<std::vector<uint64_t>> coeff_sets = {
      {0, 0},
      {kP - 1, kP - 1},
      {1, kP - 1},
      {kP - 1, 0, kP - 1, 1},
      std::vector<uint64_t>(kLogWiseDegree, kP - 1),
      std::vector<uint64_t>(kLogWiseDegree, 1),
  };
  for (const auto& coeffs : coeff_sets) {
    for (size_t n : {1u, 3u, 8u, 13u, 32u, 64u}) {
      ExpectKernelsAgree(coeffs, RandomFolded(n, coeffs.size() * 131 + n),
                         "adversarial coefficients");
      std::vector<uint64_t> extremes(n);
      for (size_t i = 0; i < n; ++i) extremes[i] = (i % 2) ? kP - 1 : kP - 2;
      ExpectKernelsAgree(coeffs, extremes, "adversarial coeffs × extremes");
    }
  }
}

TEST(HashKernelDifferential, MisalignedAndAliasedPointers) {
  SKIP_WITHOUT_AVX2();
  std::vector<uint64_t> coeffs = UniformCoeffs(4, 9);
  for (size_t in_off : {0u, 1u, 2u, 3u}) {
    for (size_t out_off : {0u, 1u, 3u}) {
      for (size_t n : {1u, 7u, 8u, 24u, 61u, 64u}) {
        // +8 slack so every offset stays in bounds; element offsets give
        // 8-byte alignment, i.e. deliberately NOT the 32-byte vector
        // alignment — the unaligned-load path must be the only path.
        std::vector<uint64_t> in_buf = RandomFolded(n + 8, n * 7 + in_off);
        std::vector<uint64_t> scalar_buf(n + 8, 0), avx2_buf(n + 8, 0);
        HashKernelFn(HashKernel::kScalar)(coeffs.data(), coeffs.size(),
                                          in_buf.data() + in_off,
                                          scalar_buf.data() + out_off, n);
        HashKernelFn(HashKernel::kAvx2)(coeffs.data(), coeffs.size(),
                                        in_buf.data() + in_off,
                                        avx2_buf.data() + out_off, n);
        ASSERT_EQ(0, std::memcmp(scalar_buf.data() + out_off,
                                 avx2_buf.data() + out_off,
                                 n * sizeof(uint64_t)))
            << "misaligned in+" << in_off << " out+" << out_off << " n=" << n;
      }
    }
  }
  // In-place evaluation (out aliases folded), both kernels.
  for (size_t n : {5u, 8u, 29u, 64u}) {
    std::vector<uint64_t> a = RandomFolded(n, 17 * n);
    std::vector<uint64_t> b = a;
    HashKernelFn(HashKernel::kScalar)(coeffs.data(), coeffs.size(), a.data(),
                                      a.data(), n);
    HashKernelFn(HashKernel::kAvx2)(coeffs.data(), coeffs.size(), b.data(),
                                    b.data(), n);
    ASSERT_EQ(a, b) << "aliased in-place n=" << n;
  }
}

// The dispatched KWiseHash entry under the forced-path override must route
// to the pinned kernel and agree with the un-dispatched scalar reference —
// and MapRangeFoldedBatch (the fixed-point range mapping layered on top)
// must agree bit-for-bit too.
TEST(HashKernelDifferential, ForcedDispatchMatchesDirectKernels) {
  SKIP_WITHOUT_AVX2();
  KWiseHash h(kLogWiseDegree, 4242);
  std::vector<uint64_t> in = RandomFolded(200, 5);
  std::vector<uint64_t> want(in.size());
  for (size_t i = 0; i < in.size(); ++i) want[i] = h.MapFolded(in[i]);
  for (HashKernel k : {HashKernel::kScalar, HashKernel::kAvx2}) {
    ForceHashKernel(k);
    EXPECT_EQ(ActiveHashKernel(), k);
    EXPECT_STREQ(HashKernelSource(), "forced");
    std::vector<uint64_t> out(in.size());
    h.MapFoldedBatch(in.data(), out.data(), in.size());
    EXPECT_EQ(out, want) << "dispatched batch diverges under "
                         << HashKernelName(k);
    std::vector<uint64_t> ranged(in.size());
    h.MapRangeFoldedBatch(in.data(), ranged.data(), in.size(), 12345);
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(ranged[i], h.MapRangeFolded(in[i], 12345));
    }
  }
  ResetHashKernel();
}

template <typename Sketch>
std::string Blob(const Sketch& sketch) {
  std::stringstream ss;
  sketch.Save(ss);
  return ss.str();
}

// Feeds `edges` through the batched ingest entry (EdgeBatch::Prefold +
// ProcessBatch, the sharded pipeline's hand-off) with the hash kernel
// pinned to `kernel`.
template <typename State>
State RunInlineBatched(const std::vector<Edge>& edges, HashKernel kernel,
                       State state) {
  ForceHashKernel(kernel);
  EdgeBatch batch;
  constexpr size_t kBatch = 509;  // prime: remainder lanes on every flush
  for (size_t i = 0; i < edges.size(); i += kBatch) {
    size_t m = std::min(kBatch, edges.size() - i);
    batch.Clear();
    batch.edges.assign(edges.begin() + i, edges.begin() + i + m);
    batch.Prefold();
    state.ProcessBatch(batch.View());
  }
  ResetHashKernel();
  return state;
}

// End-to-end: same edges, same seeds, inline batched pipeline, kernel
// forced to scalar and then to AVX2 — the serialized estimator state must
// be byte-identical. This is the whole-system restatement of the kernel
// contract: one admission decided differently by the vector path would
// change a sketch blob.
TEST(HashKernelDifferential, EndToEndSerializedStateIdentical) {
  SKIP_WITHOUT_AVX2();
  std::vector<Edge> edges = SyntheticEdges(30000, 91);
  CoverageSketchState::Config cfg;
  CoverageSketchState scalar_state = RunInlineBatched(
      edges, HashKernel::kScalar, CoverageSketchState(cfg));
  CoverageSketchState avx2_state = RunInlineBatched(
      edges, HashKernel::kAvx2, CoverageSketchState(cfg));
  EXPECT_EQ(Blob(scalar_state.covered_l0), Blob(avx2_state.covered_l0));
  EXPECT_EQ(Blob(scalar_state.element_f2), Blob(avx2_state.element_f2));
  EXPECT_DOUBLE_EQ(scalar_state.covered_hll.Estimate(),
                   avx2_state.covered_hll.Estimate());
}

// Same restatement through the paper's full estimator: identical
// Finalize() verdicts (estimate, winning subroutine, feasibility) from the
// scalar-pinned and AVX2-pinned passes.
TEST(HashKernelDifferential, EndToEndEstimatorVerdictIdentical) {
  SKIP_WITHOUT_AVX2();
  auto inst = MakeFamilyInstance("planted", 512, 1024, 16, 53);
  std::vector<Edge> edges = InstanceEdges(inst, 11);
  EstimateMaxCover::Config cfg;
  cfg.params = Params::Practical(512, 1024, 16, 8);
  cfg.seed = 61;
  EstimateMaxCover scalar_est = RunInlineBatched(
      edges, HashKernel::kScalar, EstimateMaxCover(cfg));
  EstimateMaxCover avx2_est = RunInlineBatched(
      edges, HashKernel::kAvx2, EstimateMaxCover(cfg));
  EstimateOutcome a = scalar_est.Finalize();
  EstimateOutcome b = avx2_est.Finalize();
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.source, b.source);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
}

// Availability axioms the dispatch layer promises.
TEST(HashKernelDifferential, DispatchInvariants) {
  EXPECT_TRUE(HashKernelAvailable(HashKernel::kScalar));
  EXPECT_STREQ(HashKernelName(HashKernel::kScalar), "scalar");
  EXPECT_STREQ(HashKernelName(HashKernel::kAvx2), "avx2");
  HashKernel k;
  EXPECT_TRUE(ParseHashKernel("scalar", &k));
  EXPECT_EQ(k, HashKernel::kScalar);
  EXPECT_TRUE(ParseHashKernel("avx2", &k));
  EXPECT_EQ(k, HashKernel::kAvx2);
  EXPECT_FALSE(ParseHashKernel("sse2", &k));
  EXPECT_FALSE(ParseHashKernel("", &k));
  // avx2 availability implies CPU support (the converse can fail on
  // scalar-only builds).
  if (HashKernelAvailable(HashKernel::kAvx2)) {
    EXPECT_TRUE(CpuSupportsAvx2());
  }
  // The active kernel is always an available one.
  EXPECT_TRUE(HashKernelAvailable(ActiveHashKernel()));
}

}  // namespace
}  // namespace streamkc
