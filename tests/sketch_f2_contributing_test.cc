#include "sketch/f2_contributing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "test_util.h"

namespace streamkc {
namespace {

using Updates = std::vector<std::pair<uint64_t, int64_t>>;

bool ContainsAnyOf(const std::vector<ContributingCoordinate>& out,
                   uint64_t lo, uint64_t hi) {
  return std::any_of(out.begin(), out.end(), [lo, hi](const auto& cc) {
    return cc.id >= lo && cc.id < hi;
  });
}

// Feeds `updates` to a sketch as LargeSet does (closed windows through
// Hashes of a degree-8 sampler, drawn from the config's seed) and extracts.
std::vector<ContributingCoordinate> FeedAndExtract(
    const F2Contributing::Config& cfg, const Updates& updates) {
  const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, cfg.seed);
  F2Contributing fc(cfg);
  AddClosedWindows(fc, hashes, updates);
  return fc.Extract(hashes);
}

// `size` class members from `first` at weight `weight`, then `noise` unit
// coordinates from 0.
Updates PlantedClass(uint64_t first, uint64_t size, int64_t weight,
                     uint64_t noise) {
  Updates updates;
  for (uint64_t j = 0; j < size; ++j) updates.emplace_back(first + j, weight);
  for (uint64_t i = 0; i < noise; ++i) updates.emplace_back(i, 1);
  return updates;
}

TEST(F2Contributing, EmptyStream) {
  EXPECT_TRUE(FeedAndExtract({.phi = 0.025, .max_class_size = 64,
                              .domain_size = 1000, .seed = 1},
                             {})
                  .empty());
}

TEST(F2Contributing, LevelCountMatchesClassBound) {
  // Full-rate levels collapse into one: with sample_factor·log2(domain) ≈
  // 120, guesses 2^0..2^6 all sample at rate 1 and share a single level.
  F2Contributing fc({.phi = 0.025, .max_class_size = 64, .domain_size = 1000,
                     .seed = 1});
  EXPECT_EQ(fc.num_levels(), 1u);
  F2Contributing fc1({.phi = 0.025, .max_class_size = 1, .domain_size = 1000,
                      .seed = 1});
  EXPECT_EQ(fc1.num_levels(), 1u);
  // Once guesses exceed the full-rate regime, sub-sampled levels appear:
  // guesses up to 2^14 with rate 120/2^i < 1 for i ≥ 7 → 1 + 8 levels.
  F2Contributing fc2({.phi = 0.025, .max_class_size = 1 << 14,
                      .domain_size = 1000, .seed = 1});
  EXPECT_GT(fc2.num_levels(), 5u);
  EXPECT_LT(fc2.num_levels(), 15u);
}

TEST(F2Contributing, SingleHugeCoordinate) {
  // A class of size 1 that is 1-contributing: must be found.
  Updates updates{{99, 200}};
  for (uint64_t i = 0; i < 300; ++i) updates.emplace_back(i + 1000, 1);
  auto out = FeedAndExtract({.phi = 0.0625, .max_class_size = 16,
                             .domain_size = 4096, .seed = 2},
                            updates);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().id, 99u);
  EXPECT_GE(out.front().estimate, 100.0);
  EXPECT_LE(out.front().estimate, 300.0);
}

TEST(F2Contributing, FindsMidSizeContributingClass) {
  // Class of 64 coordinates with a = 32 each: |R|·a² = 65536.
  // Background: 4096 units. The class carries ~94% of F2: heavily
  // γ-contributing for γ = 0.1 (φ = γ/4).
  auto out = FeedAndExtract({.phi = 0.025, .max_class_size = 256,
                             .domain_size = 8192, .seed = 3},
                            PlantedClass(5000, 64, 32, 4096));
  ASSERT_TRUE(ContainsAnyOf(out, 5000, 5064));
  // The representative's estimate must be (1 ± 1/2)-accurate.
  for (const auto& cc : out) {
    if (cc.id >= 5000 && cc.id < 5064) {
      EXPECT_GE(cc.estimate, 16.0);
      EXPECT_LE(cc.estimate, 48.0);
    }
  }
}

TEST(F2Contributing, FindsLargeClassViaSampling) {
  // Class of 1024 coordinates, a = 12 each: class F2 ≈ 147K vs. 2048 unit
  // noise. Deep subsampling levels are the only way to see these: at full
  // rate each coordinate sits below the heavy-hitter noise floor, while at
  // rate ~1/64 the survivors dominate the sampled F2. The deepest level
  // keeps ~42 members, whose a = 12 sits at its noise floor
  // 3·√(F2/width) ≈ 13, so a seed succeeds when its sampler keeps few
  // enough of them: ~75% of seeds 1000–2999 do. Demand 270 of 400, about
  // three binomial standard deviations below that rate.
  const Updates updates = PlantedClass(8000, 1024, 12, 2048);
  int ok = 0;
  for (uint64_t seed = 40; seed < 440; ++seed) {
    ok += ContainsAnyOf(FeedAndExtract({.phi = 0.05, .max_class_size = 4096,
                                        .domain_size = 16384, .seed = seed},
                                       updates),
                        8000, 9024);
  }
  EXPECT_GE(ok, 270);
}

TEST(F2Contributing, SucceedsAcrossSeeds) {
  // Theorem 2.11 is probabilistic: ~93% of seeds 1000–2999 find this
  // 128-member class. Demand 350 of 400, about three binomial standard
  // deviations below that rate.
  const Updates updates = PlantedClass(4000, 128, 16, 1024);
  int ok = 0;
  for (uint64_t seed = 10; seed < 410; ++seed) {
    ok += ContainsAnyOf(FeedAndExtract({.phi = 0.05, .max_class_size = 512,
                                        .domain_size = 8192, .seed = seed},
                                       updates),
                        4000, 4128);
  }
  EXPECT_GE(ok, 350);
}

TEST(F2Contributing, RespectsClassSizeBound) {
  // Remark 4.12: with max_class_size = 4, a contributing class of 512
  // coordinates should generally NOT be caught (no sampling level is sparse
  // enough), while a singleton class is.
  Updates updates{{7, 250}};  // singleton class
  for (uint64_t j = 0; j < 512; ++j) updates.emplace_back(1000 + j, 30);
  auto out = FeedAndExtract({.phi = 0.05, .max_class_size = 4,
                             .domain_size = 8192, .sample_factor = 1.0,
                             .seed = 5},
                            updates);
  EXPECT_TRUE(ContainsAnyOf(out, 7, 8));
}

TEST(F2Contributing, EstimatePreservedUnderSampling) {
  // Sampling is per-coordinate: a survivor's estimated frequency reflects
  // ALL its updates, not a sampled fraction.
  Updates updates;
  for (int rep = 0; rep < 50; ++rep) {
    for (uint64_t j = 0; j < 8; ++j) updates.emplace_back(100 + j, 1);
  }
  auto out = FeedAndExtract({.phi = 0.075, .max_class_size = 64,
                             .domain_size = 4096, .seed = 6},
                            updates);
  ASSERT_FALSE(out.empty());
  for (const auto& cc : out) {
    EXPECT_GE(cc.estimate, 25.0);
    EXPECT_LE(cc.estimate, 75.0);
  }
}

TEST(F2Contributing, SpaceScalesWithGammaInverse) {
  F2Contributing coarse({.phi = 0.05, .max_class_size = 64,
                         .domain_size = 4096, .seed = 7});
  F2Contributing fine({.phi = 0.0005, .max_class_size = 64,
                       .domain_size = 4096, .seed = 7});
  EXPECT_GT(fine.MemoryBytes(), 10 * coarse.MemoryBytes());
}

TEST(F2Contributing, DeterministicInSeed) {
  auto run = [](uint64_t seed) {
    return FeedAndExtract({.phi = 0.025, .max_class_size = 64,
                           .domain_size = 2048, .seed = seed},
                          PlantedClass(0, 32, 10, 0))
        .size();
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace streamkc
