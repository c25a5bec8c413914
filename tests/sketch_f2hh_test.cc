#include "sketch/f2_heavy_hitters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "test_util.h"

namespace streamkc {
namespace {

bool Contains(const std::vector<HeavyHitter>& hhs, uint64_t id) {
  return std::any_of(hhs.begin(), hhs.end(),
                     [id](const HeavyHitter& h) { return h.id == id; });
}

// A sketch with its row family (RowsFor), fed one update at a time.
struct Sketch {
  explicit Sketch(const F2HeavyHitters::Config& cfg)
      : hh(cfg), rows(RowsFor(cfg)) {}
  void Add(uint64_t id, int64_t delta = 1) { hh.Add(rows, id, delta); }
  std::vector<HeavyHitter> Extract() const { return hh.Extract(rows); }

  F2HeavyHitters hh;
  CountSketchRows rows;
};

TEST(F2HeavyHitters, EmptyStream) {
  Sketch s({.phi = 0.1, .seed = 1});
  EXPECT_TRUE(s.Extract().empty());
}

TEST(F2HeavyHitters, SingleItemIsHeavy) {
  Sketch s({.phi = 0.1, .seed = 2});
  for (int i = 0; i < 100; ++i) s.Add(5);
  auto out = s.Extract();
  ASSERT_TRUE(Contains(out, 5));
  EXPECT_NEAR(out.front().estimate, 100.0, 1.0);
}

TEST(F2HeavyHitters, FindsPlantedHeavyAmongNoise) {
  // Theorem 2.10 contract: must return every j with a[j]² ≥ φ·F2.
  Sketch s({.phi = 0.05, .seed = 3});
  // Noise: 4000 unit items → F2_noise = 4000. Heavy: a = 40 → a² = 1600,
  // F2 total ≈ 5600, ratio ≈ 0.28 ≥ φ.
  s.Add(123456, 40);
  for (uint64_t i = 0; i < 4000; ++i) s.Add(i);
  auto out = s.Extract();
  ASSERT_TRUE(Contains(out, 123456));
}

TEST(F2HeavyHitters, FrequencyEstimateWithinHalf) {
  // The returned value must be a (1 ± 1/2)-approximation.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Sketch s({.phi = 0.05, .seed = seed});
    s.Add(777, 60);
    for (uint64_t i = 0; i < 3000; ++i) s.Add(i + 1000000);
    auto out = s.Extract();
    ASSERT_TRUE(Contains(out, 777)) << "seed " << seed;
    for (const auto& h : out) {
      if (h.id == 777) {
        EXPECT_GE(h.estimate, 30.0) << "seed " << seed;
        EXPECT_LE(h.estimate, 90.0) << "seed " << seed;
      }
    }
  }
}

TEST(F2HeavyHitters, LightItemsNotReported) {
  Sketch s({.phi = 0.1, .seed = 4});
  s.Add(1, 100);  // the only heavy item
  for (uint64_t i = 10; i < 1000; ++i) s.Add(i);  // unit noise
  auto out = s.Extract();
  ASSERT_TRUE(Contains(out, 1));
  // No unit-frequency item should read as heavy: threshold is
  // sqrt(phi*F2/4) = sqrt(0.1*~11000/4) ≈ 16.
  for (const auto& h : out) {
    EXPECT_EQ(h.id, 1u) << "spurious heavy hitter " << h.id;
  }
}

TEST(F2HeavyHitters, MultipleHeavyAllFound) {
  Sketch s({.phi = 0.02, .seed = 5});
  for (uint64_t j = 0; j < 5; ++j) s.Add(1000 + j, 50);
  for (uint64_t i = 0; i < 2000; ++i) s.Add(i);
  auto out = s.Extract();
  for (uint64_t j = 0; j < 5; ++j) {
    EXPECT_TRUE(Contains(out, 1000 + j)) << "missing heavy " << j;
  }
}

TEST(F2HeavyHitters, SortedByEstimateDescending) {
  Sketch s({.phi = 0.01, .seed = 6});
  s.Add(1, 100);
  s.Add(2, 70);
  s.Add(3, 40);
  auto out = s.Extract();
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].estimate, out[i].estimate);
  }
}

TEST(F2HeavyHitters, SpaceScalesWithPhiInverse) {
  F2HeavyHitters coarse({.phi = 0.1, .seed = 7});
  F2HeavyHitters fine({.phi = 0.001, .seed = 7});
  EXPECT_GT(fine.MemoryBytes(), 10 * coarse.MemoryBytes());
}

TEST(F2HeavyHitters, CandidatePruningBoundsMemory) {
  Sketch s({.phi = 0.05, .seed = 8});
  for (uint64_t i = 0; i < 50000; ++i) s.Add(i);
  // Candidate set is capped at ~2·cand_factor/φ = 160 entries; memory stays
  // small despite 50k distinct ids.
  EXPECT_LT(s.hh.MemoryBytes(), 200u << 10);
}

TEST(F2HeavyHitters, EstimateF2Reasonable) {
  Sketch s({.phi = 0.05, .seed = 9});
  for (uint64_t i = 0; i < 5000; ++i) s.Add(i);
  EXPECT_NEAR(s.hh.EstimateF2(), 5000.0, 2500.0);
}

TEST(F2HeavyHitters, RecallOverZipfSweep) {
  // Zipf stream: top items are heavy. Check ≥ 90% recall of truly-φ-heavy
  // ids over several seeds.
  int found = 0, expected = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    std::vector<int64_t> freq(500);
    double f2 = 0;
    for (int i = 0; i < 500; ++i) {
      freq[i] = 1 + 3000 / (i + 1);
      f2 += static_cast<double>(freq[i]) * freq[i];
    }
    Sketch s({.phi = 0.01, .seed = 100 + seed});
    for (int i = 0; i < 500; ++i) s.Add(i, freq[i]);
    auto out = s.Extract();
    for (int i = 0; i < 500; ++i) {
      if (static_cast<double>(freq[i]) * freq[i] >= 0.01 * f2) {
        ++expected;
        found += Contains(out, i);
      }
    }
  }
  ASSERT_GT(expected, 0);
  EXPECT_GE(static_cast<double>(found) / expected, 0.9);
}

// Merge must reject every shape/seed mismatch, including the parameters the
// inner CountSketch cannot see (cand_factor bounds the candidate set,
// noise_floor_sigmas changes Extract's admission): merging sketches that
// disagree on those silently produces a state neither config describes.
TEST(F2HeavyHittersMerge, MismatchedConfigsAbort) {
  F2HeavyHitters::Config base;
  base.phi = 0.05;
  base.seed = 11;
  {
    Sketch a(base), b(base);
    a.Add(1);
    b.Add(2);
    a.hh.Merge(b.hh, a.rows);  // identical configs merge fine
  }
  auto expect_merge_death = [&](F2HeavyHitters::Config other) {
    F2HeavyHitters a(base), b(other);
    EXPECT_DEATH(a.Merge(b, RowsFor(base)), "CHECK failed");
  };
  F2HeavyHitters::Config c = base;
  c.seed = 12;
  expect_merge_death(c);
  c = base;
  c.phi = 0.1;
  expect_merge_death(c);
  c = base;
  c.depth = base.depth + 2;
  expect_merge_death(c);
  c = base;
  c.width_factor = base.width_factor * 2;
  expect_merge_death(c);
  c = base;
  c.cand_factor = base.cand_factor * 2;
  expect_merge_death(c);
  c = base;
  c.noise_floor_sigmas = base.noise_floor_sigmas + 1;
  expect_merge_death(c);
}

}  // namespace
}  // namespace streamkc
