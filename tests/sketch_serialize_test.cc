// Checkpoint/restore round-trip tests: a restored sketch must be
// bit-identical in behavior to the saved one — same estimates, and it must
// continue the stream seamlessly (save mid-stream, restore, keep feeding,
// compare against an uninterrupted run).

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/hyperloglog.h"
#include "sketch/l0_estimator.h"
#include "test_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

TEST(L0Serialize, RoundTripPreservesEstimate) {
  L0Estimator original({.num_mins = 64, .seed = 7});
  for (uint64_t i = 0; i < 5000; ++i) original.Add(i * 17);
  std::stringstream buffer;
  original.Save(buffer);
  L0Estimator restored = L0Estimator::Load(buffer);
  EXPECT_DOUBLE_EQ(restored.Estimate(), original.Estimate());
  EXPECT_EQ(restored.items_added(), original.items_added());
  EXPECT_EQ(restored.IsExact(), original.IsExact());
}

TEST(L0Serialize, ContinuesStreamSeamlessly) {
  L0Estimator uninterrupted({.num_mins = 32, .seed = 9});
  L0Estimator first_half({.num_mins = 32, .seed = 9});
  for (uint64_t i = 0; i < 1000; ++i) {
    uninterrupted.Add(i);
    first_half.Add(i);
  }
  std::stringstream buffer;
  first_half.Save(buffer);
  L0Estimator resumed = L0Estimator::Load(buffer);
  for (uint64_t i = 1000; i < 2000; ++i) {
    uninterrupted.Add(i);
    resumed.Add(i);
  }
  EXPECT_DOUBLE_EQ(resumed.Estimate(), uninterrupted.Estimate());
}

TEST(L0Serialize, ExactModeSurvives) {
  L0Estimator original({.num_mins = 64, .seed = 3});
  for (uint64_t i = 0; i < 10; ++i) original.Add(i);
  std::stringstream buffer;
  original.Save(buffer);
  L0Estimator restored = L0Estimator::Load(buffer);
  EXPECT_TRUE(restored.IsExact());
  EXPECT_DOUBLE_EQ(restored.Estimate(), 10.0);
}

TEST(L0Serialize, CorruptMagicAborts) {
  std::stringstream buffer;
  buffer.write("XXXXYYYY", 8);
  EXPECT_DEATH(L0Estimator::Load(buffer), "CHECK failed");
}

TEST(L0Serialize, TruncatedStreamAborts) {
  L0Estimator original({.num_mins = 64, .seed = 7});
  for (uint64_t i = 0; i < 500; ++i) original.Add(i);
  std::stringstream buffer;
  original.Save(buffer);
  std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_DEATH(L0Estimator::Load(truncated), "CHECK failed");
}

// Blob byte layout (see L0Estimator::Save): magic u32, version u32,
// num_mins u32, seed u64, minima count u64, minima u64[count], saturated
// u32, items u64. The tampering tests below patch specific fields of a
// genuine blob: Load must re-establish the sorted-distinct-in-field
// invariant rather than trust the bytes, because a corrupted minima vector
// silently deflates every later estimate instead of crashing.
constexpr size_t kL0MinsOffset = 4 + 4 + 4 + 8 + 8;

std::string SavedL0Blob(uint32_t num_mins, uint64_t items) {
  L0Estimator sketch({.num_mins = num_mins, .seed = 7});
  for (uint64_t i = 0; i < items; ++i) sketch.Add(i * 977 + 1);
  std::stringstream buffer;
  sketch.Save(buffer);
  return buffer.str();
}

void PatchU64(std::string& blob, size_t offset, uint64_t value) {
  ASSERT_LE(offset + sizeof(value), blob.size());
  std::memcpy(blob.data() + offset, &value, sizeof(value));
}

uint64_t PeekU64(const std::string& blob, size_t offset) {
  uint64_t value = 0;
  std::memcpy(&value, blob.data() + offset, sizeof(value));
  return value;
}

TEST(L0Serialize, DuplicatedMinimumAborts) {
  std::string blob = SavedL0Blob(64, 500);
  // Clone the first retained minimum over the second: still sorted after
  // Load's re-sort, but no longer distinct.
  PatchU64(blob, kL0MinsOffset + 8, PeekU64(blob, kL0MinsOffset));
  std::stringstream tampered(blob);
  EXPECT_DEATH(L0Estimator::Load(tampered), "CHECK failed");
}

TEST(L0Serialize, OutOfFieldMinimumAborts) {
  std::string blob = SavedL0Blob(64, 500);
  // 2^61 - 1 is the field modulus — one past the largest possible hash
  // output, so it can never be a legitimate retained minimum.
  PatchU64(blob, kL0MinsOffset, (uint64_t{1} << 61) - 1);
  std::stringstream tampered(blob);
  EXPECT_DEATH(L0Estimator::Load(tampered), "CHECK failed");
}

TEST(L0Serialize, SaturatedFlagWithoutFullMinsAborts) {
  // 10 distinct items into a 64-min sketch: exact mode, 10 minima.
  std::string blob = SavedL0Blob(64, 10);
  const size_t count_offset = 4 + 4 + 4 + 8;
  ASSERT_EQ(PeekU64(blob, count_offset), 10u);
  // Flip the saturated flag (u32 right after the minima): a saturated
  // sketch by construction holds exactly num_mins values, so this is an
  // impossible state and Load must refuse to resurrect it.
  const size_t saturated_offset = kL0MinsOffset + 10 * 8;
  uint32_t one = 1;
  std::memcpy(blob.data() + saturated_offset, &one, sizeof(one));
  std::stringstream tampered(blob);
  EXPECT_DEATH(L0Estimator::Load(tampered), "CHECK failed");
}

TEST(L0Serialize, HeapOrderedLegacyBlobStillLoads) {
  // Version-1 blobs from the pre-batching build stored the minima in heap
  // order; Load sorts before validating, so a shuffled (but distinct and
  // in-field) vector must load and estimate identically.
  std::string blob = SavedL0Blob(64, 500);
  uint64_t a = PeekU64(blob, kL0MinsOffset);
  uint64_t b = PeekU64(blob, kL0MinsOffset + 8);
  ASSERT_LT(a, b);
  PatchU64(blob, kL0MinsOffset, b);
  PatchU64(blob, kL0MinsOffset + 8, a);
  std::stringstream shuffled(blob);
  L0Estimator restored = L0Estimator::Load(shuffled);
  std::stringstream pristine(SavedL0Blob(64, 500));
  EXPECT_DOUBLE_EQ(restored.Estimate(),
                   L0Estimator::Load(pristine).Estimate());
}

TEST(CountSketchSerialize, RoundTripPreservesQueries) {
  CountSketch original({.depth = 5, .width = 128, .seed = 11});
  for (uint64_t i = 0; i < 3000; ++i) original.Add(i % 200, 1 + i % 3);
  std::stringstream buffer;
  original.Save(buffer);
  CountSketch restored = CountSketch::Load(buffer);
  for (uint64_t id = 0; id < 200; id += 7) {
    EXPECT_DOUBLE_EQ(restored.PointQuery(id), original.PointQuery(id));
  }
  EXPECT_DOUBLE_EQ(restored.EstimateF2(), original.EstimateF2());
  EXPECT_DOUBLE_EQ(restored.QuickF2(), original.QuickF2());
}

TEST(CountSketchSerialize, RestoredSketchMerges) {
  // A restored shard must merge with a live one (same seed).
  CountSketch::Config cfg{.depth = 3, .width = 64, .seed = 13};
  CountSketch shard_a(cfg), shard_b(cfg), whole(cfg);
  for (uint64_t i = 0; i < 1000; ++i) {
    (i % 2 ? shard_a : shard_b).Add(i % 50);
    whole.Add(i % 50);
  }
  std::stringstream buffer;
  shard_a.Save(buffer);
  CountSketch restored = CountSketch::Load(buffer);
  restored.Merge(shard_b);
  for (uint64_t id = 0; id < 50; ++id) {
    EXPECT_DOUBLE_EQ(restored.PointQuery(id), whole.PointQuery(id));
  }
}

TEST(HllSerialize, RoundTripPreservesEstimate) {
  HyperLogLog original({.precision = 12, .seed = 17});
  for (uint64_t i = 0; i < 40000; ++i) original.Add(i);
  std::stringstream buffer;
  original.Save(buffer);
  HyperLogLog restored = HyperLogLog::Load(buffer);
  EXPECT_DOUBLE_EQ(restored.Estimate(), original.Estimate());
}

TEST(HllSerialize, ContinuesStream) {
  HyperLogLog uninterrupted({.precision = 10, .seed = 19});
  HyperLogLog half({.precision = 10, .seed = 19});
  for (uint64_t i = 0; i < 5000; ++i) {
    uninterrupted.Add(i);
    half.Add(i);
  }
  std::stringstream buffer;
  half.Save(buffer);
  HyperLogLog resumed = HyperLogLog::Load(buffer);
  for (uint64_t i = 5000; i < 10000; ++i) {
    uninterrupted.Add(i);
    resumed.Add(i);
  }
  EXPECT_DOUBLE_EQ(resumed.Estimate(), uninterrupted.Estimate());
}

TEST(AmsSerialize, RoundTripPreservesEstimate) {
  AmsF2Sketch original({.rows = 5, .cols = 16, .seed = 21});
  for (uint64_t i = 0; i < 2000; ++i) original.Add(i % 321);
  std::stringstream buffer;
  original.Save(buffer);
  AmsF2Sketch restored = AmsF2Sketch::Load(buffer);
  EXPECT_DOUBLE_EQ(restored.Estimate(), original.Estimate());
}

TEST(F2HhSerialize, RoundTripPreservesExtraction) {
  const F2HeavyHitters::Config cfg{.phi = 0.05, .seed = 23};
  const CountSketchRows rows = RowsFor(cfg);
  F2HeavyHitters original(cfg);
  original.Add(rows, 777, 80);
  for (uint64_t i = 0; i < 2000; ++i) original.Add(rows, i);
  std::stringstream buffer;
  original.Save(buffer);
  F2HeavyHitters restored = F2HeavyHitters::Load(buffer);
  auto a = original.Extract(rows);
  auto b = restored.Extract(rows);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate);
  }
  EXPECT_DOUBLE_EQ(restored.EstimateF2(), original.EstimateF2());
}

TEST(F2HhSerialize, RestoredContinuesAndMerges) {
  F2HeavyHitters::Config cfg{.phi = 0.05, .seed = 29};
  const CountSketchRows rows = RowsFor(cfg);
  F2HeavyHitters uninterrupted(cfg), half(cfg), other(cfg);
  for (uint64_t i = 0; i < 1000; ++i) {
    uninterrupted.Add(rows, i % 97);
    half.Add(rows, i % 97);
  }
  std::stringstream buffer;
  half.Save(buffer);
  F2HeavyHitters resumed = F2HeavyHitters::Load(buffer);
  for (uint64_t i = 1000; i < 2000; ++i) {
    uninterrupted.Add(rows, i % 97);
    resumed.Add(rows, i % 97);
  }
  EXPECT_DOUBLE_EQ(resumed.EstimateF2(), uninterrupted.EstimateF2());
  (void)other;
}

TEST(F2ContributingSerialize, RoundTripPreservesExtraction) {
  const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, 31);
  F2Contributing original({.phi = 0.05, .max_class_size = 256,
                           .domain_size = 8192, .seed = 31});
  std::vector<std::pair<uint64_t, int64_t>> updates;
  for (uint64_t j = 0; j < 64; ++j) updates.emplace_back(5000 + j, 24);
  for (uint64_t i = 0; i < 1024; ++i) updates.emplace_back(i, 1);
  AddClosedWindows(original, hashes, updates);
  std::stringstream buffer;
  original.Save(buffer);
  F2Contributing restored = F2Contributing::Load(buffer);
  auto a = original.Extract(hashes);
  auto b = restored.Extract(hashes);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate);
  }
}

template <typename Sketch>
std::string Blob(const Sketch& sketch) {
  std::stringstream ss;
  sketch.Save(ss);
  return ss.str();
}

// Skewed id stream: a few heavy ids among many light ones, so the candidate
// set fills, prunes and holds many entries when saved.
uint64_t SkewedId(uint64_t seed, uint64_t i) {
  const uint64_t h = SplitMix64(seed * 1000003 + i);
  return h % (1 + SplitMix64(h) % 4096);
}

TEST(F2HhSerialize, SaveLoadSaveIsByteStable) {
  // A blob must be a function of the sketch's state, not of its candidate
  // map's insertion history: a loaded sketch re-saves to the same bytes.
  for (double phi : {1.0 / 64, 1.0 / 6, 0.01}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const F2HeavyHitters::Config cfg{.phi = phi, .seed = seed};
      const CountSketchRows rows = RowsFor(cfg);
      F2HeavyHitters hh(cfg);
      for (uint64_t i = 0; i < 5000; ++i) hh.Add(rows, SkewedId(seed, i));
      ASSERT_GT(hh.ItemCount(), 1u);
      const std::string blob = Blob(hh);
      std::stringstream in(blob);
      EXPECT_EQ(Blob(F2HeavyHitters::Load(in)), blob)
          << "phi " << phi << " seed " << seed;
    }
  }
}

TEST(F2ContributingSerialize, SaveLoadSaveIsByteStable) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    F2Contributing fc({.phi = 1.0 / 6, .max_class_size = 6144,
                       .domain_size = 6144, .sample_factor = 4.0,
                       .seed = seed});
    std::vector<std::pair<uint64_t, int64_t>> updates;
    for (uint64_t i = 0; i < 20000; ++i) {
      updates.emplace_back(SkewedId(seed, i), 1);
    }
    AddClosedWindows(fc, F2Contributing::MakeHashes(8, seed), updates);
    const std::string blob = Blob(fc);
    std::stringstream in(blob);
    EXPECT_EQ(Blob(F2Contributing::Load(in)), blob) << "seed " << seed;
  }
}

TEST(F2ContributingSerialize, SharedHashesSaveLoadSaveIsByteStable) {
  // Five full windows through one Hashes. The blob carries no hashes; a
  // loaded sketch re-saves to the same bytes and extracts the same
  // coordinates through the same Hashes.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, seed);
    F2Contributing fc({.phi = 1.0 / 6, .max_class_size = 6144,
                       .domain_size = 6144, .sample_factor = 4.0,
                       .seed = seed});
    for (uint64_t w = 0; w < 5; ++w) {
      std::vector<std::pair<uint64_t, int64_t>> window;
      for (uint64_t i = 0; i < 4096; ++i) {
        window.emplace_back(SkewedId(seed, w * 4096 + i), 1);
      }
      AddClosedWindow(fc, hashes, window);
    }
    const std::string blob = Blob(fc);
    std::stringstream in(blob);
    const F2Contributing loaded = F2Contributing::Load(in);
    EXPECT_EQ(Blob(loaded), blob) << "seed " << seed;
    const auto a = fc.Extract(hashes);
    const auto b = loaded.Extract(hashes);
    ASSERT_FALSE(a.empty()) << "seed " << seed;
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].estimate, b[i].estimate);
    }
  }
}

}  // namespace
}  // namespace streamkc
