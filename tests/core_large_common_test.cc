#include "core/large_common.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace streamkc {
namespace {

LargeCommon MakeLargeCommon(const SetSystem& sys, uint64_t k, double alpha,
                            uint64_t seed, bool reporting = false) {
  LargeCommon::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.universe_size = sys.num_elements();
  c.reporting = reporting;
  c.seed = seed;
  return LargeCommon(c);
}

TEST(LargeCommon, LevelGridCoversAlpha) {
  auto inst = RandomUniform(256, 512, 4, 1);
  LargeCommon lc = MakeLargeCommon(inst.system, 4, 16, 1);
  // β_g = 2, 4, 8, 16 → 4 levels.
  EXPECT_EQ(lc.num_levels(), 4u);
}

TEST(LargeCommon, FeasibleOnCommonElementFamily) {
  // Case I instance: many (βk)-common elements → LargeCommon must fire and
  // return Ω(σ|U|/α) without overestimating OPT (Theorem 4.4).
  auto inst = CommonElementFamily(1024, 2048, 8, 4.0, 1024, 7);
  const double alpha = 8;
  int feasible = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    LargeCommon lc = MakeLargeCommon(inst.system, 8, alpha, 100 + seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, lc);
    EstimateOutcome out = lc.Finalize();
    if (!out.feasible) continue;
    ++feasible;
    EXPECT_LE(out.estimate, OptUpperBound(inst.system, 8) * 1.05);
    Params p = Params::Practical(1024, 2048, 8, alpha);
    EXPECT_GE(out.estimate, p.sigma * 2048.0 / (6.0 * alpha));
  }
  EXPECT_GE(feasible, 4);
}

TEST(LargeCommon, InfeasibleWithoutCommonElements) {
  // Case-II instance: every element rare → all levels should miss their
  // σβ|U|/(4α) threshold.
  auto inst = LargeSetFamily(1024, 2048, 4, 9);
  int feasible = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    LargeCommon lc = MakeLargeCommon(inst.system, 8, 8, 200 + seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, lc);
    feasible += lc.Finalize().feasible;
  }
  EXPECT_LE(feasible, 1);
}

TEST(LargeCommon, NeverOverestimatesAcrossFamilies) {
  // The oracle property (Def. 3.4): output ≤ OPT w.h.p., on any instance.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    auto inst = ZipfFrequency(512, 1024, 12, 1.0, 300 + seed);
    LargeCommon lc = MakeLargeCommon(inst.system, 8, 4, seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, lc);
    EstimateOutcome out = lc.Finalize();
    if (out.feasible) {
      EXPECT_LE(out.estimate, OptUpperBound(inst.system, 8) * 1.05);
    }
  }
}

TEST(LargeCommon, OrderInvariance) {
  // A sketch's output distribution must not depend on arrival order; with a
  // fixed seed the L0 state is exactly order-independent (KMV minima are a
  // set), so estimates must match bit-for-bit across orders.
  auto inst = CommonElementFamily(512, 1024, 8, 2.0, 256, 11);
  double est_random = 0, est_sorted = 0;
  {
    LargeCommon lc = MakeLargeCommon(inst.system, 8, 8, 42);
    FeedSystem(inst.system, ArrivalOrder::kRandom, 1, lc);
    est_random = lc.Finalize().estimate;
  }
  {
    LargeCommon lc = MakeLargeCommon(inst.system, 8, 8, 42);
    FeedSystem(inst.system, ArrivalOrder::kSetContiguous, 1, lc);
    est_sorted = lc.Finalize().estimate;
  }
  EXPECT_DOUBLE_EQ(est_random, est_sorted);
}

TEST(LargeCommon, DuplicateEdgesHarmless) {
  auto inst = CommonElementFamily(512, 1024, 8, 2.0, 256, 13);
  LargeCommon a = MakeLargeCommon(inst.system, 8, 8, 55);
  LargeCommon b = MakeLargeCommon(inst.system, 8, 8, 55);
  VectorEdgeStream once = inst.system.MakeStream(ArrivalOrder::kRandom, 2);
  FeedStream(once, a);
  // Feed the same stream twice into b.
  once.Reset();
  FeedStream(once, b);
  once.Reset();
  FeedStream(once, b);
  EXPECT_DOUBLE_EQ(a.Finalize().estimate, b.Finalize().estimate);
}

TEST(LargeCommon, ReportingExtractsSampledGroup) {
  auto inst = CommonElementFamily(1024, 2048, 8, 4.0, 1024, 17);
  LargeCommon lc = MakeLargeCommon(inst.system, 8, 8, 77, /*reporting=*/true);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 3, lc);
  EstimateOutcome out = lc.Finalize();
  ASSERT_TRUE(out.feasible);
  std::vector<SetId> sets = lc.ExtractSolution(8);
  ASSERT_FALSE(sets.empty());
  EXPECT_LE(sets.size(), 8u);
  // The reported sets' true coverage should carry a decent share of the
  // estimate (the estimate already divides by β).
  uint64_t cov = inst.system.CoverageOf(sets);
  EXPECT_GE(static_cast<double>(cov), out.estimate / 4.0);
}

TEST(LargeCommon, NonReportingExtractAborts) {
  auto inst = RandomUniform(64, 128, 4, 19);
  LargeCommon lc = MakeLargeCommon(inst.system, 4, 4, 1, /*reporting=*/false);
  EXPECT_DEATH(lc.ExtractSolution(4), "CHECK failed");
}

TEST(LargeCommon, MemorySmallAndIndependentOfStream) {
  auto inst = CommonElementFamily(2048, 4096, 8, 4.0, 2048, 23);
  LargeCommon lc = MakeLargeCommon(inst.system, 8, 8, 3);
  size_t before = lc.MemoryBytes();
  FeedSystem(inst.system, ArrivalOrder::kRandom, 4, lc);
  size_t after = lc.MemoryBytes();
  // L0 sketches cap out; no stream-proportional state.
  EXPECT_LE(after, before + (64u << 10));
  EXPECT_LE(after, 512u << 10);
}

// Guess z of EstimateMaxCover runs its oracle on the reduced universe [z]
// and may only ever report z: the guess-retirement rule relies on it. Fed
// elements far outside [0, 8), the L0 estimate itself overshoots, and the
// estimate must still be clamped to the universe.
TEST(LargeCommon, NeverReportsMoreThanTheUniverse) {
  LargeCommon::Config c;
  c.params = Params::Practical(64, 1 << 20, 4, 8);
  c.universe_size = 8;
  c.seed = 3;
  LargeCommon lc(c);
  for (const Edge& e : SyntheticEdges(20000, 5, 64, 1 << 20)) lc.Process(e);
  const EstimateOutcome out = lc.Finalize();
  ASSERT_TRUE(out.feasible);
  EXPECT_LE(out.estimate, 8.0);
}

}  // namespace
}  // namespace streamkc
