#include "core/estimate_max_cover.h"

#include <gtest/gtest.h>

#include <ostream>

#include "test_util.h"

namespace streamkc {
namespace {

EstimateMaxCover MakeEstimator(const SetSystem& sys, uint64_t k, double alpha,
                               uint64_t seed) {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.seed = seed;
  return EstimateMaxCover(c);
}

TEST(EstimateMaxCover, TrivialBranchWhenKAlphaExceedsM) {
  auto inst = RandomUniform(64, 512, 8, 1);
  EstimateMaxCover est = MakeEstimator(inst.system, 16, 8, 1);  // kα=128 ≥ 64
  EXPECT_TRUE(est.trivial_mode());
  FeedSystem(inst.system, ArrivalOrder::kRandom, 1, est);
  EstimateOutcome out = est.Finalize();
  EXPECT_TRUE(out.feasible);
  EXPECT_EQ(out.source, "trivial");
  double covered = static_cast<double>(inst.system.CoveredUniverseSize());
  // L0(covered)/α, with KMV error margin.
  EXPECT_NEAR(out.estimate, covered / 8.0, covered / 8.0 * 0.4);
  // n/α lower-bounds OPT: OPT covers at least covered·k/m = covered/4.
  EXPECT_LE(out.estimate, OptUpperBound(inst.system, 16));
}

TEST(EstimateMaxCover, OracleGridSkipsTinyGuesses) {
  auto inst = RandomUniform(2048, 4096, 8, 2);
  EstimateMaxCover est = MakeEstimator(inst.system, 8, 8, 2);
  EXPECT_FALSE(est.trivial_mode());
  // Guesses z = 4096, 1024, 256, 64, 16 (step 4, floor 8) × 2 reps.
  EXPECT_EQ(est.num_oracles(), 10u);
}

// The headline contract (Theorem 3.1 shape, practical constants): the
// estimate is within [OPT/(c·α), OPT] across families and seeds.
struct EstCase {
  const char* name;
  GeneratedInstance (*make)(uint64_t seed);
  uint64_t k;
};

// Prints a case by its family name, so the discovered test name is the same
// in every build instead of carrying the struct's pointer bytes.
void PrintTo(const EstCase& tc, std::ostream* os) { *os << tc.name; }

GeneratedInstance EstPlanted(uint64_t seed) {
  return PlantedCover(2048, 4096, 32, 0.5, 6, seed);
}
GeneratedInstance EstLarge(uint64_t seed) {
  return LargeSetFamily(2048, 2048, 4, seed);
}
GeneratedInstance EstSmall(uint64_t seed) {
  return SmallSetFamily(2048, 4096, 64, seed);
}
GeneratedInstance EstCommon(uint64_t seed) {
  return CommonElementFamily(1024, 2048, 8, 4.0, 1024, seed);
}
GeneratedInstance EstGraph(uint64_t seed) {
  return GraphNeighborhoods(2048, 24.0, seed);
}

class EstimateQuality : public ::testing::TestWithParam<EstCase> {};

TEST_P(EstimateQuality, WithinAlphaOfOpt) {
  const EstCase& tc = GetParam();
  const double alpha = 8;
  auto inst = tc.make(77);
  double greedy = static_cast<double>(GreedyCoverage(inst.system, tc.k));
  double opt_ub = OptUpperBound(inst.system, tc.k);
  EstimateMaxCover est = MakeEstimator(inst.system, tc.k, alpha, 1234);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 5, est);
  EstimateOutcome out = est.Finalize();
  ASSERT_TRUE(out.feasible) << tc.name;
  EXPECT_GT(out.estimate, 0.0) << tc.name;
  // Lower bound property: never exceeds OPT (up to sketch slack).
  EXPECT_LE(out.estimate, opt_ub * 1.2) << tc.name;
  // α-approximation with practical constants (measured headroom ≤ ~5.5α/8).
  EXPECT_GE(out.estimate, greedy / (1.5 * alpha)) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, EstimateQuality,
    ::testing::Values(EstCase{"planted", EstPlanted, 32},
                      EstCase{"large", EstLarge, 8},
                      EstCase{"small", EstSmall, 64},
                      EstCase{"common", EstCommon, 8},
                      EstCase{"graph", EstGraph, 48}),
    [](const ::testing::TestParamInfo<EstCase>& info) {
      return info.param.name;
    });

TEST(EstimateMaxCover, TighterAlphaTighterEstimate) {
  // Smaller α must not give a worse estimate (modulo noise): compare α = 4
  // against α = 16 on the same instance.
  auto inst = EstPlanted(3);
  auto run = [&](double alpha) {
    EstimateMaxCover est = MakeEstimator(inst.system, 32, alpha, 55);
    FeedSystem(inst.system, ArrivalOrder::kRandom, 6, est);
    return est.Finalize().estimate;
  };
  EXPECT_GE(run(4) * 1.5, run(16));
}

TEST(EstimateMaxCover, OrderInvariance) {
  auto inst = EstLarge(9);
  auto run = [&](ArrivalOrder order) {
    EstimateMaxCover est = MakeEstimator(inst.system, 8, 8, 77);
    FeedSystem(inst.system, order, 8, est);
    return est.Finalize().estimate;
  };
  EXPECT_DOUBLE_EQ(run(ArrivalOrder::kRandom),
                   run(ArrivalOrder::kSetContiguous));
}

TEST(EstimateMaxCover, DeterministicInSeed) {
  auto inst = EstPlanted(11);
  auto run = [&] {
    EstimateMaxCover est = MakeEstimator(inst.system, 32, 8, 888);
    FeedSystem(inst.system, ArrivalOrder::kRandom, 9, est);
    return est.Finalize().estimate;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(EstimateMaxCover, MemoryIndependentOfStreamLength) {
  auto inst_small = PlantedCover(1024, 2048, 16, 0.5, 4, 13);
  auto inst_big = PlantedCover(1024, 2048, 16, 0.5, 24, 13);  // 6× the edges
  auto run = [&](const SetSystem& sys) {
    EstimateMaxCover est = MakeEstimator(sys, 16, 8, 99);
    FeedSystem(sys, ArrivalOrder::kRandom, 1, est);
    return est.MemoryBytes();
  };
  size_t small = run(inst_small.system);
  size_t big = run(inst_big.system);
  EXPECT_LE(static_cast<double>(big), static_cast<double>(small) * 1.6);
}

}  // namespace
}  // namespace streamkc
