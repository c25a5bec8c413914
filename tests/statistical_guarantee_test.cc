// Statistical guarantee sweep: EstimateMaxCover's α-approximation is a
// probabilistic claim, so it is tested as one — many seeds per
// (family, α) cell, with the α-bound asserted against the greedy/OPT
// bracket and a bounded expected failure rate per cell. Every failing seed
// is printed so the exact instance replays deterministically.
//
// Seed counts scale with STREAMKC_SWEEP_SEEDS (default keeps the tier-1 run
// fast; ctest -C stress raises it to ISSUE-scale sweeps) and the base seed
// with STREAMKC_SWEEP_BASE_SEED (set it to a printed failing seed with
// STREAMKC_SWEEP_SEEDS=1 to replay just that instance).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "core/estimate_max_cover.h"
#include "test_util.h"

namespace streamkc {
namespace {

// One cell of the sweep grid: (family, alpha) at a fixed instance shape. The
// family is a std::string, not a const char*, so gtest prints its text
// rather than its address and the discovered test name is stable.
class StatisticalSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

// Sweeps one cell at instance shape (m, n, k = 16). With `retiring`, every
// answer must also be the unretired estimator's (AnswerExact) and the cell's
// states must retire at least one level in all.
void SweepCell(const std::string& family, double alpha, uint64_t m,
               uint64_t n, bool retiring) {
  const uint64_t k = 16;
  const uint64_t num_seeds = EnvScaledU64("STREAMKC_SWEEP_SEEDS", 8);
  const uint64_t base_seed = EnvScaledU64("STREAMKC_SWEEP_BASE_SEED", 5000);

  uint64_t failures = 0;
  uint64_t retired = 0;
  std::string failing_seeds;
  for (uint64_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = base_seed + i;
    GeneratedInstance inst = MakeFamilyInstance(family, m, n, k, seed);
    const double greedy = static_cast<double>(GreedyCoverage(inst.system, k));
    EstimateMaxCover::Config c;
    c.params = Params::Practical(m, n, k, alpha);
    c.seed = SplitMix64(seed ^ 0xA1FA);
    EstimateMaxCover est(c);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, est);
    EstimateOutcome out = est.Finalize();
    const bool ok = out.feasible && out.estimate >= greedy / (1.5 * alpha) &&
                    out.estimate <= OptUpperBound(inst.system, k) * 1.2;
    if (!ok) {
      ++failures;
      failing_seeds += std::to_string(seed) + " ";
      std::printf("[ sweep ] FAIL cell(%s, alpha=%.0f, m=%llu) seed=%llu "
                  "estimate=%.0f greedy=%.0f feasible=%d "
                  "(replay: STREAMKC_SWEEP_BASE_SEED=%llu "
                  "STREAMKC_SWEEP_SEEDS=1)\n",
                  family.c_str(), alpha, (unsigned long long)m,
                  (unsigned long long)seed, out.estimate, greedy,
                  out.feasible ? 1 : 0, (unsigned long long)seed);
    }
    if (retiring) {
      EXPECT_TRUE(est.AnswerExact(out.estimate))
          << "seed " << seed << ": estimate " << out.estimate
          << " < retired guess " << est.largest_retired_guess();
      retired += est.num_retired();
    }
  }
  // The guarantee is with-high-probability, not almost-sure: a sweep is
  // allowed a small failure budget (10% + 1), and anything beyond it means
  // the estimator misses its α-factor systematically, not unluckily.
  const uint64_t allowed = num_seeds / 10 + 1;
  EXPECT_LE(failures, allowed)
      << "cell(" << family << ", alpha=" << alpha << ", m=" << m
      << "): " << failures << "/" << num_seeds
      << " seeds broke the alpha-bound; failing seeds: " << failing_seeds;
  if (retiring) {
    EXPECT_GE(retired, 1u) << "cell(" << family << ", alpha=" << alpha
                           << ", m=" << m << "): no level retired";
  }
}

TEST_P(StatisticalSweep, AlphaBoundHoldsAcrossSeeds) {
  // Streams of 1952-3072 edges: below the first retirement check (2^12).
  SweepCell(std::get<0>(GetParam()), std::get<1>(GetParam()), 256, 1024,
            /*retiring=*/false);
}

TEST_P(StatisticalSweep, AlphaBoundHoldsOnRetiringStreams) {
  // The shape where Retirement.SweepCellsAnswerExactly retires guesses.
  SweepCell(std::get<0>(GetParam()), std::get<1>(GetParam()), 2048, 8192,
            /*retiring=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StatisticalSweep,
    ::testing::Combine(::testing::Values("uniform", "zipf", "planted"),
                       ::testing::Values(4.0, 8.0)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>& info) {
      return std::get<0>(info.param) + "_alpha" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace streamkc
