#include "core/report_max_cover.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "test_util.h"

namespace streamkc {
namespace {

ReportMaxCover MakeReporter(const SetSystem& sys, uint64_t k, double alpha,
                            uint64_t seed) {
  ReportMaxCover::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.seed = seed;
  return ReportMaxCover(c);
}

TEST(ReportMaxCover, TrivialBranchReturnsKDistinctSets) {
  auto inst = RandomUniform(32, 256, 8, 1);  // kα = 64 ≥ m = 32
  ReportMaxCover rep = MakeReporter(inst.system, 8, 8, 1);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 1, rep);
  MaxCoverSolution sol = rep.Finalize();
  EXPECT_EQ(sol.source, "trivial");
  EXPECT_EQ(sol.sets.size(), 8u);
  std::set<SetId> unique(sol.sets.begin(), sol.sets.end());
  EXPECT_EQ(unique.size(), 8u);
  for (SetId s : sol.sets) EXPECT_LT(s, 32u);
  // Expected coverage of a uniform 8-subset is ≥ OPT·k/m = OPT/4; allow
  // sampling slack.
  uint64_t cov = inst.system.CoverageOf(sol.sets);
  EXPECT_GE(static_cast<double>(cov),
            static_cast<double>(GreedyCoverage(inst.system, 8)) / 10.0);
}

// Theorem 3.2's contract across case families: the reported ≤ k sets have
// true coverage within Õ(α) of OPT.
struct RepCase {
  const char* name;
  GeneratedInstance (*make)(uint64_t seed);
  uint64_t k;
};

// Prints a case by its family name, so the discovered test name is the same
// in every build instead of carrying the struct's pointer bytes.
void PrintTo(const RepCase& tc, std::ostream* os) { *os << tc.name; }

GeneratedInstance RepPlanted(uint64_t seed) {
  return PlantedCover(2048, 4096, 32, 0.5, 6, seed);
}
GeneratedInstance RepLarge(uint64_t seed) {
  return LargeSetFamily(2048, 2048, 4, seed);
}
GeneratedInstance RepSmall(uint64_t seed) {
  return SmallSetFamily(2048, 4096, 64, seed);
}

class ReportQuality : public ::testing::TestWithParam<RepCase> {};

TEST_P(ReportQuality, ReportedSetsCoverWithinAlpha) {
  const RepCase& tc = GetParam();
  const double alpha = 8;
  auto inst = tc.make(55);
  double greedy = static_cast<double>(GreedyCoverage(inst.system, tc.k));
  ReportMaxCover rep = MakeReporter(inst.system, tc.k, alpha, 4321);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 7, rep);
  MaxCoverSolution sol = rep.Finalize();
  ASSERT_FALSE(sol.sets.empty()) << tc.name;
  EXPECT_LE(sol.sets.size(), tc.k) << tc.name;
  for (SetId s : sol.sets) EXPECT_LT(s, inst.system.num_sets());
  uint64_t cov = inst.system.CoverageOf(sol.sets);
  // True coverage within ~1.5α of greedy (measured headroom ≈ 0.5α).
  EXPECT_GE(static_cast<double>(cov), greedy / (1.5 * alpha)) << tc.name;
  // The estimate shown to the caller should not wildly overstate the
  // solution's real coverage (f-style inflation is bounded).
  EXPECT_LE(sol.estimate, static_cast<double>(cov) * 12.0 + 32.0) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, ReportQuality,
    ::testing::Values(RepCase{"planted", RepPlanted, 32},
                      RepCase{"large", RepLarge, 8},
                      RepCase{"small", RepSmall, 64}),
    [](const ::testing::TestParamInfo<RepCase>& info) {
      return info.param.name;
    });

TEST(ReportMaxCover, NoDuplicateSetIds) {
  auto inst = RepSmall(3);
  ReportMaxCover rep = MakeReporter(inst.system, 64, 8, 11);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 2, rep);
  MaxCoverSolution sol = rep.Finalize();
  std::set<SetId> unique(sol.sets.begin(), sol.sets.end());
  EXPECT_EQ(unique.size(), sol.sets.size());
}

TEST(ReportMaxCover, DeterministicInSeed) {
  auto inst = RepPlanted(5);
  auto run = [&] {
    ReportMaxCover rep = MakeReporter(inst.system, 32, 8, 77);
    FeedSystem(inst.system, ArrivalOrder::kRandom, 3, rep);
    return rep.Finalize().sets;
  };
  EXPECT_EQ(run(), run());
}

TEST(ReportMaxCover, MemoryIncludesEstimatorPlusSample) {
  auto inst = RepPlanted(7);
  ReportMaxCover rep = MakeReporter(inst.system, 32, 8, 88);
  EXPECT_GT(rep.MemoryBytes(), 0u);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 4, rep);
  EXPECT_GT(rep.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace streamkc
