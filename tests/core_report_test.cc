#include "core/report_max_cover.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

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

// The one-pass contract: ReportMaxCover::Finalize() finalizes every oracle
// once, and must answer exactly what the two-call composition
// {EstimateMaxCover::Finalize(), ExtractSolution(k)} answers on its wrapped
// estimator. The twin below is that estimator, built as ReportMaxCover
// builds it (reporting on, seed SplitMix64(seed ^ 0xeeee)).
struct OnePassCase {
  const char* name;
  GeneratedInstance (*make)(uint64_t seed);
  uint64_t k;
  uint32_t parts;      // > 1: the state is merged from this many parts
  bool empty;          // feed no edges
  const char* source;  // the subroutine that wins at reporter seed 4321
};

void PrintTo(const OnePassCase& tc, std::ostream* os) { *os << tc.name; }

GeneratedInstance OnePassCommon(uint64_t seed) {
  return CommonElementFamily(2048, 4096, 16, 2.0, 64, seed);
}
GeneratedInstance OnePassGraph(uint64_t seed) {
  return GraphNeighborhoods(2048, 12.0, seed);
}
GeneratedInstance OnePassTrivial(uint64_t seed) {
  return RandomUniform(32, 256, 8, seed);  // kα = 64 ≥ m = 32
}

class ReportOnePass : public ::testing::TestWithParam<OnePassCase> {};

TEST_P(ReportOnePass, FinalizeEqualsEstimateThenExtract) {
  const OnePassCase& tc = GetParam();
  const double alpha = 8;
  const uint64_t seed = 4321;
  auto inst = tc.make(55);
  ReportMaxCover::Config rc;
  rc.params = Params::Practical(inst.system.num_sets(),
                                inst.system.num_elements(), tc.k, alpha);
  rc.seed = seed;
  EstimateMaxCover::Config ec;
  ec.params = rc.params;
  ec.reporting = true;
  ec.seed = SplitMix64(seed ^ 0xeeee);

  std::vector<Edge> edges;
  if (!tc.empty) edges = InstanceEdges(inst, 7);
  std::vector<ReportMaxCover> reps;
  std::vector<EstimateMaxCover> twins;
  for (uint32_t p = 0; p < tc.parts; ++p) {
    reps.emplace_back(rc);
    twins.emplace_back(ec);
  }
  std::vector<std::vector<Edge>> routed(tc.parts);
  for (size_t i = 0; i < edges.size(); ++i) {
    routed[SplitMix64(edges[i].element) % tc.parts].push_back(edges[i]);
  }
  for (uint32_t p = 0; p < tc.parts; ++p) {
    VectorEdgeStream a(routed[p]);
    FeedStream(a, reps[p]);
    VectorEdgeStream b(routed[p]);
    FeedStream(b, twins[p]);
  }
  for (uint32_t p = 1; p < tc.parts; ++p) {
    reps[0].Merge(reps[p]);
    twins[0].Merge(twins[p]);
  }

  MaxCoverSolution sol = reps[0].Finalize();
  EstimateOutcome est = twins[0].Finalize();
  EXPECT_EQ(sol.source, tc.source) << tc.name;
  EXPECT_EQ(sol.estimate, est.estimate) << tc.name;
  EXPECT_EQ(sol.source, est.source) << tc.name;
  std::vector<SetId> one_pass;
  EstimateOutcome both = twins[0].FinalizeWithSolution(tc.k, &one_pass);
  EXPECT_EQ(both.estimate, est.estimate) << tc.name;
  EXPECT_EQ(both.source, est.source) << tc.name;
  EXPECT_EQ(one_pass, twins[0].ExtractSolution(tc.k)) << tc.name;
  if (twins[0].trivial_mode()) {
    // The trivial branch's sets are ReportMaxCover's own bottom-k sample.
    EXPECT_TRUE(one_pass.empty());
    EXPECT_EQ(sol.sets.size(), tc.k);
    return;
  }
  EXPECT_EQ(sol.sets, one_pass) << tc.name;
  if (tc.empty) {
    EXPECT_EQ(sol.estimate, 0.0);
    EXPECT_TRUE(sol.sets.empty());
  } else {
    EXPECT_FALSE(sol.sets.empty()) << tc.name << " won by " << sol.source;
  }
}

// At k = 4 LargeSet wins "large" and "common" (merged or not), so their
// witnesses take the one-pass path; SmallSet wins the others.
INSTANTIATE_TEST_SUITE_P(
    Families, ReportOnePass,
    ::testing::Values(
        OnePassCase{"planted", RepPlanted, 32, 1, false, "small-set"},
        OnePassCase{"large", RepLarge, 4, 1, false, "large-set"},
        OnePassCase{"small", RepSmall, 64, 1, false, "small-set"},
        OnePassCase{"common", OnePassCommon, 4, 1, false, "large-set"},
        OnePassCase{"graph", OnePassGraph, 16, 1, false, "small-set"},
        OnePassCase{"trivial", OnePassTrivial, 8, 1, false, "trivial"},
        OnePassCase{"no_guess_passed", RepPlanted, 32, 1, true,
                    "no-guess-passed"},
        OnePassCase{"small_merged3", RepSmall, 64, 3, false, "small-set"},
        OnePassCase{"planted_merged3", RepPlanted, 32, 3, false,
                    "small-set"},
        OnePassCase{"large_merged3", RepLarge, 4, 3, false, "large-set"}),
    [](const ::testing::TestParamInfo<OnePassCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace streamkc
