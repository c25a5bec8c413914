#include "core/two_pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/feed_stream.h"
#include "test_util.h"

namespace streamkc {
namespace {

TwoPassMaxCover::Config MakeConfig(const SetSystem& sys, uint64_t k,
                                   double alpha, uint64_t seed,
                                   bool reporting = false) {
  TwoPassMaxCover::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.reporting = reporting;
  c.seed = seed;
  return c;
}

TEST(TwoPass, BracketContainsOpt) {
  auto inst = PlantedCover(2048, 8192, 32, 0.25, 6, 3);
  uint64_t opt = inst.planted_coverage;  // 2048
  VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 1);
  TwoPassMaxCover tp(MakeConfig(inst.system, 32, 8, 5));
  RunTwoPass(stream, MakeConfig(inst.system, 32, 8, 5), &tp);
  EXPECT_LE(tp.guess_lo(), opt);
  EXPECT_GE(static_cast<double>(tp.guess_hi()), 0.9 * static_cast<double>(opt));
}

TEST(TwoPass, FewerOraclesThanSinglePass) {
  auto inst = PlantedCover(2048, 1 << 15, 32, 0.0625, 6, 5);
  TwoPassMaxCover tp(MakeConfig(inst.system, 32, 8, 7));
  VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 2);
  RunTwoPass(stream, MakeConfig(inst.system, 32, 8, 7), &tp);

  EstimateMaxCover::Config single;
  single.params = Params::Practical(2048, 1 << 15, 32, 8);
  single.seed = 7;
  EstimateMaxCover sp(single);
  EXPECT_LT(tp.num_oracles(), sp.num_oracles());
}

TEST(TwoPass, QualityMatchesSinglePass) {
  auto inst = PlantedCover(2048, 4096, 32, 0.5, 6, 9);
  double greedy = static_cast<double>(GreedyCoverage(inst.system, 32));
  const double alpha = 8;
  VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 3);
  EstimateOutcome out =
      RunTwoPass(stream, MakeConfig(inst.system, 32, alpha, 11));
  ASSERT_TRUE(out.feasible);
  EXPECT_GE(out.estimate, greedy / (1.5 * alpha));
  EXPECT_LE(out.estimate, OptUpperBound(inst.system, 32) * 1.2);
}

TEST(TwoPass, PeakMemoryBelowSinglePass) {
  // On a dilute universe (OPT ≪ n) the bracket prunes the big guesses, so
  // peak two-pass memory undercuts the single-pass estimator's.
  auto inst = PlantedCover(2048, 1 << 15, 32, 0.0625, 6, 13);
  TwoPassMaxCover tp(MakeConfig(inst.system, 32, 8, 15));
  VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 4);
  RunTwoPass(stream, MakeConfig(inst.system, 32, 8, 15), &tp);

  EstimateMaxCover::Config single;
  single.params = Params::Practical(2048, 1 << 15, 32, 8);
  single.seed = 15;
  EstimateMaxCover sp(single);
  // Peak against peak: retirement frees the single pass's small guesses
  // mid-stream, so its final footprint is not its peak. It is sampled the
  // way TwoPassMaxCover samples itself, after every batch.
  size_t sp_peak = 0;
  VectorEdgeStream sp_stream = inst.system.MakeStream(ArrivalOrder::kRandom, 4);
  EdgeBatch batch(kFeedBatchSize);
  FeedStream(sp_stream, sp, batch, kFeedBatchSize, DegradationPolicy(),
             nullptr, [&](const FeedCounts&) {
               sp_peak = std::max(sp_peak, sp.MemoryBytes());
             });
  sp_peak = std::max(sp_peak, sp.MemoryBytes());
  EXPECT_LT(tp.peak_memory_bytes(), sp_peak);
}

TEST(TwoPass, ReportingWorks) {
  auto inst = SmallSetFamily(1024, 4096, 64, 17);
  TwoPassMaxCover tp(MakeConfig(inst.system, 64, 8, 19, /*reporting=*/true));
  VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 5);
  RunTwoPass(stream, MakeConfig(inst.system, 64, 8, 19, /*reporting=*/true),
             &tp);
  std::vector<SetId> sets = tp.ExtractSolution(64);
  ASSERT_FALSE(sets.empty());
  EXPECT_LE(sets.size(), 64u);
  uint64_t cov = inst.system.CoverageOf(sets);
  EXPECT_GE(static_cast<double>(cov),
            static_cast<double>(GreedyCoverage(inst.system, 64)) / 16.0);
}

// RunTwoPass feeds both passes through FeedStream in batches; the per-edge
// calls are the reference it must reproduce exactly, whatever the batching.
TEST(TwoPass, BatchedRunMatchesPerEdgeReference) {
  const uint64_t k = 32;
  const std::vector<GeneratedInstance> instances = {
      PlantedCover(1024, 4096, k, 0.25, 6, 31),
      SmallSetFamily(512, 2048, k, 33)};
  for (const GeneratedInstance& inst : instances) {
    const TwoPassMaxCover::Config config =
        MakeConfig(inst.system, k, 8, 35, /*reporting=*/true);
    VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 6);
    TwoPassMaxCover per_edge(config);
    Edge e;
    while (stream.Next(&e)) per_edge.ProcessFirstPass(e);
    per_edge.FinishFirstPass();
    stream.Reset();
    while (stream.Next(&e)) per_edge.ProcessSecondPass(e);
    const EstimateOutcome want = per_edge.Finalize();
    ASSERT_TRUE(want.feasible) << inst.family;

    for (size_t batch_size : {size_t{257}, kFeedBatchSize}) {
      stream.Reset();
      TwoPassMaxCover batched(config);
      const EstimateOutcome got =
          RunTwoPass(stream, config, &batched, batch_size);
      const std::string label =
          inst.family + " batch " + std::to_string(batch_size);
      EXPECT_EQ(batched.guess_lo(), per_edge.guess_lo()) << label;
      EXPECT_EQ(batched.guess_hi(), per_edge.guess_hi()) << label;
      EXPECT_EQ(batched.num_oracles(), per_edge.num_oracles()) << label;
      EXPECT_EQ(got.feasible, want.feasible) << label;
      EXPECT_EQ(got.estimate, want.estimate) << label;
      EXPECT_EQ(got.source, want.source) << label;
      EXPECT_EQ(batched.ExtractSolution(k), per_edge.ExtractSolution(k))
          << label;
      EXPECT_EQ(batched.MemoryBytes(), per_edge.MemoryBytes()) << label;
    }
  }
}

TEST(TwoPass, PhaseDisciplineEnforced) {
  auto inst = RandomUniform(64, 128, 4, 21);
  TwoPassMaxCover tp(MakeConfig(inst.system, 4, 4, 23));
  Edge e{0, 0};
  tp.ProcessFirstPass(e);
  EXPECT_DEATH(tp.ProcessSecondPass(e), "CHECK failed");
  EXPECT_DEATH(tp.Finalize(), "CHECK failed");
  tp.FinishFirstPass();
  EXPECT_DEATH(tp.ProcessFirstPass(e), "CHECK failed");
  EXPECT_DEATH(tp.FinishFirstPass(), "CHECK failed");
}

}  // namespace
}  // namespace streamkc
