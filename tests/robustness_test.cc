// Robustness and boundary-condition tests: degenerate instance shapes,
// extreme ids, duplicate-saturated streams, and minimal configurations.
// Production streams are messy; none of these may crash, hang, or return
// out-of-contract answers.

#include <gtest/gtest.h>

#include <limits>

#include "core/estimate_max_cover.h"
#include "core/oracle.h"
#include "core/report_max_cover.h"
#include "offline/sketch_greedy.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/l0_estimator.h"
#include "test_util.h"

namespace streamkc {
namespace {

constexpr uint64_t kHugeId = std::numeric_limits<uint64_t>::max();

TEST(Robustness, ExtremeIdsInSketches) {
  L0Estimator l0({.num_mins = 16, .seed = 1});
  l0.Add(0);
  l0.Add(kHugeId);
  l0.Add(kHugeId - 1);
  EXPECT_DOUBLE_EQ(l0.Estimate(), 3.0);

  const F2HeavyHitters::Config hh_cfg{.phi = 0.5, .seed = 2};
  const CountSketchRows rows = RowsFor(hh_cfg);
  F2HeavyHitters hh(hh_cfg);
  for (int i = 0; i < 50; ++i) hh.Add(rows, kHugeId);
  auto out = hh.Extract(rows);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().id, kHugeId);

  const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, 3);
  F2Contributing fc({.phi = 0.125, .max_class_size = 4, .domain_size = 16,
                     .seed = 3});
  AddClosedWindow(fc, hashes, {{kHugeId, 50}});
  EXPECT_FALSE(fc.Extract(hashes).empty());
}

TEST(Robustness, EstimatorOnEmptyStream) {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(64, 128, 4, 4);
  c.seed = 1;
  EstimateMaxCover est(c);
  EstimateOutcome out = est.Finalize();  // nothing processed
  EXPECT_TRUE(out.feasible);
  EXPECT_DOUBLE_EQ(out.estimate, 0.0);
}

TEST(Robustness, ReporterOnEmptyStream) {
  ReportMaxCover::Config c;
  c.params = Params::Practical(64, 128, 4, 4);
  c.seed = 1;
  ReportMaxCover rep(c);
  MaxCoverSolution sol = rep.Finalize();
  EXPECT_TRUE(sol.sets.empty());
}

TEST(Robustness, SingleEdgeStream) {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(1024, 2048, 4, 4);
  c.seed = 2;
  EstimateMaxCover est(c);
  est.Process(Edge{3, 5});
  EstimateOutcome out = est.Finalize();
  // OPT = 1; any answer in [0, ~1] is in contract.
  EXPECT_LE(out.estimate, 2.0);
}

TEST(Robustness, SingleSetCoversEverything) {
  // m sets but one of them covers the entire universe.
  std::vector<std::vector<ElementId>> sets(256);
  for (ElementId e = 0; e < 512; ++e) sets[7].push_back(e);
  for (uint64_t i = 0; i < 256; ++i) {
    if (i != 7) sets[i] = {static_cast<ElementId>(i)};
  }
  SetSystem sys(512, std::move(sets));
  EstimateMaxCover::Config c;
  c.params = Params::Practical(256, 512, 1, 4);  // k = 1!
  c.seed = 3;
  EstimateMaxCover est(c);
  FeedSystem(sys, ArrivalOrder::kRandom, 1, est);
  EstimateOutcome out = est.Finalize();
  ASSERT_TRUE(out.feasible);
  EXPECT_GE(out.estimate, 512.0 / 8.0);
  EXPECT_LE(out.estimate, 512.0 * 1.2);
}

TEST(Robustness, AllSetsIdentical) {
  // Coverage is the same for any k-subset; nothing should blow up and the
  // estimate must stay ≤ the one set's size.
  std::vector<std::vector<ElementId>> sets(128);
  for (auto& s : sets) {
    for (ElementId e = 0; e < 64; ++e) s.push_back(e);
  }
  SetSystem sys(256, std::move(sets));
  EstimateMaxCover::Config c;
  c.params = Params::Practical(128, 256, 8, 4);
  c.seed = 4;
  EstimateMaxCover est(c);
  FeedSystem(sys, ArrivalOrder::kRandom, 2, est);
  EXPECT_LE(est.Finalize().estimate, 64.0 * 1.5);
}

TEST(Robustness, DuplicateSaturatedStream) {
  // The same edge repeated 10^5 times plus a normal instance: duplicates
  // must not distort the estimate (the model allows repeats).
  auto inst = PlantedCover(512, 1024, 16, 0.5, 4, 5);
  EstimateMaxCover::Config c;
  c.params = Params::Practical(512, 1024, 16, 4);
  c.seed = 5;
  EstimateMaxCover with_dups(c), without(c);
  VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 3);
  FeedStream(stream, without);
  stream.Reset();
  FeedStream(stream, with_dups);
  for (int i = 0; i < 100000; ++i) with_dups.Process(Edge{0, 0});
  // Sketch states are set-semantics except CountSketch counters (duplicates
  // add incidence mass only to set 0's superset). Estimates stay close.
  EXPECT_NEAR(with_dups.Finalize().estimate, without.Finalize().estimate,
              0.5 * without.Finalize().estimate + 8);
}

TEST(Robustness, KEqualsOne) {
  auto inst = LargeSetFamily(512, 1024, 1, 7);
  ReportMaxCover::Config c;
  c.params = Params::Practical(512, 1024, 1, 4);
  c.seed = 7;
  ReportMaxCover rep(c);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 4, rep);
  MaxCoverSolution sol = rep.Finalize();
  EXPECT_LE(sol.sets.size(), 1u);
}

TEST(Robustness, AlphaAtSqrtM) {
  const uint64_t m = 1 << 12;
  auto inst = RandomUniform(m, 1024, 8, 9);
  EstimateMaxCover::Config c;
  c.params = Params::Practical(m, 1024, 8, 64.0);  // α = √m
  c.seed = 9;
  EstimateMaxCover est(c);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 5, est);
  EstimateOutcome out = est.Finalize();
  EXPECT_LE(out.estimate, OptUpperBound(inst.system, 8) * 1.5);
}

TEST(Robustness, ElementIdsBeyondDeclaredN) {
  // The declared n is a capacity hint for the guess grid; ids above it must
  // not crash the pipeline (hashes are total on uint64).
  EstimateMaxCover::Config c;
  c.params = Params::Practical(256, 128, 4, 4);
  c.seed = 11;
  EstimateMaxCover est(c);
  for (uint64_t i = 0; i < 1000; ++i) {
    est.Process(Edge{i % 256, 1000000 + i});
  }
  EXPECT_GE(est.Finalize().estimate, 0.0);
}

TEST(Robustness, OracleWithUniverseOne) {
  Oracle::Config oc;
  oc.params = Params::Practical(64, 128, 2, 2);
  oc.universe_size = 1;
  oc.seed = 13;
  Oracle oracle(oc);
  for (uint64_t i = 0; i < 64; ++i) oracle.Process(Edge{i, 0});
  EstimateOutcome out = oracle.Finalize();
  if (out.feasible) {
    EXPECT_LE(out.estimate, 1.5);
  }
}

TEST(Robustness, SketchGreedyAllEmptySets) {
  // Stream where every "set" repeats one element: coverage 1 per set.
  SketchGreedy sg({.k = 3, .seed = 15});
  for (uint64_t s = 0; s < 20; ++s) {
    for (int rep = 0; rep < 5; ++rep) sg.Process(Edge{s, 42});
  }
  CoverSolution sol = sg.Finalize();
  EXPECT_EQ(sol.coverage, 1u);
  EXPECT_EQ(sol.sets.size(), 1u);  // marginal gain of the rest is 0
}

TEST(Robustness, ParamsExtremeShapes) {
  // Tiny everything.
  Params tiny = Params::Practical(1, 1, 1, 1);
  EXPECT_GT(tiny.s, 0);
  // Huge alpha relative to k.
  Params skew = Params::Practical(1 << 20, 1 << 10, 2, 1000);
  EXPECT_DOUBLE_EQ(skew.w, 2.0);
  EXPECT_GT(skew.t, 0);
}

}  // namespace
}  // namespace streamkc
