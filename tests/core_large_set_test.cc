#include "core/large_set.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "runtime/edge_batch.h"
#include "test_util.h"

namespace streamkc {
namespace {

LargeSet MakeLargeSet(const SetSystem& sys, uint64_t k, double alpha,
                      uint64_t seed, bool reporting = false) {
  Params p = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  LargeSet::Config c;
  c.params = p;
  c.universe_size = sys.num_elements();
  // Oracle's rule: w = k if sα ≥ 2k else α.
  c.w = (p.s * alpha >= 2.0 * static_cast<double>(k)) ? static_cast<double>(k)
                                                      : alpha;
  c.reporting = reporting;
  c.seed = seed;
  return LargeSet(c);
}

TEST(LargeSet, FeasibleOnLargeSetFamily) {
  // Case II: OPT dominated by a few jumbo sets; the heavy-hitter pipeline
  // must fire and return Ω̃(|U|/α) (Theorem 4.8).
  auto inst = LargeSetFamily(1024, 2048, 4, 5);
  const double alpha = 8;
  int feasible = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    LargeSet ls = MakeLargeSet(inst.system, 8, alpha, 400 + seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, ls);
    EstimateOutcome out = ls.Finalize();
    if (!out.feasible) continue;
    ++feasible;
    // Ω(|U|/α) with practical constants: at least |U|/(f·η·α·4).
    EXPECT_GE(out.estimate, 2048.0 / (2.0 * 4.0 * alpha * 4.0));
    EXPECT_LE(out.estimate, OptUpperBound(inst.system, 8) * 1.1);
  }
  EXPECT_GE(feasible, 4);
}

TEST(LargeSet, EstimateScalesBackFromSample) {
  // The estimate is at universe scale even though the subroutine only sees
  // an element sample: it must land within a constant factor of the winning
  // superset's true coverage, not the sample's.
  auto inst = LargeSetFamily(2048, 4096, 2, 7);
  LargeSet ls = MakeLargeSet(inst.system, 4, 8, 19);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 2, ls);
  EstimateOutcome out = ls.Finalize();
  ASSERT_TRUE(out.feasible);
  // Each jumbo set covers 1024; a superset holds ≤ w of anything else.
  EXPECT_GE(out.estimate, 1024.0 / 16.0);
  EXPECT_LE(out.estimate, 4096.0);
}

TEST(LargeSet, NeverOverestimates) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    auto inst = RandomUniform(512, 1024, 8, 600 + seed);
    LargeSet ls = MakeLargeSet(inst.system, 16, 8, seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, ls);
    EstimateOutcome out = ls.Finalize();
    if (out.feasible) {
      EXPECT_LE(out.estimate, OptUpperBound(inst.system, 16) * 1.15)
          << "seed " << seed;
    }
  }
}

TEST(LargeSet, RepetitionCountFollowsParams) {
  auto inst = RandomUniform(256, 40000, 4, 9);
  LargeSet ls = MakeLargeSet(inst.system, 4, 4, 1);
  // Practical mode: large_set_reps (2) repetitions when sampling is active.
  EXPECT_LE(ls.num_repetitions(), 2u);
  EXPECT_GE(ls.num_repetitions(), 1u);
}

TEST(LargeSet, SingleRepWhenUniverseTiny) {
  // Rate clips to 1 on tiny universes → one repetition suffices.
  auto inst = RandomUniform(256, 64, 4, 11);
  LargeSet ls = MakeLargeSet(inst.system, 4, 2, 1);
  EXPECT_EQ(ls.num_repetitions(), 1u);
}

TEST(LargeSet, ReportingReturnsWinningSuperset) {
  auto inst = LargeSetFamily(1024, 2048, 4, 13);
  LargeSet ls = MakeLargeSet(inst.system, 8, 8, 23, /*reporting=*/true);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 3, ls);
  EstimateOutcome out = ls.Finalize();
  ASSERT_TRUE(out.feasible);
  std::vector<SetId> sets = ls.ExtractSolution(8);
  ASSERT_FALSE(sets.empty());
  EXPECT_LE(sets.size(), 8u);
  // The winning superset should contain one of the jumbo sets (ids 0..3) —
  // that is what made it heavy.
  uint64_t cov = inst.system.CoverageOf(sets);
  EXPECT_GE(static_cast<double>(cov), out.estimate / 3.0);
}

TEST(LargeSet, OrderInvariance) {
  auto inst = LargeSetFamily(512, 1024, 2, 17);
  auto run = [&](ArrivalOrder order) {
    LargeSet ls = MakeLargeSet(inst.system, 4, 4, 99);
    FeedSystem(inst.system, order, 7, ls);
    return ls.Finalize().estimate;
  };
  // CountSketch and L0 state are linear/set-valued → exactly order
  // independent for a fixed seed.
  EXPECT_DOUBLE_EQ(run(ArrivalOrder::kRandom), run(ArrivalOrder::kSetContiguous));
  EXPECT_DOUBLE_EQ(run(ArrivalOrder::kRandom), run(ArrivalOrder::kRoundRobin));
}

TEST(LargeSet, MemoryScalesInverselyWithAlphaSquared) {
  // The dominant term is the Case-1 contributing sketch at φ1 = α²/m:
  // quadrupling α should shrink memory markedly.
  auto inst = RandomUniform(1 << 14, 1 << 12, 8, 19);
  LargeSet narrow = MakeLargeSet(inst.system, 64, 32, 1);
  LargeSet wide = MakeLargeSet(inst.system, 64, 4, 1);
  EXPECT_GT(wide.MemoryBytes(), 4 * narrow.MemoryBytes());
}

TEST(LargeSet, TiedSupersetsResolveToTheSmallestId) {
  // A single pass and a 3-shard element-partitioned merge of the same edges
  // must name the same witness. On these seeds several supersets tie at the
  // top coverage (seed 4: four at 11.0, seed 17: two at 12.0); breaking the
  // tie by hash-map iteration order, which differs between the two states,
  // returned different sets from the same estimate.
  for (uint64_t seed : {4u, 17u}) {
    auto inst = LargeSetFamily(4096, 256, 4, seed);
    std::vector<Edge> edges = inst.system.MaterializeEdges();
    Rng(seed).Shuffle(edges);
    LargeSet::Config cfg;
    cfg.params = Params::Practical(4096, 256, 16, 8);
    cfg.universe_size = 256;
    cfg.w = 8;
    cfg.reporting = true;
    cfg.seed = 3 * seed;
    LargeSet single(cfg);
    std::vector<LargeSet> shards(3, LargeSet(cfg));
    for (const Edge& e : edges) {
      single.Process(e);
      shards[SplitMix64(e.element) % 3].Process(e);
    }
    shards[0].Merge(shards[1]);
    shards[0].Merge(shards[2]);
    const EstimateOutcome want = single.Finalize();
    ASSERT_TRUE(want.feasible) << "seed " << seed;
    EXPECT_EQ(shards[0].Finalize().estimate, want.estimate) << "seed " << seed;
    EXPECT_EQ(shards[0].ExtractSolution(16), single.ExtractSolution(16))
        << "seed " << seed;
  }
}

TEST(LargeSetComplete, FullRateModeMatchesFigure4) {
  // With element_rate = 1 this is LargeSetSimple (Fig. 4): no sampling, the
  // vector is over true superset sizes.
  auto inst = LargeSetFamily(512, 512, 2, 23);
  Params p = Params::Practical(512, 512, 4, 4);
  LargeSetComplete::Config c;
  c.params = p;
  c.universe_size = 512;
  c.w = 4;
  c.element_rate = 1.0;
  c.seed = 31;
  LargeSetComplete lsc(c);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 5, lsc);
  EstimateOutcome out = lsc.Finalize();
  ASSERT_TRUE(out.feasible);
  EXPECT_GE(out.estimate, 256.0 / (2.0 * 4.0 * 4.0 * 4.0));
}

// stream/edge.h lets a view carry an index with more entries than edges.
// At ρ = 1 every entry reaches the pool gate, which must take one key per
// entry: fed the first 16 edges of a 4096-edge batch with the whole batch's
// index, the batched path must match a Process() loop over those 16 edges
// (under ASan, a key buffer sized by the edges overflows here).
TEST(LargeSetComplete, IndexWiderThanTheViewMatchesPerEdge) {
  LargeSetComplete::Config c;
  c.params = Params::Practical(4096, 1 << 14, 16, 8);
  c.universe_size = 1 << 14;
  c.w = 8;
  c.element_rate = 1.0;
  c.reporting = true;
  c.seed = 37;
  EdgeBatch batch;
  batch.edges = SyntheticEdges(4096, /*seed=*/41, 4096, 1 << 14);
  batch.Prefold();
  std::unordered_map<SetId, uint32_t> first_seen;
  std::vector<uint32_t> slot;
  std::vector<uint64_t> distinct_folded;
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto [it, fresh] = first_seen.emplace(
        batch.edges[i].set, static_cast<uint32_t>(distinct_folded.size()));
    if (fresh) distinct_folded.push_back(batch.set_folded[i]);
    slot.push_back(it->second);
  }
  constexpr size_t kPrefix = 16;
  ASSERT_GT(distinct_folded.size(), 4 * kPrefix);
  PrefoldedEdges view = batch.View();
  view.size = kPrefix;
  view.set_slot = slot.data();
  view.distinct_set_folded = distinct_folded.data();
  view.num_distinct_sets = distinct_folded.size();

  LargeSetComplete batched(c);
  batched.ProcessBatch(view);
  LargeSetComplete per_edge(c);
  for (size_t i = 0; i < kPrefix; ++i) per_edge.Process(batch.edges[i]);
  const EstimateOutcome got = batched.Finalize();
  const EstimateOutcome want = per_edge.Finalize();
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(batched.ExtractSolution(16), per_edge.ExtractSolution(16));
  EXPECT_EQ(batched.MemoryBytes(), per_edge.MemoryBytes());
}

// Guess z of EstimateMaxCover runs its oracle on the reduced universe [z]
// and may only ever report z: the guess-retirement rule relies on it. Fed a
// few huge sets of elements far outside [0, 8), the scaled-up estimate must
// still be clamped to the universe.
TEST(LargeSet, NeverReportsMoreThanTheUniverse) {
  LargeSet::Config c;
  c.params = Params::Practical(64, 1 << 20, 4, 8);
  c.universe_size = 8;
  c.w = 8;
  c.seed = 3;
  LargeSet ls(c);
  for (const Edge& e : SyntheticEdges(20000, 5, 4, 1 << 20)) ls.Process(e);
  const EstimateOutcome out = ls.Finalize();
  ASSERT_TRUE(out.feasible);
  EXPECT_LE(out.estimate, 8.0);
}

}  // namespace
}  // namespace streamkc
