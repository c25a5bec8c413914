#include "core/estimate_max_cover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/level_executor.h"
#include "obs/space_accountant.h"
#include "runtime/edge_batch.h"
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

// ---- Retiring outgrown guesses ---------------------------------------------

// Feeds edges[begin, end) through ProcessBatch in batches of `batch_size`.
void FeedRange(EstimateMaxCover& est, const std::vector<Edge>& edges,
               size_t begin, size_t end, size_t batch_size) {
  EdgeBatch batch;
  for (size_t i = begin; i < end; i += batch_size) {
    const size_t n = std::min(batch_size, end - i);
    batch.Clear();
    batch.edges.assign(edges.begin() + i, edges.begin() + i + n);
    batch.Prefold();
    est.ProcessBatch(batch.View());
  }
}

// The estimator with no level retired, over the same edges: each chunk stays
// below the first check point (2^12 edges) and Merge() never checks, so the
// in-order merge of the chunk states is the single-pass state with every
// guess fed to the end (merges are exact).
EstimateMaxCover Unretired(const EstimateMaxCover::Config& config,
                           const std::vector<Edge>& edges) {
  EstimateMaxCover all(config);
  for (size_t i = 0; i < edges.size(); i += 4095) {
    EstimateMaxCover chunk(config);
    FeedRange(chunk, edges, i, std::min(edges.size(), i + 4095), 4095);
    all.Merge(chunk);
  }
  EXPECT_EQ(all.num_retired(), 0u);
  return all;
}

// Estimate, source and witness, plus the space rows of every component.
std::string Observe(const EstimateMaxCover& est) {
  std::ostringstream os;
  os.precision(17);
  const EstimateOutcome out = est.Finalize();
  os << out.feasible << ' ' << out.estimate << ' ' << out.source << " sets";
  for (SetId s : est.ExtractSolution(16)) os << ' ' << s;
  SpaceAccountant acct;
  acct.Sample(est);
  os << ' ' << acct.ToJson();
  return os.str();
}

EstimateMaxCover::Config RetireConfig(uint64_t m, uint64_t n, uint64_t k,
                                      double alpha, uint64_t seed) {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(m, n, k, alpha);
  c.reporting = true;
  c.seed = seed;
  return c;
}

// A Process() loop and ProcessBatch at every batch size retire the same
// levels after the same edges: batches of 4096 end on the check points,
// batches of 1000 and 5000 straddle 2^12 and 2^13 and are split there, and
// one whole-stream batch straddles both. On the Zipf stream a check made
// late (at a batch boundary) retires differently.
TEST(Retirement, BatchesRetireLikeAProcessLoop) {
  const uint64_t m = 1024, n = 1 << 14;
  for (const std::vector<Edge>& edges :
       {InstanceEdges(PlantedCover(m, n, 16, 0.5, 6, 41), 3),
        InstanceEdges(ZipfFrequency(m, n, 12, 1.1, 43), 4)}) {
    ASSERT_GT(edges.size(), size_t{1} << 13);
    const EstimateMaxCover::Config c = RetireConfig(m, n, 16, 8, 57);
    EstimateMaxCover per_edge(c);
    // retired[i]: levels retired after the first i edges.
    std::vector<uint32_t> retired = {0};
    for (const Edge& e : edges) {
      per_edge.Process(e);
      retired.push_back(per_edge.num_retired());
    }
    ASSERT_GT(per_edge.num_retired(), 0u);
    const std::string want = Observe(per_edge);
    for (size_t size : {size_t{1}, size_t{1000}, size_t{4096}, size_t{5000},
                        edges.size()}) {
      EstimateMaxCover batched(c);
      for (size_t i = 0; i < edges.size(); i += size) {
        const size_t end = std::min(edges.size(), i + size);
        FeedRange(batched, edges, i, end, size);
        EXPECT_EQ(batched.num_retired(), retired[end])
            << "batch " << size << " after edge " << end;
      }
      EXPECT_EQ(Observe(batched), want) << "batch " << size;
    }
  }
}

// A batch that straddles a check point is split there, and each slice is
// indexed on its own: here the slice before edge 2^12 has 96 edges while
// the batch holds thousands of distinct sets, which a slice sharing the
// batch's index would hand to components whose scratch fits 96.
TEST(Retirement, StraddlingSliceOfAWideBatchMatchesAProcessLoop) {
  const uint64_t m = 8192, n = 1 << 15;
  const std::vector<Edge> edges =
      InstanceEdges(PlantedCover(m, n, 16, 0.5, 6, 17), 5);
  ASSERT_GT(edges.size(), size_t{4000 + 8192});
  const EstimateMaxCover::Config c = RetireConfig(m, n, 16, 8, 23);
  EstimateMaxCover per_edge(c), batched(c);
  for (const Edge& e : edges) per_edge.Process(e);
  FeedRange(batched, edges, 0, 4000, 4000);
  FeedRange(batched, edges, 4000, edges.size(), 8192);
  ASSERT_GT(per_edge.num_retired(), 0u);
  EXPECT_EQ(Observe(batched), Observe(per_edge));
}

// Replicas that retired different levels still agree in the fingerprint
// vote, their merge retires the union, and it answers like the inline pass.
// At n = 2^15 the head quarter retires the guesses up to 512 and the rest
// of the stream those up to 2048.
TEST(Retirement, MergeRetiresTheUnionAndAnswersLikeInline) {
  const std::vector<Edge> edges =
      InstanceEdges(PlantedCover(2048, 1 << 15, 32, 0.5, 6, 3), 7);
  const EstimateMaxCover::Config c = RetireConfig(2048, 1 << 15, 32, 8, 91);
  const size_t cut = edges.size() / 4;
  EstimateMaxCover head(c), tail(c), inline_pass(c);
  FeedRange(head, edges, 0, cut, 4096);
  FeedRange(tail, edges, cut, edges.size(), 4096);
  FeedRange(inline_pass, edges, 0, edges.size(), 4096);
  ASSERT_NE(head.num_retired(), tail.num_retired());
  EXPECT_EQ(head.MergeFingerprint(), tail.MergeFingerprint());
  // Retirement leaves the fingerprint at a fresh state's value.
  EXPECT_EQ(head.MergeFingerprint(), EstimateMaxCover(c).MergeFingerprint());

  // Each replica retires the levels below a threshold, so the union is the
  // larger of the two retired sets.
  const uint32_t union_retired =
      std::max(head.num_retired(), tail.num_retired());
  const uint64_t union_largest =
      std::max(head.largest_retired_guess(), tail.largest_retired_guess());
  head.Merge(tail);
  EXPECT_EQ(head.num_retired(), union_retired);
  EXPECT_EQ(head.largest_retired_guess(), union_largest);
  const EstimateOutcome merged = head.Finalize();
  const EstimateOutcome want = inline_pass.Finalize();
  ASSERT_TRUE(head.AnswerExact(merged.estimate));
  ASSERT_TRUE(inline_pass.AnswerExact(want.estimate));
  EXPECT_EQ(merged.estimate, want.estimate);
  EXPECT_EQ(merged.source, want.source);
  EXPECT_EQ(head.ExtractSolution(32), inline_pass.ExtractSolution(32));
}

// The cells of statistical_guarantee_test: its instances (m = 256, under
// 2^12 edges each) never reach a check point, so they are checked as they
// are and once more at m = 2048, n = 8192, where every stream crosses 2^14.
// On every instance the answer is exact (F ≥ the largest retired z), equals
// the unretired estimator's, and keeps the sweep's α-bound; retirement must
// happen somewhere.
TEST(Retirement, SweepCellsAnswerExactly) {
  uint32_t retired = 0;
  for (uint64_t m : {uint64_t{256}, uint64_t{2048}}) {
    const uint64_t n = 4 * m, k = 16;
    for (const std::string family : {"uniform", "zipf", "planted"}) {
      for (double alpha : {4.0, 8.0}) {
        for (uint64_t seed = 5000; seed < 5004; ++seed) {
          GeneratedInstance inst = MakeFamilyInstance(family, m, n, k, seed);
          std::vector<Edge> edges = inst.system.MaterializeEdges();
          ApplyArrivalOrder(edges, ArrivalOrder::kRandom, seed);
          EstimateMaxCover::Config c;
          c.params = Params::Practical(m, n, k, alpha);
          c.seed = SplitMix64(seed ^ 0xA1FA);
          EstimateMaxCover est(c);
          FeedRange(est, edges, 0, edges.size(), 4096);
          const EstimateOutcome out = est.Finalize();
          const std::string cell = family + " m=" + std::to_string(m) +
                                   " alpha=" + std::to_string(alpha) +
                                   " seed=" + std::to_string(seed);
          EXPECT_TRUE(est.AnswerExact(out.estimate))
              << cell << ": estimate " << out.estimate << " < retired guess "
              << est.largest_retired_guess();
          const EstimateOutcome want = Unretired(c, edges).Finalize();
          EXPECT_EQ(out.estimate, want.estimate) << cell;
          EXPECT_EQ(out.source, want.source) << cell;
          const double greedy =
              static_cast<double>(GreedyCoverage(inst.system, k));
          EXPECT_GE(out.estimate, greedy / (1.5 * alpha)) << cell;
          EXPECT_LE(out.estimate, OptUpperBound(inst.system, k) * 1.2)
              << cell;
          retired += est.num_retired();
        }
      }
    }
  }
  EXPECT_GT(retired, 0u);
}

// The margin c is one function of Params::mode: 1 in practical mode (the
// per-answer check carries exactness), 4α·2^step in theory mode (the
// paper's guarantees do).
TEST(Retirement, MarginFollowsTheMode) {
  EXPECT_EQ(EstimateMaxCover::RetirementMargin(
                Params::Practical(2048, 8192, 16, 8)),
            1.0);
  Params theory = Params::Theory(2048, 8192, 16, 8);
  ASSERT_EQ(theory.universe_guess_log_step, 1u);
  EXPECT_EQ(EstimateMaxCover::RetirementMargin(theory), 4.0 * 8 * 2);
  theory.universe_guess_log_step = 2;
  EXPECT_EQ(EstimateMaxCover::RetirementMargin(theory), 4.0 * 8 * 4);

  // Theory constants at a reduced grid (as in core_theory_mode_test) over a
  // stream past 2^14: the theory margin (64 here) retires the smallest
  // guess, and the answer stays the unretired one.
  const std::vector<Edge> edges =
      InstanceEdges(PlantedCover(256, 4096, 8, 0.5, 64, 1), 2);
  ASSERT_GT(edges.size(), size_t{1} << 14);
  EstimateMaxCover::Config c;
  c.params = Params::Theory(256, 4096, 8, 4);
  c.params.universe_guess_log_step = 2;
  c.params.universe_reduction_reps = 1;
  c.params.large_set_reps = 2;
  c.params.small_set_reps = 1;
  c.seed = 5;
  EstimateMaxCover est(c);
  FeedRange(est, edges, 0, edges.size(), 4096);
  ASSERT_GT(est.num_retired(), 0u);
  const EstimateOutcome out = est.Finalize();
  EXPECT_TRUE(est.AnswerExact(out.estimate));
  EXPECT_EQ(out.estimate, Unretired(c, edges).Finalize().estimate);
}

// ---- Level-parallel ingest -------------------------------------------------

// Feeds `edges` in batches ending at `ends` to an inline estimator and, for
// each of `thread_counts`, to one with a LevelExecutor of that many threads
// attached. After every batch num_retired() must agree with the inline
// estimator's, and Observe() too once `observe_gap` edges have passed since
// the last comparison, and after the last batch. Returns the fewest live
// levels the inline estimator had.
uint32_t ExpectLevelParallelMatchesInline(
    const EstimateMaxCover::Config& c, const std::vector<Edge>& edges,
    const std::vector<size_t>& ends, size_t observe_gap,
    const std::string& label) {
  const std::vector<uint32_t> thread_counts = {2, 3, 4, 8};
  EstimateMaxCover inline_pass(c);
  std::vector<std::unique_ptr<LevelExecutor>> executors;
  std::vector<std::unique_ptr<EstimateMaxCover>> parallel;
  for (uint32_t threads : thread_counts) {
    executors.push_back(std::make_unique<LevelExecutor>(threads));
    parallel.push_back(std::make_unique<EstimateMaxCover>(c));
    parallel.back()->AttachExecutor(executors.back().get());
  }
  uint32_t fewest_live = inline_pass.num_oracles();
  size_t begin = 0, observed = 0;
  for (size_t end : ends) {
    FeedRange(inline_pass, edges, begin, end, end - begin);
    const uint32_t retired = inline_pass.num_retired();
    fewest_live = std::min(fewest_live, inline_pass.num_oracles() - retired);
    const bool observe = end - observed >= observe_gap || end == edges.size();
    const std::string want = observe ? Observe(inline_pass) : std::string();
    for (size_t t = 0; t < parallel.size(); ++t) {
      FeedRange(*parallel[t], edges, begin, end, end - begin);
      EXPECT_EQ(parallel[t]->num_retired(), retired)
          << label << " threads " << thread_counts[t] << " after edge "
          << end;
      if (observe) {
        EXPECT_EQ(Observe(*parallel[t]), want)
            << label << " threads " << thread_counts[t] << " after edge "
            << end;
      }
    }
    if (observe) observed = end;
    begin = end;
  }
  for (auto& est : parallel) est->AttachExecutor(nullptr);
  return fewest_live;
}

// Ends of a first batch of `first` edges and then batches of `size`.
std::vector<size_t> BatchEnds(size_t total, size_t first, size_t size) {
  std::vector<size_t> ends = {std::min(first, total)};
  while (ends.back() < total) {
    ends.push_back(std::min(ends.back() + size, total));
  }
  return ends;
}

// Every level reads every edge in stream order on whichever thread runs
// it, so a level-parallel estimator is the inline one after every batch, at
// the batch sizes of Retirement.BatchesRetireLikeAProcessLoop: the state,
// the retirements, and the parallel finalize's winner and witness. On the
// planted stream retirement leaves fewer live levels than 8 threads.
TEST(LevelParallel, BatchesMatchInlineAtEveryBatchSize) {
  const uint64_t m = 1024, n = 1 << 14;
  const std::vector<std::pair<std::string, std::vector<Edge>>> streams = {
      {"planted", InstanceEdges(PlantedCover(m, n, 16, 0.5, 6, 41), 3)},
      {"zipf", InstanceEdges(ZipfFrequency(m, n, 12, 1.1, 43), 4)}};
  const EstimateMaxCover::Config c = RetireConfig(m, n, 16, 8, 57);
  uint32_t fewest_live = UINT32_MAX;
  for (const auto& [name, edges] : streams) {
    ASSERT_GT(edges.size(), size_t{1} << 13);
    for (size_t size : {size_t{1}, size_t{1000}, size_t{4096}, size_t{5000},
                        edges.size()}) {
      fewest_live = std::min(
          fewest_live, ExpectLevelParallelMatchesInline(
                           c, edges, BatchEnds(edges.size(), size, size),
                           1000, name + " batch " + std::to_string(size)));
    }
  }
  EXPECT_LT(fewest_live, 8u);
}

// The 96-edge slice before edge 2^12 of a wide batch, on the stream of
// Retirement.StraddlingSliceOfAWideBatchMatchesAProcessLoop, indexed on
// its own and fed to the levels on several threads.
TEST(LevelParallel, StraddlingSliceOfAWideBatchMatchesInline) {
  const uint64_t m = 8192, n = 1 << 15;
  const std::vector<Edge> edges =
      InstanceEdges(PlantedCover(m, n, 16, 0.5, 6, 17), 5);
  ASSERT_GT(edges.size(), size_t{4000 + 8192});
  const EstimateMaxCover::Config c = RetireConfig(m, n, 16, 8, 23);
  ExpectLevelParallelMatchesInline(
      c, edges, BatchEnds(edges.size(), 4000, 8192), 1, "straddling");
}

}  // namespace
}  // namespace streamkc
