// ShardedPipeline tests: deterministic mode (N-shard merged state must
// reproduce the single-threaded state on the same seeds), backpressure under
// a slow shard, and the empty-stream / one-shard edge cases.

#include "runtime/sharded_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/estimate_max_cover.h"
#include "core/report_max_cover.h"
#include "runtime/shard_router.h"
#include "runtime/sketch_states.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"
#include "test_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

template <typename Sketch>
std::string SaveBytes(const Sketch& s) {
  std::ostringstream os;
  s.Save(os);
  return os.str();
}

TEST(ShardRouter, RoutesInRangeAndDeterministically) {
  ShardRouter router(8, PartitionPolicy::kByElement);
  ShardRouter twin(8, PartitionPolicy::kByElement);
  for (const Edge& e : SyntheticEdges(2000, 7)) {
    uint32_t s = router.ShardOf(e);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, twin.ShardOf(e));  // pure function of the edge
  }
}

TEST(ShardRouter, PolicyControlsTheRoutingKey) {
  ShardRouter by_set(8, PartitionPolicy::kBySet);
  ShardRouter by_element(8, PartitionPolicy::kByElement);
  // Same set, different elements: kBySet pins the shard, and the element
  // must not influence it (and symmetrically for kByElement).
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(by_set.ShardOf(Edge{5, x}), by_set.ShardOf(Edge{5, 0}));
    EXPECT_EQ(by_element.ShardOf(Edge{x, 5}),
              by_element.ShardOf(Edge{0, 5}));
  }
}

TEST(ShardRouter, SpreadsLoadAcrossShards) {
  ShardRouter router(8, PartitionPolicy::kByElement);
  std::vector<size_t> counts(8, 0);
  for (const Edge& e : SyntheticEdges(8000, 11)) ++counts[router.ShardOf(e)];
  for (size_t c : counts) {
    EXPECT_GT(c, 500u);  // ~1000 expected per shard
    EXPECT_LT(c, 1500u);
  }
}

TEST(ShardedPipeline, DeterministicSketchStateAtEightShards) {
  std::vector<Edge> edges = SyntheticEdges(50000, 3);
  CoverageSketchState::Config cfg;
  cfg.seed = 17;

  CoverageSketchState single(cfg);
  for (const Edge& e : edges) single.Process(e);

  ShardedPipelineOptions opts;
  opts.num_shards = 8;
  opts.batch_size = 512;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream stream(edges);
  CoverageSketchState merged = pipe.Run(stream);

  // HLL registers and AMS counters are position-indexed: bit-identical.
  EXPECT_EQ(SaveBytes(merged.covered_hll), SaveBytes(single.covered_hll));
  EXPECT_EQ(SaveBytes(merged.element_f2), SaveBytes(single.element_f2));
  // KMV retains the identical minima VALUE SET (heap array layout differs
  // between the Add and Merge build paths), so the estimates — functions of
  // the value set — must agree exactly.
  EXPECT_DOUBLE_EQ(merged.covered_l0.Estimate(), single.covered_l0.Estimate());
  EXPECT_EQ(pipe.metrics().edges_ingested.load(), edges.size());
  EXPECT_EQ(pipe.metrics().TotalShardEdges(), edges.size());
}

// Differential property sweep: across seeded instances, the N-shard merged
// state must reproduce the 1-shard pipeline's state exactly — the two
// configurations differ only in thread count, and the canonical fold order
// makes the merge a deterministic function of the stream. Seed count scales
// with STREAMKC_SWEEP_SEEDS (stress config turns it up); a failing seed is
// named in the assertion message for replay.
TEST(ShardedPipeline, SeededSweepOneShardVsManyShardsIdentical) {
  const uint64_t base_seed = EnvScaledU64("STREAMKC_SWEEP_BASE_SEED", 1000);
  const uint64_t num_seeds = EnvScaledU64("STREAMKC_SWEEP_SEEDS", 5);
  CoverageSketchState::Config cfg;
  cfg.seed = 23;
  auto run_at = [&](uint32_t shards, const std::vector<Edge>& edges) {
    ShardedPipelineOptions opts;
    opts.num_shards = shards;
    opts.batch_size = 128;
    ShardedPipeline<CoverageSketchState> pipe(
        opts, [&](uint32_t) { return CoverageSketchState(cfg); });
    VectorEdgeStream stream(edges);
    return pipe.Run(stream);
  };
  for (uint64_t i = 0; i < num_seeds; ++i) {
    uint64_t seed = base_seed + i;
    std::vector<Edge> edges = SyntheticEdges(12000, seed);
    CoverageSketchState one = run_at(1, edges);
    for (uint32_t shards : {2u, 5u, 8u}) {
      CoverageSketchState many = run_at(shards, edges);
      EXPECT_EQ(SaveBytes(many.covered_hll), SaveBytes(one.covered_hll))
          << "replay: STREAMKC_SWEEP_BASE_SEED=" << seed
          << " shards=" << shards;
      EXPECT_EQ(SaveBytes(many.element_f2), SaveBytes(one.element_f2))
          << "replay: STREAMKC_SWEEP_BASE_SEED=" << seed
          << " shards=" << shards;
      EXPECT_DOUBLE_EQ(many.covered_l0.Estimate(), one.covered_l0.Estimate())
          << "replay: STREAMKC_SWEEP_BASE_SEED=" << seed
          << " shards=" << shards;
    }
  }
}

TEST(ShardedPipeline, RepeatedRunsAreBitIdentical) {
  std::vector<Edge> edges = SyntheticEdges(20000, 5);
  CoverageSketchState::Config cfg;
  ShardedPipelineOptions opts;
  opts.num_shards = 4;
  opts.batch_size = 97;  // non-round batches: thread interleaving varies
  auto run_once = [&] {
    ShardedPipeline<CoverageSketchState> pipe(
        opts, [&](uint32_t) { return CoverageSketchState(cfg); });
    VectorEdgeStream stream(edges);
    CoverageSketchState merged = pipe.Run(stream);
    return SaveBytes(merged.covered_hll) + SaveBytes(merged.element_f2);
  };
  std::string first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

TEST(ShardedPipeline, DeterministicEstimateTrivialMode) {
  // k·α ≥ m: EstimateMaxCover is a pure L0 over covered elements.
  GeneratedInstance inst = PlantedCover(64, 512, 16, 0.5, 6, 9);
  std::vector<Edge> edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, 9);

  EstimateMaxCover::Config c;
  c.params = Params::Practical(64, 512, 16, 8.0);
  c.seed = 13;
  EstimateMaxCover single(c);
  ASSERT_TRUE(single.trivial_mode());
  for (const Edge& e : edges) single.Process(e);

  ShardedPipelineOptions opts;
  opts.num_shards = 8;
  opts.batch_size = 64;
  ShardedPipeline<EstimateMaxCover> pipe(
      opts, [&](uint32_t) { return EstimateMaxCover(c); });
  VectorEdgeStream stream(edges);
  EstimateMaxCover merged = pipe.Run(stream);
  EXPECT_DOUBLE_EQ(merged.Finalize().estimate, single.Finalize().estimate);
}

TEST(ShardedPipeline, DeterministicEstimateFullOracleStack) {
  // k·α < m: the full per-guess oracle stack (LargeCommon + LargeSet +
  // SmallSet) rides the pipeline; the merged estimate must equal the
  // single-threaded one bit-for-bit on the same seed.
  GeneratedInstance inst = PlantedCover(2048, 4096, 16, 0.5, 6, 21);
  std::vector<Edge> edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, 21);

  EstimateMaxCover::Config c;
  c.params = Params::Practical(2048, 4096, 16, 4.0);
  c.seed = 29;
  EstimateMaxCover single(c);
  ASSERT_FALSE(single.trivial_mode());
  for (const Edge& e : edges) single.Process(e);
  EstimateOutcome single_out = single.Finalize();

  ShardedPipelineOptions opts;
  opts.num_shards = 8;
  opts.batch_size = 256;
  ShardedPipeline<EstimateMaxCover> pipe(
      opts, [&](uint32_t) { return EstimateMaxCover(c); });
  VectorEdgeStream stream(edges);
  EstimateMaxCover merged = pipe.Run(stream);
  EstimateOutcome merged_out = merged.Finalize();

  EXPECT_DOUBLE_EQ(merged_out.estimate, single_out.estimate);
  EXPECT_EQ(merged_out.source, single_out.source);
}

TEST(ShardedPipeline, DeterministicReportSolution) {
  GeneratedInstance inst = PlantedCover(512, 1024, 16, 0.5, 6, 33);
  std::vector<Edge> edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, 33);

  ReportMaxCover::Config c;
  c.params = Params::Practical(512, 1024, 16, 8.0);
  c.seed = 37;
  ReportMaxCover single(c);
  for (const Edge& e : edges) single.Process(e);
  MaxCoverSolution single_sol = single.Finalize();

  ShardedPipelineOptions opts;
  opts.num_shards = 8;
  ShardedPipeline<ReportMaxCover> pipe(
      opts, [&](uint32_t) { return ReportMaxCover(c); });
  VectorEdgeStream stream(edges);
  MaxCoverSolution merged_sol = pipe.Run(stream).Finalize();

  EXPECT_DOUBLE_EQ(merged_sol.estimate, single_sol.estimate);
  EXPECT_EQ(merged_sol.source, single_sol.source);
  std::vector<SetId> a = single_sol.sets, b = merged_sol.sets;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ShardedPipeline, OneShardMatchesInlineProcessing) {
  std::vector<Edge> edges = SyntheticEdges(10000, 41);
  CoverageSketchState::Config cfg;
  CoverageSketchState inline_state(cfg);
  for (const Edge& e : edges) inline_state.Process(e);

  ShardedPipelineOptions opts;  // num_shards = 1
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream stream(edges);
  CoverageSketchState merged = pipe.Run(stream);
  // One shard sees the whole stream in order: even the KMV heap layout (an
  // Add-path artifact) matches, so all three sketches are bit-identical.
  EXPECT_EQ(SaveBytes(merged.covered_l0), SaveBytes(inline_state.covered_l0));
  EXPECT_EQ(SaveBytes(merged.covered_hll),
            SaveBytes(inline_state.covered_hll));
  EXPECT_EQ(SaveBytes(merged.element_f2), SaveBytes(inline_state.element_f2));
  EXPECT_EQ(pipe.metrics().merges.load(), 0u);
}

TEST(ShardedPipeline, EmptyStreamCompletes) {
  ShardedPipelineOptions opts;
  opts.num_shards = 4;
  CoverageSketchState::Config cfg;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream stream({});
  CoverageSketchState merged = pipe.Run(stream);
  EXPECT_DOUBLE_EQ(merged.covered_l0.Estimate(), 0.0);
  EXPECT_EQ(pipe.metrics().edges_ingested.load(), 0u);
  EXPECT_EQ(pipe.metrics().TotalShardEdges(), 0u);
  EXPECT_EQ(pipe.metrics().queue_full_stalls.load(), 0u);
}

// A state whose Process is slow enough to fill its ring: the bounded queue
// must stall the producer (backpressure), not drop or buffer unboundedly.
struct SlowCountingState : SpaceMetered {
  uint64_t edges_seen = 0;
  void Process(const Edge&) {
    ++edges_seen;
    if (edges_seen % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void ProcessBatch(const PrefoldedEdges& batch) {
    for (size_t i = 0; i < batch.size; ++i) Process(batch.edges[i]);
  }
  void Merge(const SlowCountingState& other) { edges_seen += other.edges_seen; }
  uint64_t MergeFingerprint() const { return 0; }
  size_t MemoryBytes() const override { return sizeof(*this); }
  const char* ComponentName() const override { return "slow_counting"; }
};

TEST(ShardedPipeline, SlowShardBackpressuresProducerWithoutLoss) {
  ShardedPipelineOptions opts;
  opts.num_shards = 2;
  opts.batch_size = 64;
  opts.queue_capacity = 1;  // tiny ring: stalls are guaranteed
  ShardedPipeline<SlowCountingState> pipe(
      opts, [](uint32_t) { return SlowCountingState{}; });
  std::vector<Edge> edges = SyntheticEdges(20000, 51);
  VectorEdgeStream stream(edges);
  SlowCountingState merged = pipe.Run(stream);
  EXPECT_EQ(merged.edges_seen, edges.size());  // nothing lost under stall
  EXPECT_GT(pipe.metrics().queue_full_stalls.load(), 0u);
  EXPECT_EQ(pipe.metrics().TotalShardEdges(), edges.size());
  // The repaired ring accounting: stall events fold into the per-shard
  // rows, rounds dominate events, and blocked wall time is recorded.
  uint64_t shard_stall_sum = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    shard_stall_sum += pipe.metrics().shard(s).ring_stalls.load();
  }
  EXPECT_EQ(shard_stall_sum, pipe.metrics().queue_full_stalls.load());
  EXPECT_GE(pipe.metrics().TotalRingStallRounds(), shard_stall_sum);
  EXPECT_GT(pipe.metrics().TotalRingStalledNs(), 0u);
}

TEST(ShardedPipeline, SpaceAccountantTracksShardPeaksAndMergedCurrent) {
  std::vector<Edge> edges = SyntheticEdges(30000, 71);
  CoverageSketchState::Config cfg;
  ShardedPipelineOptions opts;
  opts.num_shards = 4;
  opts.batch_size = 256;
  opts.space_sample_every_batches = 1;  // sample every batch
  MetricsRegistry registry;
  opts.registry = &registry;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream stream(edges);
  CoverageSketchState merged = pipe.Run(stream);

  const SpaceAccountant& space = pipe.space();
  EXPECT_GT(space.num_samples(), 0u);
  // Current footprint after the fold is the merged state alone; the peak
  // covers the 4 simultaneous replicas and must dominate it.
  EXPECT_EQ(space.current_total_bytes(), merged.MemoryBytes());
  EXPECT_GE(space.peak_total_bytes(), space.current_total_bytes());
  EXPECT_GE(space.peak_total_bytes(), pipe.metrics().TotalStateBytes());
  EXPECT_EQ(space.components().count("coverage_sketch"), 1u);
  EXPECT_EQ(space.components().count("l0_estimator"), 1u);
  // The run published its gauges and histograms into the given registry,
  // not the global one.
  EXPECT_GT(registry.GetGauge("space_peak_total_bytes")->Value(), 0u);
  EXPECT_GT(registry.GetHistogram("runtime_batch_busy_ns")->Count(), 0u);
  EXPECT_EQ(registry.GetHistogram("runtime_batch_edges")->Sum(),
            edges.size());
}

TEST(ShardedPipeline, MergeTimeIsRecorded) {
  std::vector<Edge> edges = SyntheticEdges(10000, 81);
  CoverageSketchState::Config cfg;
  ShardedPipelineOptions opts;
  opts.num_shards = 4;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream stream(edges);
  pipe.Run(stream);
  EXPECT_EQ(pipe.metrics().merges.load(), 3u);
  EXPECT_GT(pipe.metrics().merge_ns.load(), 0u);
  EXPECT_LE(pipe.metrics().merge_ns.load(), pipe.metrics().wall_ns.load());
}

TEST(RuntimeMetrics, JsonSnapshotCarriesTheCounters) {
  std::vector<Edge> edges = SyntheticEdges(5000, 61);
  ShardedPipelineOptions opts;
  opts.num_shards = 3;
  CoverageSketchState::Config cfg;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream stream(edges);
  pipe.Run(stream);
  std::string json = pipe.metrics().ToJson();
  EXPECT_NE(json.find("\"edges_ingested\": 5000"), std::string::npos);
  EXPECT_NE(json.find("\"merges\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"queue_full_stalls\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_ns\""), std::string::npos);
  EXPECT_EQ(pipe.metrics().num_shards(), 3u);
}

}  // namespace
}  // namespace streamkc
