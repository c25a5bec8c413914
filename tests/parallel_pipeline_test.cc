// Multi-producer front-end differential tests. The contract (from
// shard_router.h): every merged state is a function of the MULTISET each
// shard observes, and routing is a pure per-edge function — so for any
// producer count P the P×N run must reproduce the inline single-threaded
// pass bit-for-bit on the same seeds (HLL registers and AMS counters are
// position-indexed and order-insensitive; KMV retains the identical minima
// value set, compared via its estimate). Also covered here: the same
// guarantee under timing faults and worker death, seed-replayability under
// a mutating FaultPlan, per-producer metrics accounting, and the
// batch-recycling (allocation-free steady-state flush) regression.

#include "runtime/sharded_pipeline.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_stream.h"
#include "obs/metrics.h"
#include "runtime/shard_router.h"
#include "runtime/sketch_states.h"
#include "stream/edge_stream.h"
#include "test_util.h"

namespace streamkc {
namespace {

template <typename Sketch>
std::string SaveBytes(const Sketch& s) {
  std::ostringstream os;
  s.Save(os);
  return os.str();
}

std::string StateBytes(const CoverageSketchState& st) {
  return SaveBytes(st.covered_hll) + SaveBytes(st.element_f2);
}

struct LatticeRun {
  CoverageSketchState state;
  uint64_t edges_ingested = 0;
  uint64_t producer_edge_sum = 0;
  uint64_t batches_enqueued = 0;
  uint64_t batches_recycled = 0;
  uint32_t num_producers = 0;
  uint32_t shards_quarantined = 0;
  std::string json;
};

// Runs `edges` through P producers × N shards (even span segmentation, the
// in-memory analogue of SegmentedTextStream) and snapshots the counters the
// assertions need. `spec` wraps EACH segment in its own FaultInjectingStream
// (empty = clean); `injector_spec_runtime` adds runtime faults.
LatticeRun RunLatticed(const std::vector<Edge>& edges, uint32_t P, uint32_t N,
                       const std::string& spec = std::string(),
                       size_t batch_size = 256, size_t queue_capacity = 16) {
  CoverageSketchState::Config cfg;
  cfg.seed = 17;
  ShardedPipelineOptions opts;
  opts.num_shards = N;
  opts.num_producers = P;
  opts.batch_size = batch_size;
  opts.queue_capacity = queue_capacity;
  MetricsRegistry registry;
  opts.registry = &registry;
  FaultInjector injector(FaultPlan::ParseOrDie(spec.empty() ? "seed=1" : spec),
                         &registry);
  if (!spec.empty()) opts.fault_injector = &injector;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  LatticeRun run{pipe.RunSegmented([&](uint32_t p) {
    std::unique_ptr<EdgeStream> s = MakeEdgeSpanSegment(edges, p, P);
    if (!spec.empty() && injector.plan().HasStreamFaults()) {
      s = WrapWithFaults(std::move(s), &injector);
    }
    return s;
  })};
  const RuntimeMetrics& m = pipe.metrics();
  run.edges_ingested = m.edges_ingested.load();
  run.num_producers = m.num_producers();
  for (uint32_t p = 0; p < m.num_producers(); ++p) {
    run.producer_edge_sum += m.producer(p).edges.load();
  }
  run.batches_enqueued = m.batches_enqueued.load();
  run.batches_recycled = m.TotalBatchesRecycled();
  run.shards_quarantined =
      static_cast<uint32_t>(m.shards_quarantined.load());
  run.json = m.ToJson();
  return run;
}

TEST(ParallelPipeline, GridMatchesInlinePassBitIdentically) {
  std::vector<Edge> edges = SyntheticEdges(30000, 3);
  CoverageSketchState::Config cfg;
  cfg.seed = 17;
  CoverageSketchState inline_state(cfg);
  for (const Edge& e : edges) inline_state.Process(e);

  for (uint32_t P : {1u, 2u, 4u}) {
    for (uint32_t N : {1u, 8u}) {
      LatticeRun run = RunLatticed(edges, P, N);
      EXPECT_EQ(StateBytes(run.state), StateBytes(inline_state))
          << "P=" << P << " N=" << N;
      EXPECT_DOUBLE_EQ(run.state.covered_l0.Estimate(),
                       inline_state.covered_l0.Estimate())
          << "P=" << P << " N=" << N;
      // Per-producer accounting: the rows partition the ingested stream.
      EXPECT_EQ(run.edges_ingested, edges.size());
      EXPECT_EQ(run.producer_edge_sum, edges.size());
      EXPECT_EQ(run.num_producers, P);
    }
  }
}

TEST(ParallelPipeline, RepeatedLatticeRunsAreBitIdentical) {
  std::vector<Edge> edges = SyntheticEdges(20000, 5);
  LatticeRun first = RunLatticed(edges, 4, 8, "", 97);  // odd batches
  for (int i = 0; i < 3; ++i) {
    LatticeRun again = RunLatticed(edges, 4, 8, "", 97);
    EXPECT_EQ(StateBytes(again.state), StateBytes(first.state));
    EXPECT_DOUBLE_EQ(again.state.covered_l0.Estimate(),
                     first.state.covered_l0.Estimate());
  }
}

TEST(ParallelPipeline, TimingFaultsChangeNothingAcrossProducers) {
  std::vector<Edge> edges = SyntheticEdges(20000, 7);
  CoverageSketchState::Config cfg;
  cfg.seed = 17;
  CoverageSketchState inline_state(cfg);
  for (const Edge& e : edges) inline_state.Process(e);
  // Push delays and a straggling shard perturb only scheduling; with 4
  // producers the per-shard interleaving varies wildly, but the multiset —
  // hence the merged state — must not move.
  LatticeRun run =
      RunLatticed(edges, 4, 8, "seed=5,push-delay=0.05:100000,slow-shard=2:50000");
  EXPECT_EQ(StateBytes(run.state), StateBytes(inline_state));
  EXPECT_DOUBLE_EQ(run.state.covered_l0.Estimate(),
                   inline_state.covered_l0.Estimate());
  EXPECT_EQ(run.shards_quarantined, 0u);
}

TEST(ParallelPipeline, KilledShardQuarantineStaysExactUnderManyProducers) {
  std::vector<Edge> edges = SyntheticEdges(20000, 11);
  // Shard 1 dies before its first batch: no matter how the 4 producers'
  // lanes interleave, the whole shard replica is quarantined, so the
  // degraded answer equals an inline pass over the healthy substreams.
  LatticeRun run = RunLatticed(edges, 4, 4, "seed=1,kill-shard=1@0");
  EXPECT_EQ(run.shards_quarantined, 1u);
  ShardRouter router(4, PartitionPolicy::kByElement);
  CoverageSketchState::Config cfg;
  cfg.seed = 17;
  CoverageSketchState expect(cfg);
  for (const Edge& e : edges) {
    if (router.ShardOf(e) != 1) expect.Process(e);
  }
  EXPECT_EQ(StateBytes(run.state), StateBytes(expect));
  EXPECT_DOUBLE_EQ(run.state.covered_l0.Estimate(), expect.covered_l0.Estimate());
}

TEST(ParallelPipeline, MutatingFaultPlanReplaysBitIdenticallyAcrossSeeds) {
  // A mutating plan (dups, garbage, read errors) changes the token multiset
  // itself, so cross-P identity cannot hold — the guarantee is REPLAY:
  // fault decisions are keyed per segment by token sequence, so the same
  // (edges, P, plan) triple is a pure function, scheduling be damned.
  // Alpha-band: seed count scales with STREAMKC_SWEEP_SEEDS; failures name
  // the seed for replay.
  const uint64_t base_seed = EnvScaledU64("STREAMKC_SWEEP_BASE_SEED", 1200);
  const uint64_t num_seeds = EnvScaledU64("STREAMKC_SWEEP_SEEDS", 3);
  for (uint64_t i = 0; i < num_seeds; ++i) {
    uint64_t seed = base_seed + i;
    std::vector<Edge> edges = SyntheticEdges(12000, seed);
    const std::string spec = "seed=" + std::to_string(seed) +
                             ",read-error=0.01,dup=0.02,garbage=0.005";
    for (uint32_t P : {2u, 4u}) {
      LatticeRun first = RunLatticed(edges, P, 4, spec);
      LatticeRun again = RunLatticed(edges, P, 4, spec);
      EXPECT_EQ(StateBytes(again.state), StateBytes(first.state))
          << "replay: STREAMKC_SWEEP_BASE_SEED=" << seed << " P=" << P;
      EXPECT_DOUBLE_EQ(again.state.covered_l0.Estimate(),
                       first.state.covered_l0.Estimate())
          << "replay: STREAMKC_SWEEP_BASE_SEED=" << seed << " P=" << P;
    }
  }
}

TEST(ParallelPipeline, SteadyStateFlushRecyclesDrainedBatches) {
  // The allocation regression: flush used to build a fresh EdgeBatch per
  // hand-off. Now drained batches cycle producer → worker → producer, so in
  // steady state nearly every flush is served from the recycle lane; fresh
  // allocations are bounded by the lattice's in-flight window, not by the
  // stream length.
  std::vector<Edge> edges = SyntheticEdges(60000, 13);
  const uint32_t P = 2, N = 2;
  const size_t queue_capacity = 2;
  LatticeRun run = RunLatticed(edges, P, N, "", 64, queue_capacity);
  EXPECT_GT(run.batches_enqueued, 400u);  // enough flushes to mean something
  EXPECT_GT(run.batches_recycled, 0u);
  uint64_t fresh = run.batches_enqueued - run.batches_recycled;
  // Fresh allocations are the lane-priming transient only: once a lane's
  // circulating set (data ring + producer accumulator + worker hand) is
  // built, every flush is served from the recycle lane. A bound that grows
  // with the stream would mean the hot path allocates per hand-off again.
  uint64_t lanes = static_cast<uint64_t>(P) * N;
  EXPECT_LE(fresh, lanes * (queue_capacity + 3))
      << "flush hot path is allocating per hand-off again";
}

TEST(ParallelPipeline, JsonSnapshotCarriesPerProducerRows) {
  std::vector<Edge> edges = SyntheticEdges(5000, 61);
  LatticeRun run = RunLatticed(edges, 3, 2);
  EXPECT_NE(run.json.find("\"num_producers\": 3"), std::string::npos);
  EXPECT_NE(run.json.find("\"producers\""), std::string::npos);
  EXPECT_NE(run.json.find("\"batches_recycled\""), std::string::npos);
  EXPECT_NE(run.json.find("\"stream_retries\""), std::string::npos);
}

}  // namespace
}  // namespace streamkc
