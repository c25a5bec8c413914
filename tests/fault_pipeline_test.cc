// ShardedPipeline under injected faults: the degradation policy's contract
// is (a) timing faults and retried transient errors change NOTHING in the
// merged state, (b) worker death and merge corruption quarantine exactly
// the affected shard and the survivors' fold stays deterministic, (c)
// strict mode turns every degradation into a clean hard failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimate_max_cover.h"
#include "core/report_max_cover.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_stream.h"
#include "obs/metrics.h"
#include "runtime/degradation.h"
#include "runtime/edge_batch.h"
#include "runtime/feed_stream.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_pipeline.h"
#include "runtime/sketch_states.h"
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

// Runs `edges` through a 4-shard pipeline under `spec` (empty = clean) and
// hands back the merged state; `metrics_out` receives the run's counters.
CoverageSketchState RunFaulted(const std::vector<Edge>& edges,
                               const std::string& spec,
                               RuntimeMetrics* metrics_out,
                               MetricsRegistry* registry,
                               bool strict = false) {
  CoverageSketchState::Config cfg;
  cfg.seed = 19;
  ShardedPipelineOptions opts;
  opts.num_shards = 4;
  opts.batch_size = 128;
  opts.registry = registry;
  FaultInjector injector(
      FaultPlan::ParseOrDie(spec.empty() ? "seed=1" : spec), registry);
  opts.fault_injector = &injector;
  opts.degradation.strict = strict;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream inner(edges);
  FaultInjectingStream stream(&inner, &injector);
  CoverageSketchState merged = pipe.Run(stream);
  if (metrics_out != nullptr) {
    // Snapshot the counters the assertions need (RuntimeMetrics itself is
    // not copyable; re-run its totals here).
    metrics_out->Reset(4);
    for (uint32_t s = 0; s < 4; ++s) {
      metrics_out->shard(s).edges.store(pipe.metrics().shard(s).edges.load());
      metrics_out->shard(s).edges_discarded.store(
          pipe.metrics().shard(s).edges_discarded.load());
      metrics_out->shard(s).quarantined.store(
          pipe.metrics().shard(s).quarantined.load());
    }
    metrics_out->edges_ingested.store(pipe.metrics().edges_ingested.load());
    metrics_out->stream_retries.store(pipe.metrics().stream_retries.load());
    metrics_out->worker_deaths.store(pipe.metrics().worker_deaths.load());
    metrics_out->merge_corruptions_detected.store(
        pipe.metrics().merge_corruptions_detected.load());
    metrics_out->shards_quarantined.store(
        pipe.metrics().shards_quarantined.load());
  }
  return merged;
}

TEST(FaultPipeline, TimingFaultsChangeNothing) {
  std::vector<Edge> edges = SyntheticEdges(20000, 3);
  MetricsRegistry clean_reg, faulted_reg;
  CoverageSketchState clean = RunFaulted(edges, "", nullptr, &clean_reg);
  // Push delays and a straggling shard perturb scheduling only; the merged
  // state is a pure function of the token sequence and must not move.
  RuntimeMetrics metrics;
  CoverageSketchState faulted =
      RunFaulted(edges, "seed=5,push-delay=0.05:100000,slow-shard=2:50000",
                 &metrics, &faulted_reg);
  EXPECT_EQ(StateBytes(faulted), StateBytes(clean));
  EXPECT_DOUBLE_EQ(faulted.covered_l0.Estimate(), clean.covered_l0.Estimate());
  EXPECT_EQ(metrics.shards_quarantined.load(), 0u);
  EXPECT_GT(faulted_reg
                .GetCounter(LabeledName("faults_injected_total", "kind",
                                        FaultInjector::kFaultPushDelay))
                ->Value(),
            0u);
}

TEST(FaultPipeline, TransientReadErrorsAreRetriedWithoutLoss) {
  std::vector<Edge> edges = SyntheticEdges(20000, 7);
  MetricsRegistry clean_reg, faulted_reg;
  CoverageSketchState clean = RunFaulted(edges, "", nullptr, &clean_reg);
  RuntimeMetrics metrics;
  CoverageSketchState faulted =
      RunFaulted(edges, "seed=9,read-error=0.05", &metrics, &faulted_reg);
  // Retried reads resume exactly where the stream left off: same tokens,
  // same state, nothing quarantined.
  EXPECT_EQ(StateBytes(faulted), StateBytes(clean));
  EXPECT_EQ(metrics.edges_ingested.load(), edges.size());
  EXPECT_GT(metrics.stream_retries.load(), 0u);
  EXPECT_EQ(metrics.shards_quarantined.load(), 0u);
  // The backoff histogram saw every retry.
  EXPECT_EQ(faulted_reg.GetHistogram("runtime_retry_backoff_ns")->Count(),
            metrics.stream_retries.load());
}

TEST(FaultPipeline, KilledShardIsQuarantinedAndSurvivorsStayExact) {
  std::vector<Edge> edges = SyntheticEdges(20000, 11);
  MetricsRegistry registry;
  RuntimeMetrics metrics;
  // Shard 1 dies before its first batch: its whole substream is discarded.
  CoverageSketchState degraded =
      RunFaulted(edges, "seed=1,kill-shard=1@0", &metrics, &registry);

  EXPECT_EQ(metrics.worker_deaths.load(), 1u);
  EXPECT_EQ(metrics.shards_quarantined.load(), 1u);
  EXPECT_EQ(metrics.shard(1).quarantined.load(), 1u);
  EXPECT_EQ(metrics.shard(1).edges.load(), 0u);
  EXPECT_GT(metrics.shard(1).edges_discarded.load(), 0u);
  EXPECT_DOUBLE_EQ(metrics.QuarantinedFraction(), 0.25);
  // Conservation: every ingested edge was either processed or discarded.
  EXPECT_EQ(metrics.TotalShardEdges() + metrics.TotalEdgesDiscarded(),
            metrics.edges_ingested.load());

  // The degraded answer equals an in-line pass over exactly the healthy
  // shards' substreams — the router is a pure function of the edge, so the
  // quarantined substream is identifiable after the fact.
  ShardRouter router(4, PartitionPolicy::kByElement);
  CoverageSketchState::Config cfg;
  cfg.seed = 19;
  CoverageSketchState expect(cfg);
  for (const Edge& e : edges) {
    if (router.ShardOf(e) != 1) expect.Process(e);
  }
  EXPECT_EQ(StateBytes(degraded), StateBytes(expect));
  EXPECT_DOUBLE_EQ(degraded.covered_l0.Estimate(),
                   expect.covered_l0.Estimate());
}

TEST(FaultPipeline, CorruptedMergeFingerprintIsDetectedAndQuarantined) {
  std::vector<Edge> edges = SyntheticEdges(20000, 13);
  MetricsRegistry registry;
  RuntimeMetrics metrics;
  CoverageSketchState degraded =
      RunFaulted(edges, "seed=1,corrupt-merge=2", &metrics, &registry);
  EXPECT_EQ(metrics.merge_corruptions_detected.load(), 1u);
  EXPECT_EQ(metrics.shards_quarantined.load(), 1u);
  EXPECT_EQ(metrics.shard(2).quarantined.load(), 1u);

  ShardRouter router(4, PartitionPolicy::kByElement);
  CoverageSketchState::Config cfg;
  cfg.seed = 19;
  CoverageSketchState expect(cfg);
  for (const Edge& e : edges) {
    if (router.ShardOf(e) != 2) expect.Process(e);
  }
  EXPECT_EQ(StateBytes(degraded), StateBytes(expect));
}

TEST(FaultPipeline, CorruptRootShardIsOutvotedByTheMajority) {
  // Majority vote must handle shard 0 being the corrupt one — a naive
  // "trust shard 0" comparison would quarantine everyone else instead.
  std::vector<Edge> edges = SyntheticEdges(10000, 17);
  MetricsRegistry registry;
  RuntimeMetrics metrics;
  RunFaulted(edges, "seed=1,corrupt-merge=0", &metrics, &registry);
  EXPECT_EQ(metrics.shards_quarantined.load(), 1u);
  EXPECT_EQ(metrics.shard(0).quarantined.load(), 1u);
  EXPECT_EQ(metrics.shard(1).quarantined.load(), 0u);
}

TEST(FaultPipeline, DeathAndCorruptionCompose) {
  std::vector<Edge> edges = SyntheticEdges(20000, 19);
  MetricsRegistry registry;
  RuntimeMetrics metrics;
  RunFaulted(edges, "seed=1,kill-shard=1@0,corrupt-merge=3", &metrics,
             &registry);
  EXPECT_EQ(metrics.shards_quarantined.load(), 2u);
  EXPECT_EQ(metrics.shard(1).quarantined.load(), 1u);
  EXPECT_EQ(metrics.shard(3).quarantined.load(), 1u);
  EXPECT_DOUBLE_EQ(metrics.QuarantinedFraction(), 0.5);
}

TEST(FaultPipeline, FaultedRunsReplayBitIdentically) {
  // The whole point of the harness: same plan, same answer — regardless of
  // scheduling. Run the same degraded configuration three times.
  std::vector<Edge> edges = SyntheticEdges(15000, 23);
  const std::string spec =
      "seed=29,read-error=0.01,dup=0.02,garbage=0.005,kill-shard=2@1";
  MetricsRegistry reg0;
  CoverageSketchState first = RunFaulted(edges, spec, nullptr, &reg0);
  for (int i = 0; i < 2; ++i) {
    MetricsRegistry reg;
    CoverageSketchState again = RunFaulted(edges, spec, nullptr, &reg);
    EXPECT_EQ(StateBytes(again), StateBytes(first));
    EXPECT_DOUBLE_EQ(again.covered_l0.Estimate(),
                     first.covered_l0.Estimate());
  }
}

TEST(FaultPipeline, EstimatorStatesCarryMergeFingerprints) {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(512, 1024, 16, 8.0);
  c.seed = 7;
  EstimateMaxCover a(c), b(c);
  EXPECT_EQ(a.MergeFingerprint(), b.MergeFingerprint());
  EXPECT_TRUE(a.MergeCompatible(b));
  EstimateMaxCover::Config c2 = c;
  c2.seed = 8;
  EstimateMaxCover other(c2);
  EXPECT_NE(a.MergeFingerprint(), other.MergeFingerprint());
  EXPECT_FALSE(a.MergeCompatible(other));

  ReportMaxCover::Config rc;
  rc.params = c.params;
  rc.seed = 7;
  ReportMaxCover ra(rc), rb(rc);
  EXPECT_EQ(ra.MergeFingerprint(), rb.MergeFingerprint());

  CoverageSketchState::Config sc;
  CoverageSketchState sa(sc), sb(sc);
  EXPECT_EQ(sa.MergeFingerprint(), sb.MergeFingerprint());
  sc.seed = 99;
  EXPECT_NE(CoverageSketchState(sc).MergeFingerprint(), sa.MergeFingerprint());
}

TEST(FaultPipeline, BackoffSaturatesAtTheCapUnderALongFaultBurst) {
  // read-error=1 fails EVERY read: the producer burns its whole retry
  // budget in one consecutive burst. With >64 retries the old uncapped
  // `backoff_ns *= 2` overflowed uint64 (and long before that, slept for
  // centuries); the saturating doubling must pin every backoff at
  // max_backoff_ns instead — verified exactly through the backoff
  // histogram, which records each sleep before it happens.
  std::vector<Edge> edges = SyntheticEdges(4000, 41);
  MetricsRegistry registry;
  CoverageSketchState::Config cfg;
  cfg.seed = 19;
  ShardedPipelineOptions opts;
  opts.num_shards = 2;
  opts.batch_size = 128;
  opts.registry = &registry;
  opts.degradation.max_stream_retries = 100;  // > 64 consecutive failures
  opts.degradation.initial_backoff_ns = 1;
  opts.degradation.max_backoff_ns = 1024;
  FaultInjector injector(FaultPlan::ParseOrDie("seed=1,read-error=1"),
                         &registry);
  opts.fault_injector = &injector;
  ShardedPipeline<CoverageSketchState> pipe(
      opts, [&](uint32_t) { return CoverageSketchState(cfg); });
  VectorEdgeStream inner(edges);
  FaultInjectingStream stream(&inner, &injector);
  pipe.Run(stream);

  EXPECT_EQ(pipe.metrics().stream_retries.load(), 100u);
  EXPECT_EQ(pipe.metrics().edges_ingested.load(), 0u);
  Histogram* h = registry.GetHistogram("runtime_retry_backoff_ns");
  EXPECT_EQ(h->Count(), 100u);
  // Backoffs observed: 1, 2, 4, …, 512 (ten doublings, sum 1023), then 90
  // sleeps saturated at the 1024ns cap. An overflow or wrap would blow this
  // exact sum apart.
  EXPECT_EQ(h->Sum(), 1023u + 90u * 1024u);
  // The producer surfaced the exhausted budget as a transient failure.
  ASSERT_EQ(pipe.producer_status().size(), 1u);
  EXPECT_FALSE(pipe.producer_status()[0].ok);
  EXPECT_TRUE(pipe.producer_status()[0].transient);
  EXPECT_EQ(pipe.producer_status()[0].retries_used, 100u);
}

TEST(FaultPipeline, NextBackoffDoublesThenSaturatesForAnyCap) {
  // The one backoff helper every retry loop shares: exactly min(2b, cap),
  // with no wrap even when 2b does not fit in 64 bits.
  DegradationPolicy pol;
  for (uint64_t cap : {uint64_t{0}, uint64_t{1}, uint64_t{5}, uint64_t{1024},
                       (uint64_t{1} << 63) + 1, ~uint64_t{0}}) {
    pol.max_backoff_ns = cap;
    uint64_t backoff = 1;
    for (int i = 0; i < 70; ++i) {
      const __uint128_t doubled = static_cast<__uint128_t>(backoff) * 2;
      const uint64_t want =
          doubled < cap ? static_cast<uint64_t>(doubled) : cap;
      backoff = NextBackoffNs(backoff, pol);
      ASSERT_EQ(backoff, want) << "cap " << cap << " step " << i;
    }
    EXPECT_EQ(backoff, cap);
  }
}

TEST(Backoff, FirstSleepHonorsTheCapAndResetRestoresTheBudget) {
  // An initial backoff above the cap is clamped: the first sleep is
  // min(initial, max), not an uncapped initial_backoff_ns.
  MetricsRegistry registry;
  Histogram* capped_hist = registry.GetHistogram("capped_backoff_ns");
  DegradationPolicy capped;
  capped.initial_backoff_ns = 5000;
  capped.max_backoff_ns = 1000;
  Backoff first(capped, capped_hist);
  ASSERT_TRUE(first.Wait());
  EXPECT_EQ(capped_hist->Sum(), 1000u);

  // Exactly max_stream_retries consecutive waits, each recorded; the next
  // one is refused without sleeping. Reset() restores the budget and the
  // first sleep.
  Histogram* hist = registry.GetHistogram("backoff_ns");
  DegradationPolicy pol;
  pol.max_stream_retries = 3;
  pol.initial_backoff_ns = 250;
  pol.max_backoff_ns = 1000;
  Backoff backoff(pol, hist);
  for (int round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < pol.max_stream_retries; ++i) {
      EXPECT_TRUE(backoff.Wait()) << "round " << round << " wait " << i;
    }
    EXPECT_EQ(backoff.used(), 3u);
    EXPECT_FALSE(backoff.Wait());
    EXPECT_EQ(hist->Count(), 3u * (round + 1));
    EXPECT_EQ(hist->Sum(), (250u + 500u + 1000u) * (round + 1));
    backoff.Reset();
    EXPECT_EQ(backoff.used(), 0u);
  }
}

TEST(BatchReader, FillsAcrossTransientErrorsAndStopsForGood) {
  const std::vector<Edge> edges = SyntheticEdges(10, 3);
  DegradationPolicy pol;
  pol.max_stream_retries = 2;
  pol.initial_backoff_ns = 1;

  // Calls 3 and 4 fail: the first batch still holds the first 8 edges in
  // order, as a clean read would.
  ScriptedFaultStream flaky(edges, {3, 4});
  BatchReader reader(flaky, pol);
  std::vector<Edge> batch;
  ASSERT_EQ(reader.Next(&batch, 8), 8u);
  EXPECT_TRUE(std::equal(batch.begin(), batch.end(), edges.begin()));
  EXPECT_EQ(reader.retries(), 2u);
  ASSERT_EQ(reader.Next(&batch, 8), 2u);
  EXPECT_TRUE(std::equal(batch.begin(), batch.end(), edges.begin() + 8));
  EXPECT_EQ(reader.Next(&batch, 8), 0u);
  EXPECT_TRUE(flaky.ok());
  const uint64_t calls_at_end = flaky.calls();
  EXPECT_EQ(reader.Next(&batch, 8), 0u);
  EXPECT_EQ(flaky.calls(), calls_at_end);

  // Calls 3, 4 and 5 fail: the budget of 2 is spent mid-batch. The partial
  // batch comes back, and after that the reader never calls the stream
  // again, which would clear the error and read past the spent budget.
  ScriptedFaultStream down(edges, {3, 4, 5});
  BatchReader spent(down, pol);
  ASSERT_EQ(spent.Next(&batch, 8), 3u);
  EXPECT_EQ(spent.retries(), 2u);
  EXPECT_EQ(spent.consecutive_retries(), 2u);
  EXPECT_FALSE(down.ok());
  EXPECT_TRUE(down.transient());
  const uint64_t calls_at_stop = down.calls();
  EXPECT_EQ(spent.Next(&batch, 8), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(down.calls(), calls_at_stop);
}

EstimateMaxCover::Config FeedConfig() {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(256, 4096, 8, 4);
  c.seed = 11;
  return c;
}

TEST(FeedStream, RetriedTransientErrorsLeaveTheCleanState) {
  const std::vector<Edge> edges = SyntheticEdges(3000, 7);
  VectorEdgeStream clean_stream(edges);
  EstimateMaxCover clean(FeedConfig());
  const FeedCounts clean_fed = FeedStream(clean_stream, clean);
  EXPECT_EQ(clean_fed.edges, edges.size());
  EXPECT_EQ(clean_fed.retries, 0u);

  // Two outages of two reads each, one mid-batch and one at the start of
  // the third batch, each within the budget of 3.
  DegradationPolicy pol;
  pol.max_stream_retries = 3;
  pol.initial_backoff_ns = 1;
  ScriptedFaultStream flaky(edges, {100, 101, 1026, 1027});
  EstimateMaxCover fed(FeedConfig());
  EdgeBatch batch;
  std::vector<uint64_t> hook_edges;
  const FeedCounts counts =
      FeedStream(flaky, fed, batch, 512, pol, nullptr,
                 [&](const FeedCounts& done) {
                   hook_edges.push_back(done.edges);
                 });
  EXPECT_TRUE(flaky.ok());
  EXPECT_EQ(counts.edges, edges.size());
  EXPECT_EQ(counts.batches, 6u);
  EXPECT_EQ(counts.retries, 4u);
  // The hook runs before each batch with what was ingested before it.
  EXPECT_EQ(hook_edges,
            (std::vector<uint64_t>{0, 512, 1024, 1536, 2048, 2560}));
  const EstimateOutcome got = fed.Finalize();
  const EstimateOutcome want = clean.Finalize();
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(fed.MemoryBytes(), clean.MemoryBytes());
}

TEST(FeedStream, AnOutageLongerThanTheBudgetStopsTheFeed) {
  const std::vector<Edge> edges = SyntheticEdges(3000, 7);
  DegradationPolicy pol;
  pol.max_stream_retries = 2;
  pol.initial_backoff_ns = 1;
  ScriptedFaultStream down(edges, {700, 701, 702});
  EstimateMaxCover fed(FeedConfig());
  EdgeBatch batch;
  const FeedCounts counts = FeedStream(down, fed, batch, 512, pol);
  EXPECT_FALSE(down.ok());
  EXPECT_TRUE(down.transient());
  EXPECT_EQ(counts.edges, 700u);
  EXPECT_EQ(counts.batches, 2u);
  EXPECT_EQ(counts.retries, 2u);
  // The edges read before the outage are in the state, and no others.
  VectorEdgeStream prefix(
      std::vector<Edge>(edges.begin(), edges.begin() + 700));
  EstimateMaxCover want(FeedConfig());
  FeedStream(prefix, want);
  EXPECT_EQ(fed.Finalize().estimate, want.Finalize().estimate);
  EXPECT_EQ(fed.MemoryBytes(), want.MemoryBytes());
}

using FaultPipelineDeathTest = ::testing::Test;

TEST(FaultPipelineDeathTest, StrictStreamFailureExitsCleanlyAfterJoin) {
  // Strict mode on a persistent stream error must exit(1) — but only AFTER
  // the rings are closed and every worker joined. The old path called
  // std::exit while workers were live and blocked in Pop(), racing
  // registry/atexit teardown against running threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<Edge> edges = SyntheticEdges(2000, 43);
  MetricsRegistry registry;
  CoverageSketchState::Config cfg;
  ShardedPipelineOptions opts;
  opts.num_shards = 4;
  opts.registry = &registry;
  opts.degradation.strict = true;
  opts.degradation.max_stream_retries = 3;
  opts.degradation.initial_backoff_ns = 1;
  FaultInjector injector(FaultPlan::ParseOrDie("seed=1,read-error=1"),
                         &registry);
  opts.fault_injector = &injector;
  EXPECT_EXIT(
      {
        ShardedPipeline<CoverageSketchState> pipe(
            opts, [&](uint32_t) { return CoverageSketchState(cfg); });
        VectorEdgeStream inner(edges);
        FaultInjectingStream stream(&inner, &injector);
        pipe.Run(stream);
      },
      ::testing::ExitedWithCode(1),
      "strict: stream error persisted after 3 retries");
}

TEST(FaultPipelineDeathTest, StrictModeHardFailsOnQuarantine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<Edge> edges = SyntheticEdges(5000, 31);
  MetricsRegistry registry;
  EXPECT_EXIT(
      RunFaulted(edges, "seed=1,kill-shard=1@0", nullptr, &registry, true),
      ::testing::ExitedWithCode(1), "strict: 1/4 shards quarantined");
}

TEST(FaultPipelineDeathTest, AllShardsQuarantinedIsFatalEvenWhenLenient) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<Edge> edges = SyntheticEdges(2000, 37);
  CoverageSketchState::Config cfg;
  ShardedPipelineOptions opts;  // num_shards = 1
  MetricsRegistry registry;
  opts.registry = &registry;
  FaultInjector injector(FaultPlan::ParseOrDie("seed=1,kill-shard=0@0"),
                         &registry);
  opts.fault_injector = &injector;
  EXPECT_EXIT(
      {
        ShardedPipeline<CoverageSketchState> pipe(
            opts, [&](uint32_t) { return CoverageSketchState(cfg); });
        VectorEdgeStream stream(edges);
        pipe.Run(stream);
      },
      ::testing::ExitedWithCode(1), "all 1 shards quarantined");
}

}  // namespace
}  // namespace streamkc
