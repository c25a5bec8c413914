// QueryEngine contract: answers are precomputed snapshot lookups stamped
// with staleness metadata; a query before the first publish is an explicit
// `ok == false` answer counted per reason; and the obs wiring
// is self-consistent — per-type latency histogram counts equal the per-type
// served counters.

#include <gtest/gtest.h>

#include "core/params.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/serving_state.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"

namespace streamkc {
namespace {

ServingState::Config TestConfig() {
  ServingState::Config config;
  config.params = Params::Practical(128, 256, 8, 8.0);
  config.seed = 5;
  return config;
}

ServingState FedState() {
  ServingState state(TestConfig());
  GeneratedInstance inst = PlantedCover(128, 256, 8, 0.5, 6, 5);
  for (const Edge& e : inst.system.MaterializeEdges()) state.Process(e);
  return state;
}

std::shared_ptr<const CoverageSnapshot> Snap(const ServingState& state,
                                             uint64_t epoch) {
  SnapshotMeta meta;
  meta.epoch = epoch;
  meta.edges_ingested = 100 * epoch;
  meta.batches_ingested = epoch;
  meta.shards = 8;
  meta.publish_steady_ns = 42;
  return CoverageSnapshot::Build(state, meta);
}

TEST(QueryEngine, RejectsBeforeFirstSnapshot) {
  MetricsRegistry registry;
  SnapshotStore store("q0", &registry);
  QueryEngine engine(&store, &registry);
  EstimateAnswer est = engine.Estimate();
  EXPECT_FALSE(est.ok);
  EXPECT_EQ(est.error, "no snapshot published yet");
  ReportAnswer rep = engine.Report();
  EXPECT_FALSE(rep.ok);
  SetCoverageAnswer cov = engine.SetCoverage(3);
  EXPECT_FALSE(cov.ok);
  EXPECT_EQ(registry
                .GetCounter(LabeledName("serve_queries_rejected_total",
                                        "reason", "no_snapshot"))
                ->Value(),
            3u);
  // Rejected queries are not served queries.
  EXPECT_EQ(registry
                .GetCounter(
                    LabeledName("serve_queries_total", "type", "estimate"))
                ->Value(),
            0u);
}

TEST(QueryEngine, AnswersMatchSnapshotAndCarryStaleness) {
  MetricsRegistry registry;
  SnapshotStore store("q1", &registry);
  ServingState state = FedState();
  auto snap = Snap(state, 2);
  store.Publish(snap);
  QueryEngine engine(&store, &registry);

  EstimateAnswer est = engine.Estimate();
  ASSERT_TRUE(est.ok);
  EXPECT_DOUBLE_EQ(est.estimate, snap->solution().estimate);
  EXPECT_EQ(est.source, snap->solution().source);
  EXPECT_EQ(est.staleness.epoch, 2u);
  EXPECT_EQ(est.staleness.edges_ingested, 200u);
  EXPECT_EQ(est.staleness.batches_ingested, 2u);

  ReportAnswer rep = engine.Report();
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.sets, snap->solution().sets);
  EXPECT_DOUBLE_EQ(rep.estimate, snap->solution().estimate);
  EXPECT_EQ(rep.staleness.epoch, 2u);

  SetCoverageAnswer cov = engine.SetCoverage(7);
  ASSERT_TRUE(cov.ok);
  EXPECT_EQ(cov.set, 7u);
  EXPECT_DOUBLE_EQ(cov.coverage, snap->SetCoverage(7));
  EXPECT_EQ(cov.staleness.epoch, 2u);
}

TEST(QueryEngine, AnswersTrackNewestSnapshot) {
  MetricsRegistry registry;
  SnapshotStore store("q2", &registry);
  ServingState state(TestConfig());
  state.Process(Edge{1, 2});
  store.Publish(Snap(state, 1));
  QueryEngine engine(&store, &registry);
  EXPECT_EQ(engine.Estimate().staleness.epoch, 1u);
  state.Process(Edge{3, 4});
  store.Publish(Snap(state, 2));
  EXPECT_EQ(engine.Estimate().staleness.epoch, 2u);
}

TEST(QueryEngine, LatencyHistogramCountsEqualServedCounters) {
  MetricsRegistry registry;
  SnapshotStore store("q4", &registry);
  ServingState state = FedState();
  store.Publish(Snap(state, 1));
  QueryEngine engine(&store, &registry);

  for (int i = 0; i < 5; ++i) engine.Estimate();
  for (int i = 0; i < 3; ++i) engine.Report();
  for (int i = 0; i < 7; ++i) engine.SetCoverage(static_cast<SetId>(i));

  const char* kTypes[] = {"estimate", "report", "set_coverage"};
  const uint64_t kWant[] = {5, 3, 7};
  for (int t = 0; t < 3; ++t) {
    uint64_t served =
        registry.GetCounter(LabeledName("serve_queries_total", "type",
                                        kTypes[t]))->Value();
    uint64_t observed =
        registry.GetHistogram(LabeledName("serve_query_latency_ns", "type",
                                          kTypes[t]))->Count();
    EXPECT_EQ(served, kWant[t]) << kTypes[t];
    EXPECT_EQ(observed, served) << kTypes[t];
  }
}

}  // namespace
}  // namespace streamkc
