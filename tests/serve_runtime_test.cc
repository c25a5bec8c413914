// ServingRuntime contract — including the subsystem's acceptance
// criterion: querying a snapshot at epoch E returns exactly what a one-shot
// inline pass over the first E ingest segments would have returned. Plus:
// threaded ingest (the estimator's levels on several threads) matches
// inline at every epoch, publishes one snapshot at a time, and ends on a
// dead source exactly like inline; a trailing partial segment still
// publishes; and retried read errors move no segment boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/params.h"
#include "obs/metrics.h"
#include "serve/serving_runtime.h"
#include "serve/serving_state.h"
#include "serve/snapshot_store.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"
#include "test_util.h"

namespace streamkc {
namespace {

constexpr uint64_t kM = 256, kN = 512, kK = 8;

ServingState::Config TestConfig() {
  ServingState::Config config;
  config.params = Params::Practical(kM, kN, kK, 8.0);
  config.seed = 21;
  return config;
}

std::vector<Edge> TestEdges() {
  GeneratedInstance inst = PlantedCover(kM, kN, kK, 0.5, 6, 21);
  auto edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, 21);
  return edges;
}

// Reference answer: a fresh inline per-edge pass over a prefix.
ServingState PrefixPass(const std::vector<Edge>& edges, uint64_t count) {
  ServingState state(TestConfig());
  for (uint64_t i = 0; i < count && i < edges.size(); ++i) {
    state.Process(edges[i]);
  }
  return state;
}

TEST(ServingRuntime, SnapshotAtEpochEMatchesInlinePrefixPass) {
  const std::vector<Edge> edges = TestEdges();
  const uint64_t kCadence = 300;
  MetricsRegistry registry;
  SnapshotStore store("rt0", &registry);
  ServingRuntimeOptions opts;
  opts.snapshot_every_edges = kCadence;
  opts.registry = &registry;
  std::vector<std::shared_ptr<const CoverageSnapshot>> published;
  opts.on_publish = [&](const std::shared_ptr<const CoverageSnapshot>& s) {
    published.push_back(s);
  };
  ServingRuntime runtime(TestConfig(), opts, &store);
  VectorEdgeStream stream(edges);
  IngestSummary sum = runtime.Ingest(stream);

  ASSERT_TRUE(sum.stream_ok);
  EXPECT_EQ(sum.edges, edges.size());
  const uint64_t want_segments = (edges.size() + kCadence - 1) / kCadence;
  EXPECT_EQ(sum.segments, want_segments);
  ASSERT_EQ(published.size(), want_segments);

  // THE acceptance differential: every published epoch E must equal a
  // one-shot pass over the first min(E * cadence, total) edges.
  for (const auto& snap : published) {
    const uint64_t epoch = snap->meta().epoch;
    const uint64_t prefix =
        std::min<uint64_t>(epoch * kCadence, edges.size());
    EXPECT_EQ(snap->meta().edges_ingested, prefix) << "epoch " << epoch;
    ServingState reference = PrefixPass(edges, prefix);
    MaxCoverSolution want = reference.FinalizeSolution();
    EXPECT_DOUBLE_EQ(snap->solution().estimate, want.estimate)
        << "epoch " << epoch;
    EXPECT_EQ(snap->solution().source, want.source) << "epoch " << epoch;
    EXPECT_EQ(snap->solution().sets, want.sets) << "epoch " << epoch;
    for (SetId s = 0; s < 16; ++s) {
      EXPECT_DOUBLE_EQ(snap->SetCoverage(s),
                       reference.set_coverage().PointQuery(s))
          << "epoch " << epoch << " set " << s;
    }
  }
}

// Every epoch of a threaded serve equals the inline serve's snapshot at the
// same epoch: every level reads every edge in stream order on whichever
// thread runs it, so the state is the inline state. Publishes come one at
// a time, in epoch order.
TEST(ServingRuntime, ShardedSegmentsMatchInlineIngest) {
  const std::vector<Edge> edges = TestEdges();
  const uint64_t kCadence = 512;
  ASSERT_GE(edges.size(), 3 * kCadence);
  MetricsRegistry inline_registry;
  SnapshotStore inline_store("rt1a", &inline_registry);
  ServingRuntimeOptions inline_opts;
  inline_opts.snapshot_every_edges = kCadence;
  inline_opts.registry = &inline_registry;
  std::vector<std::shared_ptr<const CoverageSnapshot>> inline_snaps;
  inline_opts.on_publish =
      [&](const std::shared_ptr<const CoverageSnapshot>& snap) {
        inline_snaps.push_back(snap);
      };
  ServingRuntime inline_runtime(TestConfig(), inline_opts, &inline_store);
  VectorEdgeStream inline_stream(edges);
  IngestSummary inline_sum = inline_runtime.Ingest(inline_stream);

  for (uint32_t threads : {2u, 3u, 8u}) {
    MetricsRegistry sharded_registry;
    SnapshotStore sharded_store("rt1b", &sharded_registry);
    ServingRuntimeOptions sharded_opts;
    sharded_opts.snapshot_every_edges = kCadence;
    sharded_opts.threads = threads;
    sharded_opts.batch_size = 64;
    sharded_opts.registry = &sharded_registry;
    std::atomic<bool> in_flight{false};
    std::atomic<uint32_t> overlapping_calls{0};
    std::vector<std::shared_ptr<const CoverageSnapshot>> sharded_snaps;
    sharded_opts.on_publish =
        [&](const std::shared_ptr<const CoverageSnapshot>& snap) {
          if (in_flight.exchange(true)) overlapping_calls.fetch_add(1);
          sharded_snaps.push_back(snap);
          // Hold the publish open: nothing may publish under it.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          in_flight.store(false);
        };
    ServingRuntime sharded_runtime(TestConfig(), sharded_opts,
                                   &sharded_store);
    VectorEdgeStream sharded_stream(edges);
    IngestSummary sharded_sum = sharded_runtime.Ingest(sharded_stream);

    EXPECT_EQ(sharded_sum.edges, inline_sum.edges) << "threads " << threads;
    EXPECT_EQ(sharded_sum.segments, inline_sum.segments);
    EXPECT_EQ(sharded_sum.snapshots_published,
              inline_sum.snapshots_published);
    EXPECT_EQ(overlapping_calls.load(), 0u) << "threads " << threads;
    ASSERT_EQ(sharded_snaps.size(), inline_snaps.size());
    for (size_t i = 0; i < sharded_snaps.size(); ++i) {
      const CoverageSnapshot& got = *sharded_snaps[i];
      const CoverageSnapshot& want = *inline_snaps[i];
      EXPECT_EQ(got.meta().epoch, i + 1);
      EXPECT_EQ(got.meta().edges_ingested, want.meta().edges_ingested);
      EXPECT_DOUBLE_EQ(got.solution().estimate, want.solution().estimate)
          << "threads " << threads << " epoch " << i + 1;
      EXPECT_EQ(got.solution().source, want.solution().source)
          << "threads " << threads << " epoch " << i + 1;
      EXPECT_EQ(got.solution().sets, want.solution().sets)
          << "threads " << threads << " epoch " << i + 1;
      for (SetId s = 0; s < 16; ++s) {
        EXPECT_DOUBLE_EQ(got.SetCoverage(s), want.SetCoverage(s))
            << "threads " << threads << " epoch " << i + 1 << " set " << s;
      }
    }
  }
}

// Serves its first `good` edges, then fails every read with a transient
// error: a source that goes down for good mid-stream.
class OutageEdgeStream : public EdgeStream {
 public:
  OutageEdgeStream(std::vector<Edge> edges, size_t good)
      : edges_(std::move(edges)), good_(good) {}

  bool Next(Edge* edge) override {
    failing_ = pos_ >= good_;
    if (failing_) return false;
    *edge = edges_[pos_++];
    return true;
  }
  size_t NextBatch(std::vector<Edge>* out, size_t max_edges) override {
    out->clear();
    Edge edge;
    while (out->size() < max_edges && Next(&edge)) out->push_back(edge);
    if (!out->empty()) failing_ = false;
    return out->size();
  }
  void Reset() override { pos_ = 0; }
  bool ok() const override { return !failing_; }
  bool transient() const override { return failing_; }
  std::string StatusMessage() const override {
    return failing_ ? "outage: read failed" : std::string();
  }

 private:
  std::vector<Edge> edges_;
  size_t good_;
  size_t pos_ = 0;
  bool failing_ = false;
};

// A source that goes down for good inside the third segment: the threaded
// serve stops where the inline one does, reports the stream's error, and
// publishes the same snapshots, the truncated last segment included.
TEST(ServingRuntime, OutageEndsParallelIngestLikeInline) {
  const std::vector<Edge> edges = TestEdges();
  const uint64_t kCadence = 512, kGood = 2 * kCadence + kCadence / 2;
  ASSERT_GT(edges.size(), kGood);
  auto serve = [&](uint32_t threads, IngestSummary* sum) {
    MetricsRegistry registry;
    SnapshotStore store("rt7", &registry);
    ServingRuntimeOptions opts;
    opts.snapshot_every_edges = kCadence;
    opts.threads = threads;
    opts.batch_size = 64;
    opts.registry = &registry;
    opts.degradation.max_stream_retries = 2;
    opts.degradation.initial_backoff_ns = 1000;
    std::vector<std::shared_ptr<const CoverageSnapshot>> snaps;
    opts.on_publish = [&](const std::shared_ptr<const CoverageSnapshot>& s) {
      snaps.push_back(s);
    };
    ServingRuntime runtime(TestConfig(), opts, &store);
    OutageEdgeStream stream(edges, kGood);
    *sum = runtime.Ingest(stream);
    return snaps;
  };
  IngestSummary inline_sum, threaded_sum;
  const auto want = serve(0, &inline_sum);
  const auto got = serve(3, &threaded_sum);
  EXPECT_FALSE(inline_sum.stream_ok);
  EXPECT_FALSE(threaded_sum.stream_ok);
  EXPECT_EQ(threaded_sum.stream_error, "outage: read failed");
  EXPECT_EQ(threaded_sum.edges, kGood);
  EXPECT_EQ(threaded_sum.edges, inline_sum.edges);
  EXPECT_EQ(threaded_sum.segments, inline_sum.segments);
  ASSERT_EQ(want.size(), 3u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const CoverageSnapshot& g = *got[i];
    const CoverageSnapshot& w = *want[i];
    EXPECT_EQ(g.meta().epoch, w.meta().epoch);
    EXPECT_EQ(g.meta().edges_ingested, w.meta().edges_ingested)
        << "epoch " << i + 1;
    EXPECT_DOUBLE_EQ(g.solution().estimate, w.solution().estimate)
        << "epoch " << i + 1;
    EXPECT_EQ(g.solution().source, w.solution().source) << "epoch " << i + 1;
    EXPECT_EQ(g.solution().sets, w.solution().sets) << "epoch " << i + 1;
    for (SetId s = 0; s < 16; ++s) {
      EXPECT_DOUBLE_EQ(g.SetCoverage(s), w.SetCoverage(s))
          << "epoch " << i + 1 << " set " << s;
    }
  }
}

TEST(ServingRuntime, TrailingPartialSegmentStillPublishes) {
  const std::vector<Edge> edges = TestEdges();
  // A cadence that does NOT divide the stream: the final snapshot must
  // still cover every edge.
  const uint64_t kCadence = 1000;
  ASSERT_NE(edges.size() % kCadence, 0u);
  MetricsRegistry registry;
  SnapshotStore store("rt2", &registry);
  ServingRuntimeOptions opts;
  opts.snapshot_every_edges = kCadence;
  opts.registry = &registry;
  ServingRuntime runtime(TestConfig(), opts, &store);
  VectorEdgeStream stream(edges);
  IngestSummary sum = runtime.Ingest(stream);
  auto last = store.Current();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->meta().edges_ingested, edges.size());
  EXPECT_EQ(last->meta().epoch, (edges.size() + kCadence - 1) / kCadence);
  EXPECT_EQ(sum.snapshots_published, last->meta().epoch);
}

// Fails its first `failures` reads with a transient error, then serves
// `edges`: a source that recovers after a long outage.
class FlakyEdgeStream : public EdgeStream {
 public:
  FlakyEdgeStream(std::vector<Edge> edges, uint32_t failures)
      : inner_(std::move(edges)), failures_left_(failures) {}

  bool Next(Edge* edge) override {
    return !FailThisRead() && inner_.Next(edge);
  }
  size_t NextBatch(std::vector<Edge>* out, size_t max_edges) override {
    if (FailThisRead()) {
      out->clear();
      return 0;
    }
    return inner_.NextBatch(out, max_edges);
  }
  void Reset() override { inner_.Reset(); }
  bool ok() const override { return !failing_; }
  bool transient() const override { return failing_; }
  std::string StatusMessage() const override {
    return failing_ ? "flaky source: read failed" : std::string();
  }

 private:
  bool FailThisRead() {
    failing_ = failures_left_ > 0;
    if (failing_) --failures_left_;
    return failing_;
  }

  VectorEdgeStream inner_;
  uint32_t failures_left_;
  bool failing_ = false;
};

TEST(ServingRuntime, InlineRetryBackoffSaturatesAtTheCap) {
  // 40 consecutive transient failures: the inline retry loop's backoff must
  // saturate at max_backoff_ns (1000 + 39 × 2000 ns of sleep in all). Doubled
  // without the cap, the 40 sleeps would add up to about 13 days.
  const std::vector<Edge> edges = TestEdges();
  MetricsRegistry registry;
  SnapshotStore store("rt5", &registry);
  ServingRuntimeOptions opts;
  opts.snapshot_every_edges = 1024;
  opts.registry = &registry;
  opts.degradation.initial_backoff_ns = 1000;
  opts.degradation.max_backoff_ns = 2000;
  opts.degradation.max_stream_retries = 40;
  ServingRuntime runtime(TestConfig(), opts, &store);
  FlakyEdgeStream stream(edges, /*failures=*/40);
  const auto start = std::chrono::steady_clock::now();
  IngestSummary sum = runtime.Ingest(stream);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_TRUE(sum.stream_ok);
  EXPECT_EQ(sum.edges, edges.size());
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->meta().edges_ingested, edges.size());
  // Inline retries are recorded like the pipeline's, sleep by sleep.
  const Histogram* backoff = registry.GetHistogram("runtime_retry_backoff_ns");
  EXPECT_EQ(backoff->Count(), 40u);
  EXPECT_EQ(backoff->Sum(), 1000u + 39u * 2000u);
}

TEST(ServingRuntime, InlineFirstBackoffHonorsTheCap) {
  // initial_backoff_ns above the cap: the first sleep is clamped to
  // max_backoff_ns like every later one. Unclamped, it alone takes 2 s.
  const std::vector<Edge> edges = TestEdges();
  MetricsRegistry registry;
  SnapshotStore store("rt6", &registry);
  ServingRuntimeOptions opts;
  opts.snapshot_every_edges = 1024;
  opts.registry = &registry;
  opts.degradation.initial_backoff_ns = 2'000'000'000;
  opts.degradation.max_backoff_ns = 2000;
  ServingRuntime runtime(TestConfig(), opts, &store);
  FlakyEdgeStream stream(edges, /*failures=*/3);
  const auto start = std::chrono::steady_clock::now();
  IngestSummary sum = runtime.Ingest(stream);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_TRUE(sum.stream_ok);
  EXPECT_EQ(sum.edges, edges.size());
  const Histogram* backoff = registry.GetHistogram("runtime_retry_backoff_ns");
  EXPECT_EQ(backoff->Count(), 3u);
  EXPECT_EQ(backoff->Sum(), 3u * 2000u);
}

TEST(ServingRuntime, TransientOutageInsideASegmentChangesNoEpoch) {
  // Three consecutive reads fail at edge 1500, inside the second segment.
  // Retried, the outage moves no segment boundary: inline and threaded,
  // every snapshot equals the clean inline run's.
  const std::vector<Edge> edges = TestEdges();
  const uint64_t kCadence = 1024, kAt = 1500;
  ASSERT_GT(edges.size(), kAt);
  auto serve = [&](uint32_t threads, EdgeStream& stream) {
    MetricsRegistry registry;
    SnapshotStore store("rt8", &registry);
    ServingRuntimeOptions opts;
    opts.snapshot_every_edges = kCadence;
    opts.threads = threads;
    opts.registry = &registry;
    opts.degradation.initial_backoff_ns = 1000;
    std::vector<std::shared_ptr<const CoverageSnapshot>> snaps;
    opts.on_publish = [&](const std::shared_ptr<const CoverageSnapshot>& s) {
      snaps.push_back(s);
    };
    ServingRuntime runtime(TestConfig(), opts, &store);
    IngestSummary sum = runtime.Ingest(stream);
    EXPECT_TRUE(sum.stream_ok) << "threads " << threads;
    EXPECT_EQ(sum.edges, edges.size()) << "threads " << threads;
    return snaps;
  };
  VectorEdgeStream clean(edges);
  const auto want = serve(0, clean);
  for (uint32_t threads : {0u, 3u}) {
    ScriptedFaultStream flaky(edges, {kAt, kAt + 1, kAt + 2});
    const auto got = serve(threads, flaky);
    ASSERT_EQ(got.size(), want.size()) << "threads " << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      const CoverageSnapshot& g = *got[i];
      const CoverageSnapshot& w = *want[i];
      EXPECT_EQ(g.meta().epoch, w.meta().epoch) << "threads " << threads;
      EXPECT_EQ(g.meta().edges_ingested, w.meta().edges_ingested)
          << "threads " << threads << " epoch " << i + 1;
      EXPECT_DOUBLE_EQ(g.solution().estimate, w.solution().estimate)
          << "threads " << threads << " epoch " << i + 1;
      EXPECT_EQ(g.solution().source, w.solution().source)
          << "threads " << threads << " epoch " << i + 1;
      EXPECT_EQ(g.solution().sets, w.solution().sets)
          << "threads " << threads << " epoch " << i + 1;
      for (SetId s = 0; s < 16; ++s) {
        EXPECT_DOUBLE_EQ(g.SetCoverage(s), w.SetCoverage(s))
            << "threads " << threads << " epoch " << i + 1 << " set " << s;
      }
    }
  }
}

TEST(ServingRuntime, IngestMetricsAreConsistent) {
  const std::vector<Edge> edges = TestEdges();
  MetricsRegistry registry;
  SnapshotStore store("rt4", &registry);
  ServingRuntimeOptions opts;
  opts.snapshot_every_edges = 500;
  opts.registry = &registry;
  ServingRuntime runtime(TestConfig(), opts, &store);
  VectorEdgeStream stream(edges);
  IngestSummary sum = runtime.Ingest(stream);

  EXPECT_EQ(registry.GetCounter("serve_ingest_edges_total")->Value(),
            edges.size());
  EXPECT_EQ(registry.GetCounter("serve_ingest_segments_total")->Value(),
            sum.segments);
  EXPECT_EQ(registry
                .GetCounter(LabeledName("serve_snapshots_published_total",
                                        "store", "rt4"))
                ->Value(),
            sum.snapshots_published);
  EXPECT_EQ(store.epoch(), sum.snapshots_published);
  const Histogram* publish = registry.GetHistogram("serve_publish_ns");
  const Histogram* finalize =
      registry.GetHistogram("serve_publish_finalize_ns");
  const Histogram* build = registry.GetHistogram("serve_publish_build_ns");
  EXPECT_EQ(publish->Count(), sum.snapshots_published);
  // Finalize and snapshot build are timed once per publish, as disjoint
  // parts of it.
  EXPECT_EQ(finalize->Count(), sum.snapshots_published);
  EXPECT_EQ(build->Count(), sum.snapshots_published);
  EXPECT_GT(finalize->Sum(), 0u);
  EXPECT_GT(build->Sum(), 0u);
  EXPECT_LE(finalize->Sum() + build->Sum(), publish->Sum());
}

}  // namespace
}  // namespace streamkc
