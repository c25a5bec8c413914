#include "serve/serving_runtime.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "runtime/edge_batch.h"
#include "runtime/feed_stream.h"
#include "runtime/runtime_metrics.h"
#include "runtime/sharded_pipeline.h"
#include "util/check.h"

namespace streamkc {

namespace {

uint64_t NowSteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServingRuntime::ServingRuntime(const ServingState::Config& state_config,
                               const ServingRuntimeOptions& options,
                               SnapshotStore* store)
    : state_config_(state_config),
      options_(options),
      store_(store),
      state_(state_config) {
  CHECK(store != nullptr);
  CHECK_GE(options_.snapshot_every_edges, 1u);
  CHECK_GE(options_.batch_size, 1u);
  MetricsRegistry* reg =
      options_.registry ? options_.registry : &MetricsRegistry::Global();
  edges_ingested_ = reg->GetCounter("serve_ingest_edges_total");
  segments_total_ = reg->GetCounter("serve_ingest_segments_total");
  publish_ns_ = reg->GetHistogram("serve_publish_ns");
  publish_finalize_ns_ = reg->GetHistogram("serve_publish_finalize_ns");
  publish_build_ns_ = reg->GetHistogram("serve_publish_build_ns");
  publish_wait_ns_ = reg->GetHistogram("serve_publish_wait_ns");
  retry_backoff_ns_ = reg->GetHistogram("runtime_retry_backoff_ns");
  guesses_retired_ = reg->GetGauge("serve_guesses_retired");
  answers_inexact_ = reg->GetCounter("serve_answers_inexact_total");
}

void ServingRuntime::PublishSnapshot(const IngestSummary& progress) {
  uint64_t t0 = NowSteadyNs();
  SnapshotMeta meta;
  meta.epoch = ++epoch_;
  meta.edges_ingested = progress.edges;
  meta.batches_ingested = progress.segments;
  meta.quarantined_fraction = progress.quarantined_fraction;
  meta.shards = options_.threads;
  meta.publish_steady_ns = t0;
  const MaxCoverSolution solution = state_.FinalizeSolution();
  const uint64_t t1 = NowSteadyNs();
  const EstimateMaxCover& estimator = state_.estimator();
  guesses_retired_->Set(estimator.num_retired());
  if (!estimator.AnswerExact(solution.estimate)) answers_inexact_->Increment();
  std::shared_ptr<const CoverageSnapshot> snap =
      CoverageSnapshot::Build(state_, solution, meta);
  const uint64_t t2 = NowSteadyNs();
  store_->Publish(snap);
  publish_finalize_ns_->Observe(t1 - t0);
  publish_build_ns_->Observe(t2 - t1);
  publish_ns_->Observe(NowSteadyNs() - t0);
  if (options_.on_publish) options_.on_publish(snap);
}

IngestSummary ServingRuntime::Ingest(EdgeStream& stream) {
  const uint64_t t0 = NowSteadyNs();
  IngestSummary summary;
  // Sharded only: segment e's publish (its merge into the cumulative state,
  // finalize and snapshot) runs on this thread while segment e+1 ingests.
  // At most one is in flight: it is joined before the next hand-off, before
  // returning, and before a pipeline exits the process.
  std::jthread publisher;
  ShardedPipelineOptions popts;
  popts.num_shards = options_.threads;
  popts.batch_size = options_.batch_size;
  popts.policy = options_.policy;
  popts.registry = options_.registry;
  popts.fault_injector = options_.fault_injector;
  popts.degradation = options_.degradation;
  popts.before_exit = [&publisher] {
    if (publisher.joinable()) publisher.join();
  };
  const ServingState::Config config = state_config_;
  ShardedPipeline<ServingState>::Factory factory =
      [config](uint32_t) { return ServingState(config); };

  // One segment per snapshot: the bounded view ends every segment exactly
  // on the cadence, which the epoch-E differential guarantee depends on.
  BoundedEdgeStream bounded(&stream, options_.snapshot_every_edges);
  EdgeBatch batch(options_.batch_size);
  uint32_t shard_runs_total = 0;
  for (;;) {
    bounded.Rearm();
    uint64_t got = 0;
    // Inline, the segment's batches go straight into the cumulative state;
    // sharded, one pipeline run (with its own readers, quarantine and
    // fingerprint vote) folds the segment into its own state.
    std::optional<ServingState> segment;
    if (options_.threads == 0) {
      got = FeedStream(bounded, state_, batch, options_.batch_size,
                       options_.degradation, retry_backoff_ns_)
                .edges;
    } else {
      ShardedPipeline<ServingState> pipeline(popts, factory);
      segment.emplace(pipeline.Run(bounded));
      const RuntimeMetrics& rm = pipeline.metrics();
      got = rm.edges_ingested.load(std::memory_order_relaxed);
      // Only segments that saw edges count toward the quarantine fraction —
      // an empty trailing run has no substreams to lose.
      if (got > 0) {
        shard_runs_total += options_.threads;
        summary.shard_runs_quarantined += static_cast<uint32_t>(
            rm.shards_quarantined.load(std::memory_order_relaxed));
        summary.quarantined_fraction =
            static_cast<double>(summary.shard_runs_quarantined) /
            static_cast<double>(shard_runs_total);
      }
    }
    if (got == 0) break;  // end of stream, or an unrecoverable error
    edges_ingested_->Increment(got);
    summary.edges += got;
    ++summary.segments;
    segments_total_->Increment();
    ++summary.snapshots_published;
    if (!segment) {
      PublishSnapshot(summary);
    } else {
      const uint64_t wait_start = NowSteadyNs();
      if (publisher.joinable()) publisher.join();
      publish_wait_ns_->Observe(NowSteadyNs() - wait_start);
      publisher = std::jthread(
          [this, segment = std::move(*segment), progress = summary] {
            state_.Merge(segment);
            PublishSnapshot(progress);
          });
    }
    // A truncated segment still published, so the last snapshot covers
    // every edge read; the error surfaces through the summary.
    if (!stream.ok()) break;
  }
  if (publisher.joinable()) publisher.join();
  summary.ingest_ns = NowSteadyNs() - t0;
  summary.stream_ok = stream.ok();
  if (!summary.stream_ok) summary.stream_error = stream.StatusMessage();
  return summary;
}

}  // namespace streamkc
