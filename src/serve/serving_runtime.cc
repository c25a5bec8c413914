#include "serve/serving_runtime.h"

#include <chrono>
#include <optional>

#include "core/level_executor.h"
#include "runtime/edge_batch.h"
#include "runtime/feed_stream.h"
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
    : options_(options), store_(store), state_(state_config) {
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
  // threads >= 2: this call's helpers, attached to the state until it
  // returns.
  std::optional<LevelExecutor> executor;
  if (options_.threads >= 2) {
    executor.emplace(options_.threads);
    state_.AttachExecutor(&*executor);
  }
  // One segment per snapshot: the bounded view ends every segment exactly
  // on the cadence, which the epoch-E differential guarantee depends on.
  BoundedEdgeStream bounded(&stream, options_.snapshot_every_edges);
  EdgeBatch batch(options_.batch_size);
  for (;;) {
    bounded.Rearm();
    const uint64_t got = FeedStream(bounded, state_, batch,
                                    options_.batch_size, options_.degradation,
                                    retry_backoff_ns_)
                             .edges;
    if (got == 0) break;  // end of stream, or an unrecoverable error
    edges_ingested_->Increment(got);
    summary.edges += got;
    ++summary.segments;
    segments_total_->Increment();
    ++summary.snapshots_published;
    PublishSnapshot(summary);
    // A truncated segment still published, so the last snapshot covers
    // every edge read; the error surfaces through the summary.
    if (!stream.ok()) break;
  }
  state_.AttachExecutor(nullptr);
  summary.ingest_ns = NowSteadyNs() - t0;
  summary.stream_ok = stream.ok();
  if (!summary.stream_ok) summary.stream_error = stream.StatusMessage();
  return summary;
}

}  // namespace streamkc
