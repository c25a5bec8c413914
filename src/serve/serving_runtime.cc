#include "serve/serving_runtime.h"

#include <chrono>
#include <thread>
#include <utility>

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
  uint64_t t0 = NowSteadyNs();
  IngestSummary summary = options_.threads == 0 ? IngestInline(stream)
                                                : IngestSharded(stream);
  summary.ingest_ns = NowSteadyNs() - t0;
  summary.stream_ok = stream.ok();
  if (!summary.stream_ok) summary.stream_error = stream.StatusMessage();
  return summary;
}

IngestSummary ServingRuntime::IngestInline(EdgeStream& stream) {
  IngestSummary summary;
  const DegradationPolicy& deg = options_.degradation;
  uint32_t retries_used = 0;
  uint64_t backoff_ns = deg.initial_backoff_ns;
  uint64_t segment_edges = 0;
  EdgeBatch batch(options_.batch_size);
  for (;;) {
    // Cap the read so a segment boundary always falls exactly on the
    // snapshot cadence — the epoch-E differential guarantee depends on it.
    uint64_t room = options_.snapshot_every_edges - segment_edges;
    size_t want = options_.batch_size < room
                      ? options_.batch_size
                      : static_cast<size_t>(room);
    size_t got = stream.NextBatch(&batch.edges, want);
    if (got > 0) {
      retries_used = 0;
      backoff_ns = deg.initial_backoff_ns;
      batch.Prefold();
      state_.ProcessBatch(batch.View());
      edges_ingested_->Increment(got);
      summary.edges += got;
      segment_edges += got;
      if (segment_edges >= options_.snapshot_every_edges) {
        segment_edges = 0;
        ++summary.segments;
        segments_total_->Increment();
        ++summary.snapshots_published;
        PublishSnapshot(summary);
      }
      continue;
    }
    if (!stream.ok() && stream.transient() &&
        retries_used < deg.max_stream_retries) {
      ++retries_used;
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
      backoff_ns = NextBackoffNs(backoff_ns, deg);
      continue;
    }
    break;  // clean end of stream, or an unrecoverable error
  }
  // A trailing partial segment still publishes, so the final snapshot
  // always covers the entire stream.
  if (segment_edges > 0) {
    ++summary.segments;
    segments_total_->Increment();
    ++summary.snapshots_published;
    PublishSnapshot(summary);
  }
  return summary;
}

IngestSummary ServingRuntime::IngestSharded(EdgeStream& stream) {
  IngestSummary summary;
  // Segment e's publish (its merge into the cumulative state, finalize and
  // snapshot) runs on this thread while segment e+1 ingests. At most one is
  // in flight: it is joined before the next hand-off, before returning, and
  // before a pipeline exits the process.
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

  BoundedEdgeStream bounded(&stream, options_.snapshot_every_edges);
  uint32_t shard_runs_total = 0;
  for (;;) {
    bounded.Rearm();
    // One segment = one full pipeline run over the bounded view: the
    // degradation machinery (retries, quarantine, fingerprint votes) is
    // reused unchanged at every snapshot boundary.
    ShardedPipeline<ServingState> pipeline(popts, factory);
    ServingState segment = pipeline.Run(bounded);
    const RuntimeMetrics& rm = pipeline.metrics();
    uint64_t got = rm.edges_ingested.load(std::memory_order_relaxed);
    if (got == 0) break;  // end of stream or unrecoverable error
    // Only segments that saw edges count toward the quarantine fraction —
    // an empty trailing run has no substreams to lose.
    shard_runs_total += options_.threads;
    summary.shard_runs_quarantined += static_cast<uint32_t>(
        rm.shards_quarantined.load(std::memory_order_relaxed));
    summary.quarantined_fraction =
        static_cast<double>(summary.shard_runs_quarantined) /
        static_cast<double>(shard_runs_total);
    edges_ingested_->Increment(got);
    summary.edges += got;
    ++summary.segments;
    segments_total_->Increment();
    const uint64_t wait_start = NowSteadyNs();
    if (publisher.joinable()) publisher.join();
    publish_wait_ns_->Observe(NowSteadyNs() - wait_start);
    ++summary.snapshots_published;
    publisher = std::jthread(
        [this, segment = std::move(segment), progress = summary] {
          state_.Merge(segment);
          PublishSnapshot(progress);
        });
    if (!stream.ok()) break;  // truncated segment: error already surfaced
  }
  if (publisher.joinable()) publisher.join();
  return summary;
}

}  // namespace streamkc
