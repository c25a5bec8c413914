// ServingRuntime: long-running ingest that publishes queryable snapshots.
//
// The one-shot drivers (CLI estimate/report, bench passes) drain a stream
// and finalize once. A serving instance instead folds the stream in
// SEGMENTS of `snapshot_every_edges` edges and publishes an immutable
// CoverageSnapshot into a SnapshotStore at every segment boundary, so
// reader threads can answer queries the whole time the stream is still
// arriving. One segment loop serves both ingest modes: each pass reads a
// bounded view of the stream (BoundedEdgeStream) that ends exactly on the
// cadence, and forks only on how that segment is ingested and where it is
// published:
//
//   * inline (threads == 0): the calling thread feeds the segment straight
//     into the cumulative ServingState through FeedStream
//     (runtime/feed_stream.h), reusing one EdgeBatch across segments, and
//     publishes in place — the single-core path;
//   * sharded (threads >= 1): the segment is one ShardedPipeline run over
//     the view; its merged state is handed to a publisher thread, which
//     folds it into the cumulative state with Merge() and publishes while
//     the next segment's pipeline ingests. Replaying the pipeline per
//     segment reuses its entire degradation machinery (retry/backoff,
//     worker-death quarantine, fingerprint votes) unchanged, and the
//     quarantined fraction accumulates into every later snapshot's
//     staleness metadata.
//
// Segment, edge and epoch accounting happen once, after the fork. Either
// way transient read errors are retried under options.degradation, and
// every backoff sleep is recorded in runtime_retry_backoff_ns.
//
// Both modes produce the same cumulative state as one uninterrupted pass on
// the same seeds (segment merges are exact for every streamkc estimator),
// which is what makes the serving answers differentially testable: the
// snapshot at epoch E equals finalizing an inline pass over the first
// E * snapshot_every_edges edges (tests/serve_runtime_test.cc).
//
// Threading contract: Ingest() blocks and must run on ONE thread; queries
// go through SnapshotStore/QueryEngine from any other threads concurrently.
// In sharded mode Ingest() also runs the publisher thread, with at most one
// publish in flight: each hand-off joins the previous publish first (that
// wait is serve_publish_wait_ns), and Ingest() joins the last one before it
// returns. Merges therefore run in segment order, epochs count up with no
// gaps, and publishes never overlap. The cost is memory for one more
// segment state while its publish is in flight. A pipeline that exits the
// process (strict mode, or every shard quarantined) first joins the
// in-flight publish through ShardedPipelineOptions::before_exit, so process
// teardown never races the publisher.

#ifndef STREAMKC_SERVE_SERVING_RUNTIME_H_
#define STREAMKC_SERVE_SERVING_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "runtime/degradation.h"
#include "runtime/shard_router.h"
#include "serve/serving_state.h"
#include "serve/snapshot_store.h"
#include "stream/edge_stream.h"

namespace streamkc {

// A bounded forward view over another stream: yields at most `limit` edges,
// then reports a clean end of stream; Rearm() starts the next segment.
// Errors and transient-ness pass through untouched, so the pipeline's
// retry/degradation policy behaves identically under the cap.
class BoundedEdgeStream : public EdgeStream {
 public:
  BoundedEdgeStream(EdgeStream* inner, uint64_t limit)
      : inner_(inner), remaining_(limit), limit_(limit) {}

  bool Next(Edge* edge) override {
    if (remaining_ == 0) return false;
    if (!inner_->Next(edge)) return false;
    --remaining_;
    return true;
  }

  size_t NextBatch(std::vector<Edge>* out, size_t max_edges) override {
    if (remaining_ == 0) {
      out->clear();
      return 0;
    }
    size_t cap = max_edges < remaining_ ? max_edges
                                        : static_cast<size_t>(remaining_);
    size_t got = inner_->NextBatch(out, cap);
    remaining_ -= got;
    return got;
  }

  // Resets the cap for the next segment (does NOT rewind the inner stream).
  void Rearm() { remaining_ = limit_; }
  uint64_t remaining() const { return remaining_; }

  void Reset() override { Rearm(); }
  bool ok() const override { return inner_->ok(); }
  bool transient() const override { return inner_->transient(); }
  std::string StatusMessage() const override {
    return inner_->StatusMessage();
  }

 private:
  EdgeStream* inner_;
  uint64_t remaining_;
  uint64_t limit_;
};

struct ServingRuntimeOptions {
  // Snapshot cadence: edges per ingest segment. Large values amortize the
  // publish cost (finalize + serialize) to noise; small values tighten
  // staleness. Must be >= 1.
  uint64_t snapshot_every_edges = 1 << 18;
  // 0 = inline single-threaded ingest; N >= 1 = N-shard pipeline segments.
  uint32_t threads = 0;
  size_t batch_size = 4096;
  PartitionPolicy policy = PartitionPolicy::kByElement;
  // nullptr = the process-wide registry.
  MetricsRegistry* registry = nullptr;
  // Fault injection for sharded segments (nullptr = none); inline mode has
  // no pipeline to inject into, so drivers must pair this with threads >= 1.
  const FaultInjector* fault_injector = nullptr;
  DegradationPolicy degradation;
  // Test/bench hook: called after every publish with the new snapshot. It
  // runs on the ingest thread inline and on the publisher thread sharded;
  // either way calls are one at a time, in epoch order, and all have
  // returned when Ingest() does.
  std::function<void(const std::shared_ptr<const CoverageSnapshot>&)>
      on_publish;
};

// What one Ingest() call reports back to its driver.
struct IngestSummary {
  uint64_t edges = 0;
  uint64_t segments = 0;
  uint64_t snapshots_published = 0;
  // Quarantined shard-runs / total shard-runs over all segments (0 inline).
  double quarantined_fraction = 0.0;
  uint32_t shard_runs_quarantined = 0;
  uint64_t ingest_ns = 0;
  bool stream_ok = true;
  std::string stream_error;
};

class ServingRuntime {
 public:
  ServingRuntime(const ServingState::Config& state_config,
                 const ServingRuntimeOptions& options, SnapshotStore* store);

  // Drains `stream`, publishing a snapshot after every segment and a final
  // one at end of stream (an end-of-stream segment shorter than the cadence
  // still publishes, so the last snapshot always covers the whole stream).
  IngestSummary Ingest(EdgeStream& stream);

  // The live cumulative state. Only meaningful to touch when no Ingest()
  // is running; snapshots, not this object, are the queryable surface.
  const ServingState& state() const { return state_; }

 private:
  // Publishes the cumulative state as the next epoch, stamped with
  // `progress` (edges, segments and quarantine so far).
  void PublishSnapshot(const IngestSummary& progress);

  ServingState::Config state_config_;
  ServingRuntimeOptions options_;
  SnapshotStore* store_;
  ServingState state_;
  uint64_t epoch_ = 0;

  Counter* edges_ingested_;
  Counter* segments_total_;
  // Whole publish, and its two timed parts: finalize, then serialize +
  // checksum + FromBlob round trip. The store swap is the remainder.
  Histogram* publish_ns_;
  Histogram* publish_finalize_ns_;
  Histogram* publish_build_ns_;
  // Sharded mode: how long each hand-off waited for the previous segment's
  // publish to finish (0 when it already had).
  Histogram* publish_wait_ns_;
  // Inline mode's retry sleeps; the pipeline records sharded mode's into
  // the same histogram.
  Histogram* retry_backoff_ns_;
  // Retired (guess, repetition) levels in the cumulative state at the last
  // publish, and the published answers below the largest retired guess
  // (the ones that may differ from the unretired estimator's).
  Gauge* guesses_retired_;
  Counter* answers_inexact_;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_SERVING_RUNTIME_H_
