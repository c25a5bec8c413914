// ServingRuntime: long-running ingest that publishes queryable snapshots.
//
// The one-shot drivers (CLI estimate/report, bench passes) drain a stream
// and finalize once. A serving instance instead folds the stream in
// SEGMENTS of `snapshot_every_edges` edges and publishes an immutable
// CoverageSnapshot into a SnapshotStore at every segment boundary, so
// reader threads can answer queries the whole time the stream is still
// arriving. Each segment is a bounded view of the stream
// (BoundedEdgeStream) that ends exactly on the cadence; the calling thread
// feeds it into the one cumulative ServingState through FeedStream
// (runtime/feed_stream.h), reusing one EdgeBatch across segments, and
// publishes in place. Transient read errors are retried under
// options.degradation, and every backoff sleep is recorded in
// runtime_retry_backoff_ns; a stream that spends its retry budget ends the
// ingest after publishing what it read (IngestSummary::stream_ok).
//
// Threads (threads >= 2): the estimator's (guess, repetition) levels are
// independent, so Ingest() runs them on `threads` threads, the calling
// thread plus threads - 1 helpers of a LevelExecutor (core/
// level_executor.h): every slice of every batch goes to all live levels at
// once, one thread per level, and each publish finalizes them there too.
// Every level still reads every edge in stream order, so the state is the
// inline state, and the snapshot at epoch E equals finalizing an inline
// pass over the first E * snapshot_every_edges edges, at every thread
// count (tests/serve_runtime_test.cc). threads <= 1 is the inline path: no
// executor, no helper.
//
// Threading contract: Ingest() blocks and must run on ONE thread; queries
// go through SnapshotStore/QueryEngine from any other threads concurrently.
// The helpers start inside Ingest() and are joined before it returns; they
// never touch the store. Publishes run on the calling thread, one at a
// time, in epoch order.

#ifndef STREAMKC_SERVE_SERVING_RUNTIME_H_
#define STREAMKC_SERVE_SERVING_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "runtime/degradation.h"
#include "serve/serving_state.h"
#include "serve/snapshot_store.h"
#include "stream/edge_stream.h"

namespace streamkc {

// A bounded forward view over another stream: yields at most `limit` edges,
// then reports a clean end of stream; Rearm() starts the next segment.
// Errors and transient-ness pass through untouched, so the reader's
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
  // Ingest threads: 0 or 1 = inline; N >= 2 = the calling thread plus
  // N - 1 helpers run the estimator's levels.
  uint32_t threads = 0;
  size_t batch_size = 4096;
  // nullptr = the process-wide registry.
  MetricsRegistry* registry = nullptr;
  DegradationPolicy degradation;
  // Test/bench hook: called after every publish with the new snapshot, on
  // the thread that runs Ingest(), one call at a time, in epoch order.
  std::function<void(const std::shared_ptr<const CoverageSnapshot>&)>
      on_publish;
};

// What one Ingest() call reports back to its driver.
struct IngestSummary {
  uint64_t edges = 0;
  uint64_t segments = 0;
  uint64_t snapshots_published = 0;
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
  // `progress` (edges and segments so far).
  void PublishSnapshot(const IngestSummary& progress);

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
  // Retry sleeps of the stream reader.
  Histogram* retry_backoff_ns_;
  // Retired (guess, repetition) levels in the cumulative state at the last
  // publish, and the published answers below the largest retired guess
  // (the ones that may differ from the unretired estimator's).
  Gauge* guesses_retired_;
  Counter* answers_inexact_;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_SERVING_RUNTIME_H_
