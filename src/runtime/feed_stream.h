// FeedStream, the one loop every driver fills a state through (DESIGN.md
// §10), and the State contracts of the parallel drivers. Only the
// ShardedPipeline producer keeps its own BatchReader loop, because it
// routes edges to shards instead of ingesting them.

#ifndef STREAMKC_RUNTIME_FEED_STREAM_H_
#define STREAMKC_RUNTIME_FEED_STREAM_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "core/two_pass.h"
#include "obs/metrics.h"
#include "obs/space_accountant.h"
#include "runtime/degradation.h"
#include "runtime/edge_batch.h"
#include "stream/edge_stream.h"

namespace streamkc {

// The ShardedPipeline State: it ingests prefolded batches, its same-seed
// replicas merge and vote on their merge fingerprint (§9), and it reports
// its space (§8).
template <typename S>
concept PipelineState =
    std::derived_from<S, SpaceMetered> && std::movable<S> &&
    requires(S& state, const S& replica, const PrefoldedEdges& batch) {
      state.ProcessBatch(batch);
      state.Merge(replica);
      { replica.MergeFingerprint() } -> std::convertible_to<uint64_t>;
    };

// The ProcessReductionTree State: a pipeline state that ships as bytes.
template <typename S>
concept SerializableState =
    PipelineState<S> &&
    requires(const S& state, std::ostream& os, std::istream& is) {
      state.Save(os);
      { S::Load(is) } -> std::same_as<S>;
    };

struct FeedCounts {
  uint64_t edges = 0;
  uint64_t batches = 0;
  uint64_t retries = 0;  // transient read errors retried
};

inline constexpr size_t kFeedBatchSize = 4096;

// Reads `stream` into `state` until it ends, fails or spends its retry
// budget under `policy` (the stream's ok() and transient() tell which), in
// batches of up to `batch_size` edges prefolded in the caller's `batch`.
// Before each batch is ingested, `before_batch` gets the counts so far.
template <typename State, typename Hook = void (*)(const FeedCounts&)>
FeedCounts FeedStream(EdgeStream& stream, State& state, EdgeBatch& batch,
                      size_t batch_size, const DegradationPolicy& policy,
                      Histogram* backoff_hist = nullptr,
                      Hook before_batch = [](const FeedCounts&) {}) {
  BatchReader reader(stream, policy, backoff_hist);
  FeedCounts counts;
  while (const size_t got = reader.Next(&batch.edges, batch_size)) {
    before_batch(counts);
    batch.Prefold();
    state.ProcessBatch(batch.View());
    counts.edges += got;
    ++counts.batches;
  }
  counts.retries = reader.retries();
  return counts;
}

// The rest of `stream` into `state` under the default policy.
template <typename State>
FeedCounts FeedStream(EdgeStream& stream, State& state) {
  EdgeBatch batch(kFeedBatchSize);
  return FeedStream(stream, state, batch, kFeedBatchSize, DegradationPolicy());
}

// Both passes of a TwoPassMaxCover over a resettable stream, each through
// FeedStream in `batch_size` batches.
inline EstimateOutcome RunTwoPass(EdgeStream& stream,
                                  const TwoPassMaxCover::Config& config,
                                  TwoPassMaxCover* out_instance = nullptr,
                                  size_t batch_size = kFeedBatchSize) {
  TwoPassMaxCover two_pass(config);
  EdgeBatch batch(batch_size);
  FeedStream(stream, two_pass, batch, batch_size, DegradationPolicy());
  two_pass.FinishFirstPass();
  stream.Reset();
  FeedStream(stream, two_pass, batch, batch_size, DegradationPolicy());
  EstimateOutcome out = two_pass.Finalize();
  if (out_instance != nullptr) *out_instance = std::move(two_pass);
  return out;
}

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_FEED_STREAM_H_
