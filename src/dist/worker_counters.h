// Per-worker ingest counters shipped across the process boundary.
//
// The in-process pipeline's counters (SpscRing stall accounting, the
// DegradationPolicy retry totals in RuntimeMetrics) are plain atomics in
// the worker's address space — invisible to a coordinator in another
// process. Workers therefore serialize this block into every checkpoint
// and into the final frame payload, so the coordinator's metrics dump can
// state the cross-process conservation invariant (edges ingested ==
// processed + discarded, summed over workers) and validate_metrics.py can
// check it.
//
// Counter semantics under respawn: a checkpoint snapshots the counters for
// the committed segment prefix only, and a respawned worker resumes from
// that snapshot and re-counts everything it re-ingests. Work done by a dead
// incarnation past its last checkpoint dies with it — exactly like the
// sketch state — so the final counters always describe the edges that are
// actually in the merged result, never double-counting a replayed segment.

#ifndef STREAMKC_DIST_WORKER_COUNTERS_H_
#define STREAMKC_DIST_WORKER_COUNTERS_H_

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/serialize.h"

namespace streamkc {

struct WorkerCounters {
  uint64_t edges_ingested = 0;   // edges pulled from the segment streams
  uint64_t edges_processed = 0;  // edges folded into the local state
  uint64_t edges_discarded = 0;  // ingested but dropped (truncated segment)
  uint64_t batches = 0;          // ProcessBatch hand-offs
  uint64_t stream_retries = 0;   // transient read errors retried (bounded)
  uint64_t truncated_segments = 0;  // segments cut short by retry exhaustion
  uint64_t segments_done = 0;       // fully ingested (committed) segments
  uint64_t checkpoints_written = 0;
  uint64_t checkpoints_loaded = 0;
  uint64_t checkpoints_rejected = 0;  // torn/foreign blobs discarded on load

  // Exact Save() footprint; the checkpoint Try-decoder validates body
  // lengths against this before handing the bytes to Load. A change to
  // the block bumps the checkpoint version (dist/checkpoint.cc).
  static constexpr size_t kSerializedBytes = 10 * sizeof(uint64_t);

  void Save(std::ostream& os) const {
    WriteU64(os, edges_ingested);
    WriteU64(os, edges_processed);
    WriteU64(os, edges_discarded);
    WriteU64(os, batches);
    WriteU64(os, stream_retries);
    WriteU64(os, truncated_segments);
    WriteU64(os, segments_done);
    WriteU64(os, checkpoints_written);
    WriteU64(os, checkpoints_loaded);
    WriteU64(os, checkpoints_rejected);
  }

  static WorkerCounters Load(std::istream& is) {
    WorkerCounters c;
    c.edges_ingested = ReadU64(is);
    c.edges_processed = ReadU64(is);
    c.edges_discarded = ReadU64(is);
    c.batches = ReadU64(is);
    c.stream_retries = ReadU64(is);
    c.truncated_segments = ReadU64(is);
    c.segments_done = ReadU64(is);
    c.checkpoints_written = ReadU64(is);
    c.checkpoints_loaded = ReadU64(is);
    c.checkpoints_rejected = ReadU64(is);
    return c;
  }
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_WORKER_COUNTERS_H_
