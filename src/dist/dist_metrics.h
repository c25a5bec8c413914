// Observability for the multi-process reduction tree.
//
// DistMetrics is the coordinator-side ledger: one row per worker (the
// counters the worker shipped inside its final frame, plus what only the
// coordinator can observe — bytes received, respawns, CRC rejections,
// quarantine verdicts) and run-level totals for the merge fold. Unlike
// RuntimeMetrics there are no atomics: the coordinator is single-threaded,
// and worker-side counters cross the process boundary by serialization
// (see worker_counters.h), not by shared memory.
//
// ToJson() renders the "dist" section of the CLI metrics dump (the
// ComposeMetricsJson extra-section hook, like serve's "serving" section);
// PublishTo() mirrors the totals and per-worker rows into a
// MetricsRegistry as dist_* gauges for the Prometheus exposition.

#ifndef STREAMKC_DIST_DIST_METRICS_H_
#define STREAMKC_DIST_DIST_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dist/worker_counters.h"
#include "obs/metrics.h"

namespace streamkc {

struct DistWorkerRow {
  uint32_t worker = 0;
  WorkerCounters counters;       // from the final frame (zero if none landed)
  uint32_t segments_assigned = 0;
  uint64_t bytes_shipped = 0;    // frame bytes the coordinator received
  uint32_t respawns = 0;         // successful respawn cycles consumed
  uint32_t crc_rejections = 0;   // frames rejected by the decoder
  bool quarantined = false;      // excluded from the merge
  bool fingerprint_corrupted = false;  // lost the majority vote
};

struct MergeStats {
  uint64_t merges = 0;    // pairwise Merge() calls
  uint64_t merge_ns = 0;  // wall time inside Merge() calls
};

struct DistMetrics {
  uint32_t num_workers = 0;
  uint32_t num_segments = 0;
  uint64_t frames_received = 0;  // valid final frames decoded
  uint64_t wall_ns = 0;
  uint64_t poll_wakeups = 0;     // coordinator poll(2) returns
  MergeStats merge;
  std::vector<DistWorkerRow> workers;

  // Sums over worker rows (quarantined rows carry zero counters: their
  // partial work died with the process and is not in the merged result).
  uint64_t TotalEdgesIngested() const;
  uint64_t TotalEdgesProcessed() const;
  uint64_t TotalEdgesDiscarded() const;
  uint64_t TotalStreamRetries() const;
  uint64_t TotalBytesShipped() const;
  uint64_t TotalCheckpointsWritten() const;
  uint64_t TotalCheckpointsLoaded() const;
  uint64_t TotalCheckpointsRejected() const;
  uint32_t TotalRespawns() const;
  uint32_t TotalCrcRejections() const;
  uint32_t WorkersQuarantined() const;
  uint32_t FingerprintCorruptions() const;

  double EdgesPerSecond() const {
    return wall_ns > 0 ? static_cast<double>(TotalEdgesProcessed()) /
                             (static_cast<double>(wall_ns) / 1e9)
                       : 0.0;
  }

  std::string ToJson() const;
  void PublishTo(MetricsRegistry* registry) const;
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_DIST_METRICS_H_
