// Drives the serving stack over one workload stream.
//
// RunTrial is the untraced, end-to-end measurement: it sets up a
// SnapshotStore and a ServingRuntime (and readers), then calls
// ServingRuntime::Ingest exactly as a server would. RunTracedTrial replays
// the same ingest loop from the benchmark's own code, inline or through one
// ShardedPipeline per segment as IngestSharded does, so that spans can be
// recorded around every call into a layer; the shadow stack is fed the same
// batches. ReferencePass is the answer check's inline ServingState pass.

#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "readers.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using SnapshotPtr = std::shared_ptr<const streamkc::CoverageSnapshot>;

// Published snapshots kept for the answer check, by epoch.
using CheckedSnapshots = std::map<uint64_t, SnapshotPtr>;

// The epochs the answer check compares: first, middle and last.
std::vector<uint64_t> CheckEpochs(uint64_t edges, uint64_t cadence);

struct TrialResult {
  double setup_s = 0;
  double ingest_s = 0;  // Ingest() wall time
  uint64_t edges = 0;
  std::vector<double> publish_lag_ns;
  ReaderStats readers;
  CheckedSnapshots checked;
  size_t state_bytes = 0;
};

TrialResult RunTrial(const WorkloadSpec& spec,
                     const std::vector<streamkc::Edge>& edges,
                     const std::vector<uint64_t>& check_epochs);

// Set-up only: store, runtime and readers, torn down again. Seconds.
double MeasureSetup(const WorkloadSpec& spec, uint64_t edges);

struct RuntimeSegmentStats {
  uint64_t setup_ns = 0;    // replica construction (the factory calls)
  uint64_t run_ns = 0;      // ShardedPipeline::Run
  uint64_t merge_ns = 0;    // the pipeline's own replica merge
  uint64_t wall_ns = 0;     // the pipeline's run wall time
  uint64_t busy_ns = 0;     // Σ shards' time inside ProcessBatch
  uint64_t stalled_ns = 0;  // producer blocked on full rings
  uint32_t shards = 0;
  double skew = 0;          // max / mean edges per shard
};

struct TracedResult {
  uint64_t edges = 0;
  uint64_t wall_ns = 0;
  // Ingest-thread time spent on the shadow, probes and the extra finalize:
  // subtracted from wall_ns for the traced ingest rate.
  uint64_t offpath_ns = 0;
  uint64_t serve_ingest_ns = 0;  // Σ real ProcessBatch time
  std::vector<RuntimeSegmentStats> segments;
  ReaderStats readers;
  CheckedSnapshots checked;
  uint64_t snapshot_bytes = 0;
  uint32_t levels_passing = 0;
  uint64_t shadow_mismatches = 0;
  std::vector<std::pair<uint32_t, size_t>> large_set_bytes;  // (j, bytes)
  std::vector<std::pair<uint32_t, size_t>> small_set_bytes;
  std::vector<std::string> mirror_spans;
};

TracedResult RunTracedTrial(const WorkloadSpec& spec,
                            const std::vector<streamkc::Edge>& edges,
                            const std::vector<uint64_t>& check_epochs,
                            Tracer* tracer);

// Fresh inline ServingState over the same edges; a snapshot per check epoch.
CheckedSnapshots ReferencePass(const WorkloadSpec& spec,
                               const std::vector<streamkc::Edge>& edges,
                               const std::vector<uint64_t>& check_epochs);

// The served answers must agree: estimate, source, selected sets and a
// fixed set of SetCoverage probes. Appends what differs to `why`.
bool AnswersMatch(const streamkc::CoverageSnapshot& got,
                  const streamkc::CoverageSnapshot& want, uint64_t num_sets,
                  std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
