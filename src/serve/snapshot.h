// CoverageSnapshot: an immutable, self-contained view of a serving
// instance's state at one publish boundary.
//
// Consistency model: a snapshot is built on the ingest thread at a segment
// boundary (after a whole ingest segment has been processed), so it never
// exposes a partial segment. It shares NO storage with the live
// estimator: the query sketch travels through a serialized blob (the
// existing CountSketch Save/Load format) and is restored from those bytes,
// and the max-cover answers are finalized once at build time — the core
// estimators settle `mutable` buffers inside const Finalize(), so
// finalizing per query from many reader threads would race; precomputing
// makes every read a pure lookup.
//
// Integrity: the blob carries a (magic, version) header and an FNV-1a
// checksum over the payload. FromBlob CHECK-fails on any mismatch — a
// corrupt snapshot must never be served (tests/serve_snapshot_test.cc holds
// this with tampered-blob death tests, the sketch_serialize_test pattern).
// Build() itself round-trips through FromBlob, so the serialization path is
// exercised on every publish, not just in checkpoint tooling.

#ifndef STREAMKC_SERVE_SNAPSHOT_H_
#define STREAMKC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/report_max_cover.h"
#include "serve/serving_state.h"
#include "sketch/count_sketch.h"

namespace streamkc {

// Staleness metadata stamped on the snapshot at publish time and attached
// verbatim to every answer served from it.
struct SnapshotMeta {
  uint64_t epoch = 0;            // 1-based publish sequence number
  uint64_t edges_ingested = 0;   // edges the snapshot's state has seen
  uint64_t batches_ingested = 0; // ingest segments folded in
  // Ingest threads, as ServingRuntimeOptions::threads (0 = inline).
  uint32_t shards = 0;
  // steady_clock nanoseconds at publish; age = now - publish_steady_ns.
  uint64_t publish_steady_ns = 0;
};

class CoverageSnapshot {
 public:
  // Finalizes `state`'s answers, serializes the snapshot, and restores it
  // from its own blob. Runs on the publishing thread only.
  static std::shared_ptr<const CoverageSnapshot> Build(
      const ServingState& state, const SnapshotMeta& meta);
  // The same, with `solution` already finalized from `state` by the caller
  // (ServingRuntime times finalize and serialization separately).
  static std::shared_ptr<const CoverageSnapshot> Build(
      const ServingState& state, const MaxCoverSolution& solution,
      const SnapshotMeta& meta);

  // Restores a snapshot from serialized bytes. CHECK-fails on a bad magic,
  // version, checksum, or truncated payload — corruption is fatal, never
  // silently served.
  static std::shared_ptr<const CoverageSnapshot> FromBlob(
      const std::string& blob);

  const SnapshotMeta& meta() const { return meta_; }
  // Precomputed ReportMaxCover answer (estimate + source + witness sets).
  const MaxCoverSolution& solution() const { return solution_; }
  // Estimated incidence count of `set` (its coverage contribution). Const
  // and pure — safe from any number of reader threads concurrently.
  double SetCoverage(SetId set) const { return set_coverage_->PointQuery(set); }

  const std::string& blob() const { return blob_; }
  size_t MemoryBytes() const;

  // Snapshot age relative to `now_steady_ns` (0 if clocks ran backwards).
  uint64_t AgeNs(uint64_t now_steady_ns) const {
    return now_steady_ns > meta_.publish_steady_ns
               ? now_steady_ns - meta_.publish_steady_ns
               : 0;
  }

 private:
  CoverageSnapshot() = default;

  SnapshotMeta meta_;
  MaxCoverSolution solution_;
  std::unique_ptr<CountSketch> set_coverage_;
  std::string blob_;
};

// FNV-1a 64 over `bytes` — the snapshot payload checksum.
uint64_t SnapshotChecksum(const std::string& bytes);

}  // namespace streamkc

#endif  // STREAMKC_SERVE_SNAPSHOT_H_
