// Ready-made pipeline states over the raw sketches.
//
// The core estimators (EstimateMaxCover, ReportMaxCover) already meet the
// ShardedPipeline State contract (PipelineState, runtime/feed_stream.h)
// directly. The raw sketches expose Add(id) rather than ProcessBatch; this
// header wraps the common bundles so benches, tests and ad-hoc callers can
// shard them without writing adapters.

#ifndef STREAMKC_RUNTIME_SKETCH_STATES_H_
#define STREAMKC_RUNTIME_SKETCH_STATES_H_

#include <cstdint>
#include <istream>
#include <ostream>

#include "obs/space_accountant.h"
#include "sketch/ams_f2.h"
#include "sketch/hyperloglog.h"
#include "sketch/l0_estimator.h"
#include "stream/edge.h"
#include "util/random.h"
#include "util/serialize.h"

namespace streamkc {

// The trivial-branch statistics bundle: distinct covered elements (KMV and
// HLL realizations of Theorem 2.12) plus the F2 of element frequencies —
// the per-edge work profile of the paper's Figure-1 first line, and the
// workload bench_runtime uses for thread-scaling curves.
struct CoverageSketchState : SpaceMetered {
  struct Config {
    uint32_t l0_num_mins = 256;
    uint32_t hll_precision = 12;
    uint32_t ams_rows = 5;
    uint32_t ams_cols = 16;
    uint64_t seed = 1;
  };

  explicit CoverageSketchState(const Config& config)
      : config_(config),
        covered_l0({.num_mins = config.l0_num_mins, .seed = config.seed}),
        covered_hll({.precision = config.hll_precision, .seed = config.seed}),
        element_f2({.rows = config.ams_rows,
                    .cols = config.ams_cols,
                    .seed = config.seed}) {}

  void Process(const Edge& edge) {
    covered_l0.Add(edge.element);
    covered_hll.Add(edge.element);
    element_f2.Add(edge.element);
  }

  // Batched ingest: KMV and AMS take the pre-folded ids through their block
  // entry points; HLL hashes the RAW ids (its tabulation hash has nothing to
  // do with the Mersenne field, so a folded id would be a different input).
  // The three sketches are independent, so component-at-a-time order is
  // bit-identical to the per-edge interleaving.
  void ProcessBatch(const PrefoldedEdges& batch) {
    covered_l0.AddFoldedBatch(batch.element_folded, batch.size);
    for (size_t i = 0; i < batch.size; ++i) {
      covered_hll.Add(batch.edges[i].element);
    }
    element_f2.AddFoldedBatch(batch.element_folded, batch.size);
  }

  void Merge(const CoverageSketchState& other) {
    covered_l0.Merge(other.covered_l0);
    covered_hll.Merge(other.covered_hll);
    element_f2.Merge(other.element_f2);
  }

  // Merge-compatibility fingerprint (the sharded pipeline's corruption
  // detection hook): everything the three sketch Merges require to agree.
  uint64_t MergeFingerprint() const {
    uint64_t fp = SplitMix64(config_.seed);
    fp = SplitMix64(fp ^ config_.l0_num_mins);
    fp = SplitMix64(fp ^ config_.hll_precision);
    fp = SplitMix64(fp ^ (uint64_t{config_.ams_rows} << 32 | config_.ams_cols));
    return fp;
  }

  // Serialization: config header then the three component blobs (each
  // carries its own magic/version, so a truncation anywhere dies inside the
  // component with a precise CHECK). The canonical-state invariant the dist
  // differential battery relies on: because each component's Merge yields
  // the same bytes as inline ingest of the union stream, Save() of a merged
  // state is bit-identical to Save() of the inline state.
  static constexpr uint32_t kMagic = 0x534b4353;  // "SKCS"
  static constexpr uint32_t kVersion = 1;

  void Save(std::ostream& os) const {
    WriteHeader(os, kMagic, kVersion);
    WriteU32(os, config_.l0_num_mins);
    WriteU32(os, config_.hll_precision);
    WriteU32(os, config_.ams_rows);
    WriteU32(os, config_.ams_cols);
    WriteU64(os, config_.seed);
    covered_l0.Save(os);
    covered_hll.Save(os);
    element_f2.Save(os);
  }

  static CoverageSketchState Load(std::istream& is) {
    CheckHeader(is, kMagic, kVersion);
    Config config;
    config.l0_num_mins = ReadU32(is);
    config.hll_precision = ReadU32(is);
    config.ams_rows = ReadU32(is);
    config.ams_cols = ReadU32(is);
    config.seed = ReadU64(is);
    CoverageSketchState state(config);
    state.covered_l0 = L0Estimator::Load(is);
    state.covered_hll = HyperLogLog::Load(is);
    state.element_f2 = AmsF2Sketch::Load(is);
    return state;
  }

  size_t MemoryBytes() const override {
    return covered_l0.MemoryBytes() + covered_hll.MemoryBytes() +
           element_f2.MemoryBytes();
  }

  const char* ComponentName() const override { return "coverage_sketch"; }

  void ReportSpace(SpaceAccountant* acct) const override {
    acct->Report(ComponentName(), MemoryBytes(), 0);
    covered_l0.ReportSpace(acct);
    covered_hll.ReportSpace(acct);
    element_f2.ReportSpace(acct);
  }

  Config config_;
  L0Estimator covered_l0;
  HyperLogLog covered_hll;
  AmsF2Sketch element_f2;
};

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_SKETCH_STATES_H_
