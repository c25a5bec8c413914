// The estimator bundle a serving instance ingests into.
//
// A query-serving deployment needs three things from its state that the
// bare estimators provide separately:
//
//   * EstimateMaxCover / ReportMaxCover answers — ReportMaxCover wraps the
//     full oracle stack (estimation + witness extraction), so one reporter
//     covers both query types;
//   * per-set coverage lookups — a CountSketch over set ids tracks each
//     set's incidence count (its coverage contribution, duplicates and all),
//     and CountSketch::PointQuery is genuinely const and pure, which makes
//     it the ONE component safe to serve to concurrent readers directly
//     (the core estimators settle `mutable` buffers inside const Finalize,
//     so their answers must be precomputed at snapshot-publish time — see
//     serve/snapshot.h);
//   * the ShardedPipeline State contract (PipelineState: ProcessBatch/
//     Merge/MergeFingerprint/SpaceMetered) — so a serving state runs
//     through the edge-sharded pipeline like the one-shot states (the
//     serving runtime itself parallelizes across guesses instead, through
//     AttachExecutor).

#ifndef STREAMKC_SERVE_SERVING_STATE_H_
#define STREAMKC_SERVE_SERVING_STATE_H_

#include <cstdint>

#include "core/report_max_cover.h"
#include "obs/space_accountant.h"
#include "sketch/count_sketch.h"
#include "stream/edge.h"

namespace streamkc {

class ServingState : public SpaceMetered {
 public:
  struct Config {
    Params params;
    uint64_t seed = 1;
    // Geometry of the per-set coverage CountSketch. Width bounds the
    // additive error of a set-coverage lookup at O(sqrt(F2/width)).
    uint32_t set_sketch_depth = 4;
    uint32_t set_sketch_width = 1024;
  };

  explicit ServingState(const Config& config);

  void Process(const Edge& edge);
  void ProcessBatch(const PrefoldedEdges& batch);

  // Merges a same-Config replica (the sharded-pipeline fold).
  void Merge(const ServingState& other);

  // Everything Merge() requires to agree: the reporter's fingerprint plus
  // the set-sketch geometry and seed.
  uint64_t MergeFingerprint() const;

  // Finalized answers for snapshot publication. Finalize settles mutable
  // sketch buffers, so this must run on the (single) publishing thread,
  // never concurrently with queries — snapshots store the results.
  MaxCoverSolution FinalizeSolution() const { return reporter_.Finalize(); }

  // The reporter's estimator, for its retirement accessors.
  const EstimateMaxCover& estimator() const { return reporter_.estimator(); }
  // Runs the estimator's levels on `executor`'s threads until detached
  // with nullptr (EstimateMaxCover::AttachExecutor).
  void AttachExecutor(LevelExecutor* executor) {
    reporter_.AttachExecutor(executor);
  }
  const CountSketch& set_coverage() const { return set_coverage_; }
  const Config& config() const { return config_; }

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "serving_state"; }
  void ReportSpace(SpaceAccountant* acct) const override;

 private:
  Config config_;
  ReportMaxCover reporter_;
  CountSketch set_coverage_;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_SERVING_STATE_H_
