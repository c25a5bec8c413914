// ReportMaxCover: α-approximate solution reporting in Õ(m/α² + k) space
// (Theorem 3.2).
//
// Wraps EstimateMaxCover with reporting mode on. Each subroutine already
// knows how to exhibit its witness without storing sets during the pass:
//
//   * LargeCommon — winning sampled collection is partitioned into β groups
//     by a stored hash with per-group L0 counters (Observation 2.4 made
//     constructive); group membership is re-derived at output time.
//   * LargeSet — the winning superset's members are exactly
//     {S : h(S) = i*} for the stored superset hash (the "add return
//     {S | h(S) = i*}" comments in Figure 6).
//   * SmallSet — greedy on the stored sub-instance returns actual set ids.
//
// The extra Õ(k) space beyond estimation pays for the per-group counters and
// for the trivial branch (kα ≥ m), where a bottom-k hash sample of distinct
// set ids is kept: a uniformly random k-subset of F has expected coverage
// ≥ (k/m)·|C(F)| ≥ OPT/α.

#ifndef STREAMKC_CORE_REPORT_MAX_COVER_H_
#define STREAMKC_CORE_REPORT_MAX_COVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimate_max_cover.h"
#include "hash/kwise_hash.h"

namespace streamkc {

// An α-approximate k-cover: set ids plus the estimator's coverage claim.
struct MaxCoverSolution {
  std::vector<SetId> sets;
  double estimate = 0;
  std::string source;
};

class ReportMaxCover : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    uint64_t seed = 1;
  };

  explicit ReportMaxCover(const Config& config);

  void Process(const Edge& edge) override;
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // The reported k-cover. sets.size() ≤ k.
  MaxCoverSolution Finalize() const;

  // Merges another reporter built with the same Config. The bottom-k sample
  // keeps the k smallest distinct (hash, id) pairs of the union — the same
  // set a single pass over the concatenated stream retains.
  void Merge(const ReportMaxCover& other);

  // Merge-compatibility fingerprint (see EstimateMaxCover::MergeFingerprint):
  // wraps the estimator's fingerprint plus the bottom-k sample shape.
  uint64_t MergeFingerprint() const;
  bool MergeCompatible(const ReportMaxCover& other) const {
    return MergeFingerprint() == other.MergeFingerprint();
  }

  // The wrapped estimator, for its retirement accessors
  // (EstimateMaxCover::AnswerExact and friends).
  const EstimateMaxCover& estimator() const { return estimator_; }
  // See EstimateMaxCover::AttachExecutor.
  void AttachExecutor(LevelExecutor* executor) {
    estimator_.AttachExecutor(executor);
  }

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "report_max_cover"; }
  uint64_t ItemCount() const override { return set_sample_.heap.size(); }
  // Composite: also reports the wrapped estimator stack.
  void ReportSpace(SpaceAccountant* acct) const override;

 private:
  // Bottom-k distinct sample of set ids (trivial branch's k-cover).
  struct BottomK {
    KWiseHash hash;
    // (hash value, id) max-heap of the k smallest distinct hash values.
    std::vector<std::pair<uint64_t, SetId>> heap;
    uint64_t capacity = 0;
    void Add(SetId id);
    std::vector<SetId> Ids() const;
  };

  Config config_;
  EstimateMaxCover estimator_;
  BottomK set_sample_;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_REPORT_MAX_COVER_H_
