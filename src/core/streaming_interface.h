// Common interface of the single-pass estimators in src/core.

#ifndef STREAMKC_CORE_STREAMING_INTERFACE_H_
#define STREAMKC_CORE_STREAMING_INTERFACE_H_

#include <cstddef>
#include <string>

#include "obs/space_accountant.h"
#include "stream/edge.h"
#include "util/space.h"

namespace streamkc {

// Result of a coverage-estimation subroutine. `feasible == false` is the
// paper's "infeasible" return: the subroutine's structural precondition did
// not hold, and `estimate` is meaningless.
struct EstimateOutcome {
  bool feasible = false;
  double estimate = 0;
  // Which subroutine produced the estimate ("large-common", "large-set",
  // "small-set", "trivial", ...); set by Oracle/EstimateMaxCover.
  std::string source;
};

// A single-pass streaming coverage estimator over (set, element) edges.
// SpaceMetered (obs/space_accountant.h): every estimator names itself and
// reports into a SpaceAccountant, so one Sample() call on the root of an
// estimator stack produces the whole space breakdown.
class StreamingEstimator : public SpaceMetered {
 public:
  ~StreamingEstimator() override = default;
  // Observes one stream token. Must be O(polylog) time and touch only
  // sketch state.
  virtual void Process(const Edge& edge) = 0;

  // Observes a block of stream tokens with their ids pre-folded into the
  // hash field domain (see stream/edge.h). MUST leave the estimator in the
  // state a Process() loop over the same edges would — batching is a pure
  // throughput optimization, never a semantic one (the differential tests
  // hold implementations to bit-identical serialized state). The default is
  // that loop; estimators override it to amortize hash evaluation and skip
  // per-edge virtual dispatch.
  virtual void ProcessBatch(const PrefoldedEdges& batch) {
    for (size_t i = 0; i < batch.size; ++i) Process(batch.edges[i]);
  }
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_STREAMING_INTERFACE_H_
