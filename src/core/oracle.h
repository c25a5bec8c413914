// The (α, δ, η)-oracle for Max k-Cover (Definition 3.4, Section 4, Figure 2).
//
// Runs three subroutines in parallel over the same pass; their structural
// preconditions cover all instances (Section 4's case analysis), so at least
// one returns a feasible estimate whenever OPT covers ≥ |U|/η elements:
//
//   I.   LargeCommon — some β ≤ α has many (βk)-common elements;
//   II.  LargeSet    — OPT's coverage dominated by large sets. Figure 2
//        passes superset capacity w = k when sα ≥ 2k (Claim 4.3 then makes
//        this case unconditional), else w = α;
//   III. SmallSet    — OPT's coverage dominated by small sets (only possible,
//        and only instantiated, when sα < 2k).
//
// Every subroutine w.h.p. never overestimates, so Finalize() = max of the
// feasible estimates keeps the oracle's lower-bound property
// (Theorem 4.1). Space: Õ(m/α²).

#ifndef STREAMKC_CORE_ORACLE_H_
#define STREAMKC_CORE_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/large_common.h"
#include "core/large_set.h"
#include "core/params.h"
#include "core/small_set.h"
#include "core/streaming_interface.h"

namespace streamkc {

class Oracle : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    uint64_t universe_size = 0;
    bool reporting = false;
    uint64_t seed = 1;
  };

  explicit Oracle(const Config& config);

  void Process(const Edge& edge) override;
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // Max over feasible subroutines; outcome.source names the winner.
  EstimateOutcome Finalize() const;

  // One finalize of the three subroutines, kept for witness extraction:
  // Finalize()'s outcome, plus what the subroutines picked in that same
  // evaluation, so they cost nothing to keep: LargeCommon's level and
  // LargeSet's repetition and superset (when feasible), and SmallSet's
  // greedy picks (when it wins).
  struct Finalized {
    EstimateOutcome outcome;
    size_t large_common_level = 0;
    LargeSet::Winner large_set_winner;
    std::vector<SetId> small_set_sets;
  };
  Finalized FinalizeForReport() const;

  // Merges another oracle built with the same Config, subroutine-wise.
  void Merge(const Oracle& other);

  // Reporting mode: delegates to the winning subroutine.
  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;
  // The same witness for an oracle already finalized: the subroutine that
  // finalized.outcome.source names supplies it, and the oracle is not
  // finalized again.
  std::vector<SetId> ExtractSolution(const Finalized& finalized,
                                     uint64_t max_sets) const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "oracle"; }
  // Composite: also reports the three subroutines.
  void ReportSpace(SpaceAccountant* acct) const override;

  const LargeCommon& large_common() const { return *large_common_; }
  const LargeSet& large_set() const { return *large_set_; }
  bool has_small_set() const { return small_set_ != nullptr; }
  const SmallSet& small_set() const { return *small_set_; }

 private:
  Config config_;
  std::unique_ptr<LargeCommon> large_common_;
  std::unique_ptr<LargeSet> large_set_;
  std::unique_ptr<SmallSet> small_set_;  // null when sα ≥ 2k
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_ORACLE_H_
