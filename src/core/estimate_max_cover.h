// EstimateMaxCover: the paper's headline estimation algorithm
// (Section 3, Figure 1; Theorems 3.1 and 3.6).
//
// For every guess z = 2^i ≤ n of the optimal coverage size, a fresh 4-wise
// independent hash maps U onto z pseudo-elements (universe reduction,
// Lemma 3.5) and an (α, δ, η=4)-oracle runs on the mapped stream; each guess
// is repeated log(1/δ) times to boost the 3/4 success probability of
// Lemma 3.5. At the end the algorithm returns
//     max { est_z : est_z ≥ z/(4α) },
// which lies in [OPT/Õ(α), OPT] w.h.p. (Theorem 3.6).
//
// The trivial branch: when kα ≥ m, the best k sets cover at least a k/m ≥
// 1/α fraction of the covered universe, so an L0 estimate of |C(F)| divided
// by α is already an α-approximate lower bound — Figure 1's first line.
//
// Space: log n · log(1/δ) oracles of Õ(m/α²) each, i.e. Õ(m/α²) total.

#ifndef STREAMKC_CORE_ESTIMATE_MAX_COVER_H_
#define STREAMKC_CORE_ESTIMATE_MAX_COVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/oracle.h"
#include "core/params.h"
#include "core/streaming_interface.h"
#include "core/universe_reduction.h"
#include "sketch/l0_estimator.h"

namespace streamkc {

class EstimateMaxCover : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    bool reporting = false;  // also maintain solution-extraction state
    // Optional prior bracket on OPT (e.g. from a first pass): when both are
    // nonzero, the guess grid only spans [guess_lo, guess_hi] instead of
    // [min_universe_guess, n], which cuts the oracle count to
    // log(guess_hi/guess_lo) — the two-pass optimization (core/two_pass.h).
    uint64_t guess_lo = 0;
    uint64_t guess_hi = 0;
    uint64_t seed = 1;
  };

  explicit EstimateMaxCover(const Config& config);

  void Process(const Edge& edge) override;

  // Batched ingest. Trivial mode feeds the whole block to the L0's batch
  // entry point; oracle mode indexes the block's sets once
  // (core/set_index.h), maps it through each level's universe reduction
  // (batched) and forwards the whole remapped prefolded view, index
  // included, to the oracle. Bit-identical to a Process() loop (levels are
  // independent; per-level edge order is preserved).
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // The final coverage estimate. Always feasible: the trivial branch and the
  // z-threshold rule guarantee an answer (0 only for an empty stream).
  EstimateOutcome Finalize() const;

  // Merges another estimator built with the same Config: every (guess,
  // repetition) oracle folds its same-seeded twin, so the merged state is
  // exactly the single-pass state on the concatenated stream.
  void Merge(const EstimateMaxCover& other);

  // Fingerprint of everything Merge() requires to agree (seed, instance
  // parameters, mode, oracle-grid shape). Two states with different
  // fingerprints are NOT merge-compatible: folding them would silently
  // produce garbage, so coordinators (runtime/sharded_pipeline.h) compare
  // fingerprints first and quarantine mismatching shards — the sketch-merge
  // corruption detection hook.
  uint64_t MergeFingerprint() const;
  bool MergeCompatible(const EstimateMaxCover& other) const {
    return MergeFingerprint() == other.MergeFingerprint();
  }

  // Reporting mode only: the winning oracle's witness sets (empty in trivial
  // mode — the trivial branch's solution lives in ReportMaxCover).
  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;

  // Finalize() and ExtractSolution(max_sets) from one pass: every (guess,
  // repetition) oracle is finalized exactly once, and only the winner is
  // asked for its witness, which replaces *solution. Reporting mode only.
  EstimateOutcome FinalizeWithSolution(uint64_t max_sets,
                                       std::vector<SetId>* solution) const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "estimate_max_cover"; }
  uint64_t ItemCount() const override { return oracles_.size(); }
  // Composite: recurses into every (guess, repetition) oracle, or the
  // trivial branch's L0.
  void ReportSpace(SpaceAccountant* acct) const override;

  // Bytes held by the heavy-hitter machinery (the LargeSet subroutines)
  // across all oracles — the component that carries the Θ̃(m/α²) term of the
  // space bound, reported separately for the trade-off experiments.
  size_t HeavyHitterComponentBytes() const;

  bool trivial_mode() const { return trivial_mode_; }
  uint32_t num_oracles() const {
    return static_cast<uint32_t>(oracles_.size());
  }

 protected:
  struct Level {
    uint64_t z = 0;            // coverage guess
    UniverseReduction reduction;
    std::unique_ptr<Oracle> oracle;
  };

  // The winner among threshold-passing levels: its index into oracles_ and
  // its finalized oracle.
  struct Winner {
    size_t index = 0;
    Oracle::Finalized finalized;
  };
  std::optional<Winner> BestLevel() const;

  Config config_;
  bool trivial_mode_ = false;
  // Trivial branch state: distinct covered elements.
  std::unique_ptr<L0Estimator> covered_elements_;
  std::vector<Level> oracles_;  // (guess, repetition) pairs, flattened
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_ESTIMATE_MAX_COVER_H_
