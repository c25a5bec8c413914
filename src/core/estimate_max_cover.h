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
//
// Retirement (a deviation from Figure 1, DESIGN.md §5): guess z works on the
// reduced universe [z], so it never reports more than z. Right after edge
// 2^j (j ≥ 12) of its own stream the estimator finalizes its live levels
// from the top down until every repetition of one guess passes z/(4α); the
// smallest of their estimates, E, retires every level with c·z < E
// (c = RetirementMargin). A retired level's oracle is freed and it no
// longer ingests, finalizes, merges or counts in the space reports. The
// answer equals the unretired estimator's whenever the final estimate
// F ≥ the largest retired z (AnswerExact); in theory mode that holds
// w.h.p. by the paper's guarantees, in practical mode it is checked per
// answer.
//
// Threads (DESIGN.md §6): the oracles are independent, so with a
// LevelExecutor attached every slice goes to the live levels on the
// executor's threads, one thread per level, and a publish finalizes them
// there too. Each level still reads every edge in stream order, so the
// state and every answer are the single-threaded ones.

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

class LevelExecutor;

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
  // (core/set_index.h), maps it through each live level's universe
  // reduction (batched) and forwards the whole remapped prefolded view,
  // index included, to the oracle. A block that straddles a retirement
  // check is split at that edge, and each part is indexed on its own.
  // Bit-identical to a Process() loop (levels are independent; per-level
  // edge order and the check points are preserved), with or without an
  // executor.
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // Runs the live levels of every later batch, and of every finalize, on
  // `executor`'s threads; nullptr detaches it. The executor is not state:
  // Merge, MergeFingerprint and MemoryBytes ignore it, and the owner
  // detaches it before the executor goes away.
  void AttachExecutor(LevelExecutor* executor) { executor_ = executor; }

  // The final coverage estimate. Always feasible: the trivial branch and the
  // z-threshold rule guarantee an answer (0 only for an empty stream).
  // Never retires anything, so the state depends only on the edge sequence.
  EstimateOutcome Finalize() const;

  // Merges another estimator built with the same Config: every (guess,
  // repetition) oracle live in both folds its same-seeded twin, and a level
  // retired in either operand is retired in the result. Each operand's
  // retiring estimate lower-bounds the concatenated stream's OPT as well.
  void Merge(const EstimateMaxCover& other);

  // Fingerprint of everything Merge() requires to agree (seed, instance
  // parameters, mode, oracle-grid shape). Two states with different
  // fingerprints are NOT merge-compatible: folding them would silently
  // produce garbage, so coordinators (runtime/sharded_pipeline.h) compare
  // fingerprints first and quarantine mismatching shards — the sketch-merge
  // corruption detection hook. Retirement is not part of it: replicas that
  // retired different levels still merge.
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
  uint64_t ItemCount() const override {
    return oracles_.size() - num_retired();
  }
  // Composite: recurses into every live (guess, repetition) oracle, or the
  // trivial branch's L0.
  void ReportSpace(SpaceAccountant* acct) const override;

  // Bytes held by the heavy-hitter machinery (the LargeSet subroutines)
  // across all live oracles — the component that carries the Θ̃(m/α²) term
  // of the space bound, reported separately for the trade-off experiments.
  size_t HeavyHitterComponentBytes() const;

  bool trivial_mode() const { return trivial_mode_; }
  // The whole (guess, repetition) grid, retired levels included.
  uint32_t num_oracles() const {
    return static_cast<uint32_t>(oracles_.size());
  }

  // The retirement margin c: a level retires when c·z < E. Practical mode:
  // c = 1, so exactness rests on the per-answer check (AnswerExact).
  // Theory mode: c = 4α·2^universe_guess_log_step, where E ≤ OPT and the
  // grid guess just below OPT passing with an estimate ≥ z/(4α) make every
  // answer exact w.h.p. (docs/ALGORITHMS.md §2).
  static double RetirementMargin(const Params& params);
  uint32_t num_retired() const;
  // The largest retired guess z, 0 when nothing is retired.
  uint64_t largest_retired_guess() const;
  // Whether `estimate` (this state's Finalize() answer) equals the answer
  // of the same estimator with no level retired: every retired level could
  // only have reported at most its z, and ties go to the larger guess.
  bool AnswerExact(double estimate) const {
    return estimate >= static_cast<double>(largest_retired_guess());
  }

 protected:
  struct Level {
    uint64_t z = 0;            // coverage guess
    UniverseReduction reduction;
    std::unique_ptr<Oracle> oracle;  // null once the level is retired
  };

  // Feeds `slice` (an indexed view) to every live level.
  void ProcessLevels(const PrefoldedEdges& slice);
  // Feeds `slice` to one live level, through its universe reduction.
  static void ProcessLevel(Level& level, const PrefoldedEdges& slice);
  // The live levels are oracles_[0, NumLive()): retirement takes the
  // smallest guesses, and the levels run from the largest guess down.
  size_t NumLive() const;
  // Counts `edges` more edges of this state's stream and runs the
  // retirement check when the count lands on a check point.
  void AdvanceEdges(uint64_t edges);
  // The rule itself: the largest live guess whose repetitions all pass
  // their threshold gives E, the smallest of their estimates, and every
  // live level with c·z < E retires.
  void RetireOutgrownLevels();

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
  // Edges of this state's stream (merged operands' edges included); the
  // retirement checks run right after edge 2^j, j ≥ 12.
  uint64_t edges_seen_ = 0;
  LevelExecutor* executor_ = nullptr;  // not state; see AttachExecutor
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_ESTIMATE_MAX_COVER_H_
