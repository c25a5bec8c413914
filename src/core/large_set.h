// LargeSet: heavy hitters over random supersets (Section 4.2 and Appendix B,
// Figures 4, 6 and 7).
//
// Handles case II of the oracle: an optimal solution whose coverage is
// dominated by OPT_large — sets contributing at least z/(sα) each. The sets
// F are hashed into ≈ c·m·log m / w random supersets of ≤ w = min(α, k)
// sets (Claim 4.9). With no common elements, a superset's total incidence
// count exceeds its coverage by at most a factor f (Claim 4.10), so the
// vector v⃗[i] = Σ_{S ∈ D_i} |S| is a good proxy for superset coverage, and:
//
//   Case 1 (small supersets carry F2): some class of ≤ sα supersets of total
//     size ≥ z/(sα) is a φ1 = Ω̃(α²/m)-contributing class of F2(v⃗)
//     (Claim 4.11) — found by F2-Contributing(φ1, sα) in Õ(m/α²) space.
//   Case 2 (they do not): some class is Ω̃(1)-contributing (Claim 4.13) —
//     found by F2-Contributing(φ2, r2) in Õ(1) space; when the contributing
//     class is larger than r2, a uniformly sampled pool of supersets with
//     per-superset L0 estimators catches it instead (Appendix B, Fig. 6).
//
// Appendix B removes the "no common elements" assumption: the whole
// computation runs on an element sample L of rate ρ = t·s·α·η/|U|, repeated
// O(log n) times (Fig. 7) so that w.h.p. some repetition's sample avoids all
// w-common elements; repetitions whose supersets are dominated by duplicated
// common elements cannot pass the thresholds (Lemma B.5), so the max over
// repetitions is sound.
//
// Estimates are produced at sample scale and divided by ρ to return to
// universe scale. Never overestimates w.h.p.; space Õ(m/α²) (Lemma B.7).
//
// Ingest is counting. v⃗ is linear, so a batch's surviving edges are summed
// per distinct superset and each sum is added once to every level of both
// contributing sketches. A repetition hashes each such superset once for
// all of them: the two sketches share one level sampler (Θ(log mn)-wise,
// Params::log_wise_degree) and one CountSketch row family, which are sound
// to share because every level, and each of Case 1 and Case 2, is analysed
// on its own and union-bounded. What depends on order — heavy-hitter
// admission and pruning — runs once per window of kWindowEdges input edges
// of the repetition's own stream, over the supersets the window touched,
// in ascending id order. So the counters and candidates do not depend on
// the order of edges inside a window, and every batching gives the state a
// Process() loop gives. Finalize passes the open window's supersets
// through the same gates, as if it had closed, without mutating anything.

#ifndef STREAMKC_CORE_LARGE_SET_H_
#define STREAMKC_CORE_LARGE_SET_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/element_sampler.h"
#include "core/params.h"
#include "core/streaming_interface.h"
#include "hash/kwise_hash.h"
#include "sketch/f2_contributing.h"
#include "sketch/l0_estimator.h"

namespace streamkc {

// One repetition (Figure 6): runs on a fixed element sample V.
class LargeSetComplete : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    uint64_t universe_size = 0;   // |U| the stream lives in
    double w = 1;                 // superset capacity bound (min(α,k) or k)
    double element_rate = 1.0;    // ρ; 1.0 disables sampling (Fig. 4 mode)
    bool reporting = false;
    uint64_t seed = 1;
  };

  // Heavy-hitter admission runs at the end of every window of this many
  // input edges. Guess retirement checks (edge 2^j, j ≥ 12, of the same
  // stream) land on window ends, as does any multiple of it.
  static constexpr uint64_t kWindowEdges = 4096;

  explicit LargeSetComplete(const Config& config);

  void Process(const Edge& edge) override;

  // Batched ingest: the element gate runs batched over the edges; the
  // superset hash (the deepest Horner chain in the oracle stack) and the
  // pool gate run once per distinct set among the survivors
  // (core/set_index.h). Per window-bounded slice, the survivors are summed
  // per distinct superset, which is hashed once for both sketches; the
  // pool's L0 updates run per edge. The state equals a Process() loop over
  // the same edges.
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // Estimate is at universe scale (already divided by the element rate).
  // `superset`, when given, receives a feasible outcome's winning superset.
  EstimateOutcome Finalize(uint64_t* superset = nullptr) const;

  // Merges another repetition built with the same Config: contributing
  // sketches add (linearity), pooled per-superset L0 counters union by
  // superset id, and the open windows' supersets union into the merged
  // open window, which ends where the concatenated stream's window would
  // ((a + b) mod kWindowEdges edges in) and is evaluated against the merged
  // counters. Merging never closes a window.
  void Merge(const LargeSetComplete& other);

  // Reporting mode, after a feasible Finalize(): the winning superset's
  // member sets {S : h(S) = i*}, at most max_sets of them.
  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;
  // The same for a superset a Finalize() already named.
  std::vector<SetId> SupersetMembers(uint64_t superset,
                                     uint64_t max_sets) const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "large_set_rep"; }
  uint64_t ItemCount() const override { return pool_.size(); }
  // Composite: also reports the two contributing sketches, the pooled
  // per-superset L0 counters and the sample's coverage counter.
  void ReportSpace(SpaceAccountant* acct) const override;

  uint64_t num_supersets() const { return num_supersets_; }

 private:
  struct Candidate {
    uint64_t superset = 0;
    double sample_scale_estimate = 0;  // coverage estimate on the sample V
  };

  std::optional<Candidate> BestCandidate() const;

  // Distinct supersets (ascending) with their fold-derived hashes, in this
  // thread's scratch until the next call.
  HashedIds HashSupersets(const uint64_t* supersets, size_t n) const;

  // One slice of the stream, summed per superset (distinct, ascending):
  // counts go to both sketches, the supersets join the open window, and
  // `closes` ends the window after them.
  void CountSlice(const uint64_t* supersets, const int64_t* counts, size_t n,
                  bool closes);

  // Admission over the window's supersets in both sketches.
  void Admit(const HashedIds& window);
  void CloseWindow();

  // touched_ ∪= the ascending supersets.
  void Touch(const uint64_t* supersets, size_t n);

  // Counts the element in the pooled superset's L0 counter, creating it on
  // first sight. The caller has already passed the pool gate.
  void AddToPool(uint64_t superset, uint64_t element_folded);

  Config config_;
  ElementSampler element_sampler_;
  KWiseHash superset_hash_;
  uint64_t num_supersets_ = 0;
  double thr1_ = 0;  // Case 1 acceptance threshold (sample scale)
  double thr2_ = 0;  // Case 2 acceptance threshold (sample scale)
  // The level sampler and CountSketch rows of every level of both sketches.
  F2Contributing::Hashes hashes_;
  F2Contributing cntr_small_;  // Case 1: φ1 = Ω̃(α²/m), classes ≤ r1
  F2Contributing cntr_large_;  // Case 2: φ2 = Ω̃(1), classes ≤ r2
  // Case 2 with oversized contributing classes: sampled supersets with
  // direct coverage counters.
  KWiseHash pool_hash_;
  uint64_t pool_rate_num_ = 0;
  uint64_t pool_rate_den_ = 1;
  mutable std::unordered_map<uint64_t, L0Estimator> pool_;
  uint64_t pool_l0_seed_ = 0;
  // Distinct elements of the sample V: no k sets cover more, so no answer
  // exceeds it. This binds where the supersets' incidence counts overstate
  // coverage beyond f — duplicated common elements at ρ = 1, the one
  // repetition that cannot dodge them (Lemma B.5 needs ρ < 1).
  L0Estimator sample_coverage_;
  // The open window: its input edges so far (< kWindowEdges) and the
  // distinct supersets they touched, ascending — at most min(window, Q)
  // ids, emptied when the window closes.
  uint64_t window_edges_ = 0;
  std::vector<uint64_t> touched_;
};

// Figure 7: O(log n) parallel repetitions of LargeSetComplete on fresh
// element samples; the final answer is the best feasible repetition.
class LargeSet : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    uint64_t universe_size = 0;
    // Superset capacity: Figure 2 passes k when sα ≥ 2k, else α.
    double w = 1;
    bool reporting = false;
    uint64_t seed = 1;
  };

  explicit LargeSet(const Config& config);

  void Process(const Edge& edge) override;
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // What a feasible Finalize() picked: enough to name the witness without
  // finalizing again.
  struct Winner {
    size_t rep = 0;
    uint64_t superset = 0;
  };

  // `winner`, when given, receives a feasible outcome's pick.
  EstimateOutcome Finalize(Winner* winner = nullptr) const;

  // Merges another instance built with the same Config (repetition-wise).
  void Merge(const LargeSet& other);

  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;
  // The witness of a pick Finalize() returned; finalizes nothing.
  std::vector<SetId> ExtractSolution(const Winner& winner,
                                     uint64_t max_sets) const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "large_set"; }
  uint64_t ItemCount() const override { return reps_.size(); }
  void ReportSpace(SpaceAccountant* acct) const override;

  uint32_t num_repetitions() const {
    return static_cast<uint32_t>(reps_.size());
  }

 private:
  Config config_;
  std::vector<LargeSetComplete> reps_;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_LARGE_SET_H_
