// SmallSet: element sampling over subsampled sets (Section 4.3, Figure 5).
//
// Handles case III of the oracle: the optimal coverage comes mostly from
// "small" sets (every OPT member contributes < z/(sα)). Then subsampling
// sets at rate Θ(1/(sα)) preserves, w.h.p., a (Θ̃(k/α))-cover with coverage
// Θ̃(z/α) (Lemma 4.16 / Corollary 4.19). Element sampling (Lemma 2.5) at a
// guessed rate shrinks the universe to Θ̃(γ·k′) elements, and the surviving
// sub-instance (L, M) fits in Õ(m/α²) space (Lemmas 4.20 / 4.21), where it
// is solved *offline* by greedy at the end of the pass.
//
// Each (guess, repetition) stores its own sub-instance under a hard byte
// budget. Where Figure 5 *terminates* an instance whose sample outgrows the
// budget, this implementation instead *rescales* it: the element-sampling
// threshold is halved and the stored sample pruned in place. Because
// membership is a range test on one hash, the pruned sample is exactly the
// uniform sample at the halved rate, so Lemma 2.5 applies at the final
// effective rate and dense instances degrade gracefully instead of dying.
// The same property fixes, when an incidence is stored, how many rescales
// its element survives; each incidence keeps that level, so rescale and
// merge prune by comparing it and never hash an element again.
//
// The returned estimate is the greedy coverage on the sample scaled back by
// the effective element rate; infeasible unless the greedy k′-cover covers
// Ω(k′) sampled elements (the paper's sol_γ = Ω̃(k/α) test), which keeps the
// estimator from hallucinating coverage out of sampling noise.

#ifndef STREAMKC_CORE_SMALL_SET_H_
#define STREAMKC_CORE_SMALL_SET_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.h"
#include "core/streaming_interface.h"
#include "hash/kwise_hash.h"

namespace streamkc {

class SmallSet : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    uint64_t universe_size = 0;
    bool reporting = false;
    uint64_t seed = 1;
  };

  explicit SmallSet(const Config& config);

  void Process(const Edge& edge) override;

  // Batched ingest: per instance, the Θ(log mn)-wise set-sampling gate runs
  // batched over the batch's distinct sets (core/set_index.h), then the
  // element sampler runs batched over the edges of the sampled sets; the
  // element test and the normal store/budget path follow in edge order, so
  // the stored sample — including any mid-batch rescale cascade — is
  // bit-identical to a Process() loop.
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // Evaluates every instance once. With `solution` non-null it also
  // receives the winning instance's greedy picks (ExtractSolution's answer
  // before the cap), so a reporter needs no second evaluation.
  EstimateOutcome Finalize(std::vector<SetId>* solution = nullptr) const;

  // Merges another instance built with the same Config. Per (guess, rep)
  // instance: both stored samples are pruned to the smaller element rate
  // (membership is a range test, so pruning IS the sample at that rate),
  // appended, and re-checked against the byte budget. Pruning compares the
  // stored survival levels; no element is re-hashed. Because an instance's
  // final state is a pure function of (observed edge multiset, budget) —
  // the rescale cascade fires iff the full sample at a rate overflows,
  // regardless of arrival order — the merged state equals the
  // single-threaded state on the concatenated stream.
  void Merge(const SmallSet& other);

  // Reporting mode, after a feasible Finalize(): the actual set ids chosen
  // by greedy on the winning sub-instance (at most k′ ≤ k of them). Runs
  // Finalize() again; callers that already finalized pass it `solution`.
  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "small_set"; }
  // Stored sample size: surviving (set, element) incidences across every
  // (guess, repetition) instance.
  uint64_t ItemCount() const override;

  uint32_t num_instances() const {
    return static_cast<uint32_t>(instances_.size());
  }

  // Total budget-overflow rescaling events across instances (diagnostic).
  uint32_t num_rescaled() const;

 private:
  static constexpr uint64_t kRateDen = 1ULL << 40;
  // An instance whose rate has been halved this many times stores (almost)
  // nothing and is effectively dead.
  static constexpr uint32_t kMaxRescales = 38;
  static_assert(kMaxRescales <= UINT8_MAX, "levels are stored in a byte");
  // Budget charge per stored incidence: an element id plus a quarter of a
  // set id. A fixed model rather than the log's footprint (which includes
  // the survival level), so MemoryBytes() and the rescale points do not
  // depend on how the sample is laid out.
  static constexpr size_t kEntryBytes = sizeof(ElementId) + sizeof(SetId) / 4;

  struct Instance {
    double gamma = 0;       // coverage-fraction guess (OPT' ≈ |U|/γ)
    KWiseHash set_sampler;  // M membership at rate set_rate_num/kRateDen
    uint64_t set_rate_num = 0;
    KWiseHash element_sampler;  // L membership at element_rate_num/kRateDen
    uint64_t element_rate_num = 0;  // halved on every budget overflow
    uint32_t rescales = 0;
    // The stored sub-instance: every surviving (set, element) incidence in
    // arrival order, repeats included (they count against the budget, as
    // they did in the stream). Evaluate() groups it by set.
    std::vector<Edge> edges;
    // levels[i]: how many rescales edges[i]'s element survives (see
    // SurvivalLevel). An incidence is in the sample after r rescales iff
    // levels[i] >= r.
    std::vector<uint8_t> levels;
    size_t stored_bytes = 0;

    double EffectiveRate() const {
      return static_cast<double>(element_rate_num) /
             static_cast<double>(kRateDen);
    }
  };

  struct Evaluation {
    double estimate = 0;          // universe scale
    std::vector<SetId> solution;  // greedy's picks (actual set ids)
  };

  // The largest r <= kMaxRescales with key < R_r, where R_r is inst's
  // element rate after r rescales (R_{r+1} = max(1, R_r / 2), Rescale's
  // update). `key` must pass inst's current rate, so the walk starts there.
  static uint8_t SurvivalLevel(const Instance& inst, uint64_t key);

  // Halves inst's element rate and prunes its stored sample accordingly.
  void Rescale(Instance& inst);

  // Stores one surviving (set, element) incidence, whose element-sampler
  // key is `key`, and runs the budget / rescale cascade — the post-gate
  // tail of Process(), shared with the batched path.
  void StoreEdge(Instance& inst, SetId set, ElementId element, uint64_t key);

  // Folds the same-seeded instance `theirs` into `mine` (see Merge()).
  void MergeInstance(Instance& mine, const Instance& theirs);

  // Greedy evaluation of one stored instance; nullopt if infeasible. Greedy
  // ties go to the smallest set id, so the result depends only on the
  // stored multiset, not on the arrival or merge order of the log.
  std::optional<Evaluation> Evaluate(const Instance& inst) const;

  Config config_;
  uint64_t k_prime_ = 1;
  size_t budget_bytes_ = 0;
  std::vector<Instance> instances_;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_SMALL_SET_H_
