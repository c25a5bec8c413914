// LargeCommon: multi-layered set sampling (Section 4.1, Figure 3).
//
// Handles case I of the oracle: some β ≤ α has many (βk)-common elements
// (|U^cmn_{βk}| ≥ σβ|U|/α). For each guess β_g = 2^i ≤ α it set-samples
// ≈ β_g·k sets (Appendix A.1) and measures their coverage with an
// L0 estimator. If the sampled collection covers at least σβ_g|U|/(4α)
// elements, then by Observation 2.4 its best k sets cover a 1/β_g fraction
// of that, so 2·VAL/(3β_g) is a valid (never-overestimating, w.h.p.) lower
// bound that is Ω(σ|U|/α) — an Õ(α)-approximation (Theorem 4.4).
// Space: log α levels × Õ(1) per level.
//
// Reporting mode additionally partitions each level's sampled sets into
// ⌈β_g⌉ groups by a second hash and tracks one L0 per group; the winning
// group realizes Observation 2.4 constructively and its members are
// enumerable from the two stored hashes alone (ExtractSolution).

#ifndef STREAMKC_CORE_LARGE_COMMON_H_
#define STREAMKC_CORE_LARGE_COMMON_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.h"
#include "core/set_sampler.h"
#include "core/streaming_interface.h"
#include "sketch/l0_estimator.h"

namespace streamkc {

class LargeCommon : public StreamingEstimator {
 public:
  struct Config {
    Params params;
    // Universe size the stream lives in (the reduced universe when invoked
    // under EstimateMaxCover).
    uint64_t universe_size = 0;
    bool reporting = false;
    uint64_t seed = 1;
  };

  explicit LargeCommon(const Config& config);

  void Process(const Edge& edge) override;

  // Batched ingest over the batch's set index (core/set_index.h): per
  // level, one batched sampler evaluation over the distinct sets (and the
  // group hash of each sampled one) replaces a Horner chain per edge;
  // sampled edges update the L0s from the pre-folded element ids. State is
  // bit-identical to a Process() loop (levels are independent; per-level
  // edge order is preserved).
  void ProcessBatch(const PrefoldedEdges& batch) override;

  // `level`, when given, receives a feasible outcome's winning level.
  EstimateOutcome Finalize(size_t* level = nullptr) const;

  // Merges another instance built with the same Config (same seed, so the
  // per-level samplers and hashes are identical). Purely L0 unions — the
  // merged state equals the single-threaded state on the concatenated
  // stream exactly.
  void Merge(const LargeCommon& other);

  // Reporting mode only, after a feasible Finalize(): enumerates the sets of
  // the winning level's best group, at most max_sets of them, by scanning
  // set-id space [0, m). Deterministic; uses no stream-time storage beyond
  // the two hashes and the per-group counters.
  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;
  // The same for the level a Finalize() already named.
  std::vector<SetId> ExtractSolution(size_t level, uint64_t max_sets) const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "large_common"; }
  uint64_t ItemCount() const override { return levels_.size(); }
  // Composite: also reports every level's coverage L0 (and the per-group
  // counters in reporting mode).
  void ReportSpace(SpaceAccountant* acct) const override;

  uint32_t num_levels() const { return static_cast<uint32_t>(levels_.size()); }

 private:
  struct Level {
    double beta = 0;
    SetSampler sampler;
    L0Estimator coverage;  // DE_g: distinct elements covered by the sample
    // Reporting only: group assignment hash + per-group coverage counters.
    std::optional<KWiseHash> group_hash;
    std::vector<L0Estimator> group_coverage;
  };

  // (level, estimate) of the best feasible level, if any.
  std::optional<std::pair<size_t, double>> BestLevel() const;

  Config config_;
  std::vector<Level> levels_;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_LARGE_COMMON_H_
