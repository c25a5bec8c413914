#include "core/estimate_max_cover.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "core/set_index.h"
#include "hash/mersenne.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"

namespace streamkc {

EstimateMaxCover::EstimateMaxCover(const Config& config) : config_(config) {
  const Params& p = config.params;
  CHECK_GT(p.n, 0u);
  Rng rng(config.seed);

  if (static_cast<double>(p.k) * p.alpha >= static_cast<double>(p.m)) {
    // Figure 1's trivial branch ("if kα ≥ m then return n/α"): estimate
    // |C(F)| with an L0 sketch and report it divided by α.
    trivial_mode_ = true;
    covered_elements_ = std::make_unique<L0Estimator>(
        L0Estimator::Config{.num_mins = p.l0_num_mins, .seed = rng.Fork()});
    return;
  }

  // Guess grid z = 2^i, descending from the top so the largest guess (≈ n,
  // or the bracket's top when a prior bracket is supplied) is always present
  // regardless of the step.
  uint64_t hi = p.n;
  uint64_t lo = p.min_universe_guess;
  if (config.guess_lo != 0 && config.guess_hi != 0) {
    CHECK_LE(config.guess_lo, config.guess_hi);
    hi = std::min<uint64_t>(config.guess_hi, p.n);
    lo = std::max<uint64_t>(config.guess_lo, 2);
  }
  uint32_t max_level = CeilLog2(hi);
  std::vector<uint32_t> levels;
  for (int32_t i = static_cast<int32_t>(max_level); i >= 0;
       i -= static_cast<int32_t>(std::max<uint32_t>(1, p.universe_guess_log_step))) {
    uint64_t z = 1ULL << i;
    if (z < lo && z < hi) break;
    levels.push_back(static_cast<uint32_t>(i));
  }
  for (uint32_t i : levels) {
    uint64_t z = 1ULL << i;
    for (uint32_t rep = 0; rep < p.universe_reduction_reps; ++rep) {
      Oracle::Config oc;
      oc.params = p;
      oc.universe_size = z;
      oc.reporting = config.reporting;
      oc.seed = rng.Fork();
      oracles_.push_back(Level{z, UniverseReduction(z, rng.Fork()),
                               std::make_unique<Oracle>(oc)});
    }
  }
}

void EstimateMaxCover::Process(const Edge& edge) {
  if (trivial_mode_) {
    covered_elements_->Add(edge.element);
    return;
  }
  for (Level& level : oracles_) {
    level.oracle->Process(level.reduction.MapEdge(edge));
  }
}

void EstimateMaxCover::ProcessBatch(const PrefoldedEdges& batch) {
  if (trivial_mode_) {
    covered_elements_->AddFoldedBatch(batch.element_folded, batch.size);
    return;
  }
  // One set index for every oracle: universe reduction remaps elements
  // only, so each level's view keeps the batch's sets and their index.
  const IndexedBatch indexed(batch);
  struct Scratch {
    std::vector<Edge> edges;
    std::vector<uint64_t> folded;
  };
  thread_local Scratch s;
  PrefoldedEdges mapped = indexed.view();
  Edge* edges = GrowTo(s.edges, batch.size);
  uint64_t* folded = GrowTo(s.folded, batch.size);
  mapped.edges = edges;
  mapped.element_folded = folded;
  for (Level& level : oracles_) {
    // Batched universe reduction; the mapped pseudo-element ids then get
    // their own fold (they are fresh hash inputs downstream — a guess
    // z > 2^61 - 1 would otherwise leak out-of-field values).
    level.reduction.MapFoldedBatch(batch.element_folded, folded, batch.size);
    for (size_t i = 0; i < batch.size; ++i) {
      edges[i] = Edge{batch.edges[i].set, folded[i]};
      folded[i] = MersenneFold(folded[i]);
    }
    level.oracle->ProcessBatch(mapped);
  }
}

uint64_t EstimateMaxCover::MergeFingerprint() const {
  // Chain every Merge() precondition through SplitMix64. alpha is hashed by
  // bit pattern: merge compatibility is exact-config equality, not numeric
  // closeness.
  uint64_t alpha_bits;
  static_assert(sizeof(alpha_bits) == sizeof(config_.params.alpha));
  std::memcpy(&alpha_bits, &config_.params.alpha, sizeof(alpha_bits));
  uint64_t fp = SplitMix64(config_.seed);
  fp = SplitMix64(fp ^ config_.params.m);
  fp = SplitMix64(fp ^ config_.params.n);
  fp = SplitMix64(fp ^ config_.params.k);
  fp = SplitMix64(fp ^ alpha_bits);
  fp = SplitMix64(fp ^ (trivial_mode_ ? 1 : 0));
  fp = SplitMix64(fp ^ (config_.reporting ? 2 : 0));
  fp = SplitMix64(fp ^ oracles_.size());
  for (const Level& level : oracles_) fp = SplitMix64(fp ^ level.z);
  return fp;
}

void EstimateMaxCover::Merge(const EstimateMaxCover& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(trivial_mode_, other.trivial_mode_);
  if (trivial_mode_) {
    covered_elements_->Merge(*other.covered_elements_);
    return;
  }
  CHECK_EQ(oracles_.size(), other.oracles_.size());
  for (size_t i = 0; i < oracles_.size(); ++i) {
    CHECK_EQ(oracles_[i].z, other.oracles_[i].z);
    oracles_[i].oracle->Merge(*other.oracles_[i].oracle);
  }
}

std::optional<EstimateMaxCover::Winner> EstimateMaxCover::BestLevel() const {
  const Params& p = config_.params;
  // est_z = max over the repetitions of guess z; then keep guesses passing
  // est_z ≥ z/(4α) and return the largest estimate.
  std::optional<Winner> best;
  for (size_t i = 0; i < oracles_.size(); ++i) {
    Oracle::Finalized fin = oracles_[i].oracle->FinalizeForReport();
    const EstimateOutcome& out = fin.outcome;
    if (!out.feasible) continue;
    double z = static_cast<double>(oracles_[i].z);
    if (out.estimate < z / (4.0 * p.alpha)) continue;
    if (!best || out.estimate > best->finalized.outcome.estimate) {
      best = Winner{i, std::move(fin)};
    }
  }
  return best;
}

EstimateOutcome EstimateMaxCover::Finalize() const {
  return FinalizeWithSolution(0, nullptr);
}

std::vector<SetId> EstimateMaxCover::ExtractSolution(uint64_t max_sets) const {
  std::vector<SetId> sets;
  FinalizeWithSolution(max_sets, &sets);
  return sets;
}

EstimateOutcome EstimateMaxCover::FinalizeWithSolution(
    uint64_t max_sets, std::vector<SetId>* solution) const {
  if (solution != nullptr) {
    CHECK(config_.reporting);
    solution->clear();
  }
  EstimateOutcome out;
  out.feasible = true;
  if (trivial_mode_) {
    out.source = "trivial";
    out.estimate = covered_elements_->Estimate() / config_.params.alpha;
    return out;
  }
  auto best = BestLevel();
  if (!best) {
    // No guess passed its threshold. OPT may still be tiny (below the
    // smallest guess); report the conservative floor 0.
    out.source = "no-guess-passed";
    out.estimate = 0;
    return out;
  }
  out.estimate = best->finalized.outcome.estimate;
  out.source = best->finalized.outcome.source;
  if (solution != nullptr) {
    *solution = oracles_[best->index].oracle->ExtractSolution(best->finalized,
                                                              max_sets);
  }
  return out;
}

size_t EstimateMaxCover::HeavyHitterComponentBytes() const {
  size_t bytes = 0;
  for (const Level& level : oracles_) {
    bytes += level.oracle->large_set().MemoryBytes();
  }
  return bytes;
}

size_t EstimateMaxCover::MemoryBytes() const {
  if (trivial_mode_) return covered_elements_->MemoryBytes();
  size_t bytes = 0;
  for (const Level& level : oracles_) {
    bytes += level.reduction.MemoryBytes() + level.oracle->MemoryBytes();
  }
  return bytes;
}

void EstimateMaxCover::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  if (trivial_mode_) {
    covered_elements_->ReportSpace(acct);
    return;
  }
  for (const Level& level : oracles_) level.oracle->ReportSpace(acct);
}

}  // namespace streamkc
