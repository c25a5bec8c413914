#include "core/estimate_max_cover.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "core/level_executor.h"
#include "core/set_index.h"
#include "hash/mersenne.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"

namespace streamkc {

namespace {

// Retirement checks run right after edge 2^j of a state's own stream, for
// j ≥ 12: early enough to stop feeding outgrown guesses for most of the
// stream, and only log-many top-down finalizes in all.
constexpr uint64_t kFirstRetirementCheck = uint64_t{1} << 12;
// Every check then reads LargeSet with its admission windows closed.
static_assert(kFirstRetirementCheck % LargeSetComplete::kWindowEdges == 0);

// The first check point after `edges` edges.
uint64_t NextRetirementCheck(uint64_t edges) {
  if (edges < kFirstRetirementCheck) return kFirstRetirementCheck;
  return uint64_t{1} << (FloorLog2(edges) + 1);
}

// Figure 1's threshold: a guess z counts only with est_z ≥ z/(4α).
bool PassesThreshold(const EstimateOutcome& out, uint64_t z, double alpha) {
  return out.feasible &&
         out.estimate >= static_cast<double>(z) / (4.0 * alpha);
}

}  // namespace

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
    if (level.oracle) level.oracle->Process(level.reduction.MapEdge(edge));
  }
  AdvanceEdges(1);
}

void EstimateMaxCover::ProcessBatch(const PrefoldedEdges& batch) {
  if (trivial_mode_) {
    covered_elements_->AddFoldedBatch(batch.element_folded, batch.size);
    return;
  }
  for (size_t start = 0; start < batch.size;) {
    // End the slice at the next check point, so the check runs right after
    // the same edge as in a Process() loop.
    const size_t len = static_cast<size_t>(std::min<uint64_t>(
        batch.size - start, NextRetirementCheck(edges_seen_) - edges_seen_));
    PrefoldedEdges slice = batch;
    if (len < batch.size) {
      // A slice is indexed on its own: the batch's index can number more
      // sets than the slice has edges, and components size their per-set
      // scratch by the edges of the view they get.
      slice.edges += start;
      slice.set_folded += start;
      slice.element_folded += start;
      slice.size = len;
      slice.set_slot = nullptr;
      slice.distinct_set_folded = nullptr;
      slice.num_distinct_sets = 0;
    }
    // One set index for every oracle: universe reduction remaps elements
    // only, so each level's view keeps the slice's sets and their index.
    const IndexedBatch indexed(slice);
    ProcessLevels(indexed.view());
    AdvanceEdges(len);
    start += len;
  }
}

void EstimateMaxCover::ProcessLevels(const PrefoldedEdges& slice) {
  if (executor_ == nullptr) {
    for (Level& level : oracles_) {
      if (level.oracle) ProcessLevel(level, slice);
    }
    return;
  }
  // The slice and its set index are shared read-only; each level's
  // remapped edges and its components' scratch are per thread.
  executor_->Run(NumLive(),
                 [&](size_t i) { ProcessLevel(oracles_[i], slice); });
}

void EstimateMaxCover::ProcessLevel(Level& level,
                                    const PrefoldedEdges& slice) {
  struct Scratch {
    std::vector<Edge> edges;
    std::vector<uint64_t> folded;
  };
  thread_local Scratch s;
  PrefoldedEdges mapped = slice;
  Edge* edges = GrowTo(s.edges, slice.size);
  uint64_t* folded = GrowTo(s.folded, slice.size);
  mapped.edges = edges;
  mapped.element_folded = folded;
  // Batched universe reduction; the mapped pseudo-element ids then get
  // their own fold (they are fresh hash inputs downstream — a guess
  // z > 2^61 - 1 would otherwise leak out-of-field values).
  level.reduction.MapFoldedBatch(slice.element_folded, folded, slice.size);
  for (size_t i = 0; i < slice.size; ++i) {
    edges[i] = Edge{slice.edges[i].set, folded[i]};
    folded[i] = MersenneFold(folded[i]);
  }
  level.oracle->ProcessBatch(mapped);
}

size_t EstimateMaxCover::NumLive() const {
  size_t live = 0;
  while (live < oracles_.size() && oracles_[live].oracle) ++live;
  return live;
}

void EstimateMaxCover::AdvanceEdges(uint64_t edges) {
  const uint64_t check = NextRetirementCheck(edges_seen_);
  edges_seen_ += edges;
  if (edges_seen_ == check) RetireOutgrownLevels();
}

void EstimateMaxCover::RetireOutgrownLevels() {
  const Params& p = config_.params;
  // E is the smallest estimate among the repetitions of the largest guess
  // whose repetitions all pass: one repetition can read 1.5x its twin, so
  // an E from a single repetition would make which guesses a stream
  // retires flip with the instance. Levels run from the largest guess
  // down, each guess's repetitions side by side, and the retired guesses
  // are the smallest, so the scan stops at the first retired level.
  const size_t reps = p.universe_reduction_reps;
  std::optional<double> passing;
  for (size_t g = 0; !passing && g < oracles_.size() && oracles_[g].oracle;
       g += reps) {
    std::optional<double> smallest;
    for (size_t i = g; i < g + reps; ++i) {
      const EstimateOutcome out = oracles_[i].oracle->Finalize();
      if (!PassesThreshold(out, oracles_[i].z, p.alpha)) {
        smallest.reset();
        break;
      }
      smallest = std::min(smallest.value_or(out.estimate), out.estimate);
    }
    passing = smallest;
  }
  if (!passing) return;
  const double margin = RetirementMargin(p);
  for (Level& level : oracles_) {
    if (margin * static_cast<double>(level.z) < *passing) level.oracle.reset();
  }
}

double EstimateMaxCover::RetirementMargin(const Params& params) {
  if (params.mode == Params::Mode::kPractical) return 1.0;
  const uint32_t step = std::max<uint32_t>(1, params.universe_guess_log_step);
  return std::ldexp(4.0 * params.alpha, static_cast<int>(step));
}

uint32_t EstimateMaxCover::num_retired() const {
  uint32_t retired = 0;
  for (const Level& level : oracles_) retired += level.oracle ? 0 : 1;
  return retired;
}

uint64_t EstimateMaxCover::largest_retired_guess() const {
  // Levels run from the largest guess down.
  for (const Level& level : oracles_) {
    if (!level.oracle) return level.z;
  }
  return 0;
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
    Level& mine = oracles_[i];
    const Level& theirs = other.oracles_[i];
    CHECK_EQ(mine.z, theirs.z);
    if (!theirs.oracle) mine.oracle.reset();
    if (mine.oracle) mine.oracle->Merge(*theirs.oracle);
  }
  edges_seen_ += other.edges_seen_;
}

std::optional<EstimateMaxCover::Winner> EstimateMaxCover::BestLevel() const {
  const Params& p = config_.params;
  // est_z = max over the repetitions of guess z; then keep guesses passing
  // est_z ≥ z/(4α) and return the largest estimate. With an executor the
  // live levels finalize on its threads into per-level slots first; the
  // winner is picked in level order either way, so ties break alike.
  std::vector<Oracle::Finalized> slots;
  if (executor_ != nullptr) {
    slots.resize(NumLive());
    executor_->Run(slots.size(), [&](size_t i) {
      slots[i] = oracles_[i].oracle->FinalizeForReport();
    });
  }
  std::optional<Winner> best;
  for (size_t i = 0; i < oracles_.size(); ++i) {
    if (!oracles_[i].oracle) continue;
    Oracle::Finalized fin = executor_ != nullptr
                                ? std::move(slots[i])
                                : oracles_[i].oracle->FinalizeForReport();
    const EstimateOutcome& out = fin.outcome;
    if (!PassesThreshold(out, oracles_[i].z, p.alpha)) continue;
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
    if (level.oracle) bytes += level.oracle->large_set().MemoryBytes();
  }
  return bytes;
}

size_t EstimateMaxCover::MemoryBytes() const {
  if (trivial_mode_) return covered_elements_->MemoryBytes();
  size_t bytes = 0;
  for (const Level& level : oracles_) {
    if (!level.oracle) continue;
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
  for (const Level& level : oracles_) {
    if (level.oracle) level.oracle->ReportSpace(acct);
  }
}

}  // namespace streamkc
