#include "core/large_common.h"

#include <algorithm>
#include <cmath>

#include "core/set_index.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"

namespace streamkc {

LargeCommon::LargeCommon(const Config& config) : config_(config) {
  const Params& p = config.params;
  CHECK_GT(config.universe_size, 0u);
  Rng rng(config.seed);
  uint32_t max_level = std::max<uint32_t>(
      1, CeilLog2(static_cast<uint64_t>(std::max(2.0, p.alpha))));
  for (uint32_t i = 1; i <= max_level; ++i) {
    double beta = static_cast<double>(1ULL << i);
    if (beta > 2 * p.alpha) break;
    Level level{
        beta,
        SetSampler(p.m, beta * static_cast<double>(p.k), p.c_hash,
                   p.log_wise_degree, rng.Fork()),
        L0Estimator({.num_mins = p.l0_num_mins, .seed = rng.Fork()}),
        std::nullopt,
        {}};
    if (config.reporting) {
      // Observation 2.4: partition the ≈ βk sampled sets into ⌈β⌉ groups of
      // ≈ k sets and track each group's coverage separately.
      uint32_t groups = static_cast<uint32_t>(std::ceil(beta));
      level.group_hash.emplace(p.log_wise_degree, rng.Fork());
      level.group_coverage.reserve(groups);
      for (uint32_t g = 0; g < groups; ++g) {
        level.group_coverage.emplace_back(
            L0Estimator::Config{.num_mins = p.l0_num_mins, .seed = rng.Fork()});
      }
    }
    levels_.push_back(std::move(level));
  }
}

void LargeCommon::Process(const Edge& edge) {
  for (Level& level : levels_) {
    if (!level.sampler.Sampled(edge.set)) continue;
    level.coverage.Add(edge.element);
    if (level.group_hash.has_value()) {
      uint64_t g = level.group_hash->MapRange(edge.set,
                                              level.group_coverage.size());
      level.group_coverage[g].Add(edge.element);
    }
  }
}

void LargeCommon::ProcessBatch(const PrefoldedEdges& batch) {
  const IndexedBatch indexed(batch);
  const PrefoldedEdges& b = indexed.view();
  const size_t sets = b.num_distinct_sets;
  struct Scratch {
    std::vector<uint64_t> keys, groups;
  };
  thread_local Scratch s;
  uint64_t* keys = GrowTo(s.keys, sets);
  uint64_t* groups = GrowTo(s.groups, sets);
  for (Level& level : levels_) {
    // Per distinct set: its sample key and, when sampled, its group.
    level.sampler.SampleKeysFoldedBatch(b.distinct_set_folded, keys, sets);
    if (level.group_hash.has_value()) {
      for (size_t d = 0; d < sets; ++d) {
        if (keys[d] != 0) continue;
        groups[d] = level.group_hash->MapRangeFolded(
            b.distinct_set_folded[d], level.group_coverage.size());
      }
    }
    for (size_t i = 0; i < b.size; ++i) {
      const uint32_t d = b.set_slot[i];
      if (keys[d] != 0) continue;
      level.coverage.AddFolded(b.element_folded[i]);
      if (level.group_hash.has_value()) {
        level.group_coverage[groups[d]].AddFolded(b.element_folded[i]);
      }
    }
  }
}

void LargeCommon::Merge(const LargeCommon& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(levels_.size(), other.levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    Level& mine = levels_[i];
    const Level& theirs = other.levels_[i];
    mine.coverage.Merge(theirs.coverage);
    CHECK_EQ(mine.group_coverage.size(), theirs.group_coverage.size());
    for (size_t g = 0; g < mine.group_coverage.size(); ++g) {
      mine.group_coverage[g].Merge(theirs.group_coverage[g]);
    }
  }
}

std::optional<std::pair<size_t, double>> LargeCommon::BestLevel() const {
  const Params& p = config_.params;
  double u = static_cast<double>(config_.universe_size);
  std::optional<std::pair<size_t, double>> best;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    double val = level.coverage.Estimate();
    double threshold = p.sigma * level.beta * u / (4.0 * p.alpha);
    if (val < threshold) continue;
    // Observation 2.4 + the (1 ± 1/2) L0 guarantee: 2·VAL/(3β) never exceeds
    // the best k-cover within the sample, hence never exceeds OPT. Like
    // LargeSet and SmallSet, never report more than the universe: the L0
    // estimate itself can overshoot it.
    double estimate = std::min(2.0 * val / (3.0 * level.beta), u);
    if (!best || estimate > best->second) best = {{i, estimate}};
  }
  return best;
}

EstimateOutcome LargeCommon::Finalize(size_t* level) const {
  EstimateOutcome out;
  out.source = "large-common";
  auto best = BestLevel();
  if (!best) return out;  // infeasible
  if (level != nullptr) *level = best->first;
  out.feasible = true;
  out.estimate = best->second;
  return out;
}

std::vector<SetId> LargeCommon::ExtractSolution(uint64_t max_sets) const {
  CHECK(config_.reporting);
  auto best = BestLevel();
  if (!best) return {};
  return ExtractSolution(best->first, max_sets);
}

std::vector<SetId> LargeCommon::ExtractSolution(size_t level_index,
                                                uint64_t max_sets) const {
  CHECK(config_.reporting);
  CHECK_LT(level_index, levels_.size());
  std::vector<SetId> out;
  const Level& level = levels_[level_index];
  CHECK(level.group_hash.has_value());
  // Best group by estimated coverage.
  size_t best_group = 0;
  double best_cov = -1;
  for (size_t g = 0; g < level.group_coverage.size(); ++g) {
    double cov = level.group_coverage[g].Estimate();
    if (cov > best_cov) {
      best_cov = cov;
      best_group = g;
    }
  }
  // Membership is recomputable: scan set-id space once at output time.
  for (SetId s = 0; s < config_.params.m && out.size() < max_sets; ++s) {
    if (level.sampler.Sampled(s) &&
        level.group_hash->MapRange(s, level.group_coverage.size()) ==
            best_group) {
      out.push_back(s);
    }
  }
  return out;
}

size_t LargeCommon::MemoryBytes() const {
  size_t bytes = 0;
  for (const Level& level : levels_) {
    bytes += level.sampler.MemoryBytes() + level.coverage.MemoryBytes();
    if (level.group_hash.has_value()) bytes += level.group_hash->MemoryBytes();
    for (const auto& g : level.group_coverage) bytes += g.MemoryBytes();
  }
  return bytes;
}

void LargeCommon::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  for (const Level& level : levels_) {
    level.coverage.ReportSpace(acct);
    for (const auto& g : level.group_coverage) g.ReportSpace(acct);
  }
}

}  // namespace streamkc
