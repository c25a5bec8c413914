#include "shadow.h"

#include <algorithm>
#include <optional>
#include <set>

#include "hash/mersenne.h"
#include "util/math_util.h"
#include "util/random.h"

namespace perfbench {

using namespace streamkc;

namespace {

// ReportMaxCover hands EstimateMaxCover this seed; EstimateMaxCover forks
// every per-oracle seed from it in construction order.
uint64_t EstimatorSeed(const ServingState::Config& config) {
  return SplitMix64(config.seed ^ 0xeeee);
}

bool TrivialBranch(const Params& p) {
  return static_cast<double>(p.k) * p.alpha >= static_cast<double>(p.m);
}

}  // namespace

ShadowStack::ShadowStack(const ServingState::Config& config, Tracer* tracer)
    : params_(config.params),
      tracer_(tracer),
      // The trivial branch's L0 takes the estimator's first fork.
      l0_(L0Estimator::Config{.num_mins = config.params.l0_num_mins,
                              .seed = Rng(EstimatorSeed(config)).Fork()}),
      set_coverage_(CountSketch::Config{
          .depth = config.set_sketch_depth,
          .width = config.set_sketch_width,
          .seed = SplitMix64(config.seed ^ 0x5e7c0e5aul)}),
      fourwise_(KWiseHash::FourWise(SplitMix64(config.seed ^ 0x4444))),
      logwise_(config.params.log_wise_degree,
               SplitMix64(config.seed ^ 0x1064)) {
  const Params& p = params_;
  l0_span_ = tracer_->Intern("sketch.l0");
  set_coverage_span_ = tracer_->Intern("sketch.set_coverage");
  fourwise_span_ = tracer_->Intern("hash.fourwise");
  logwise_span_ = tracer_->Intern("hash.logwise");
  lc_finalize_span_ = tracer_->Intern("core.large_common.finalize");
  ls_finalize_span_ = tracer_->Intern("core.large_set.finalize");
  ss_finalize_span_ = tracer_->Intern("core.small_set.finalize");
  estimate_finalize_span_ = tracer_->Intern("core.estimate.finalize");
  extract_span_ = tracer_->Intern("core.estimate.extract");
  mirror_.push_back("sketch.set_coverage");
  if (TrivialBranch(p)) {
    mirror_.push_back("sketch.l0");
    return;
  }

  // The guess grid of EstimateMaxCover's constructor (no prior bracket).
  std::vector<uint32_t> exponents;
  const uint32_t step = std::max<uint32_t>(1, p.universe_guess_log_step);
  for (int32_t i = static_cast<int32_t>(CeilLog2(p.n)); i >= 0;
       i -= static_cast<int32_t>(step)) {
    uint64_t z = 1ULL << i;
    if (z < p.min_universe_guess && z < p.n) break;
    exponents.push_back(static_cast<uint32_t>(i));
  }
  // Oracle's subroutine choice: w = k and no SmallSet when sα ≥ 2k.
  const bool few_sets_dominate =
      p.s * p.alpha >= 2.0 * static_cast<double>(p.k);
  Rng rng(EstimatorSeed(config));
  for (uint32_t j : exponents) {
    const uint64_t z = 1ULL << j;
    const std::string suffix = ".z" + std::to_string(j);
    for (uint32_t rep = 0; rep < p.universe_reduction_reps; ++rep) {
      const uint64_t oracle_seed = rng.Fork();
      Level level{j, z, UniverseReduction(z, rng.Fork()), nullptr, nullptr,
                  nullptr};
      Rng orng(oracle_seed);
      level.large_common = std::make_unique<LargeCommon>(LargeCommon::Config{
          .params = p, .universe_size = z, .reporting = true,
          .seed = orng.Fork()});
      level.large_set = std::make_unique<LargeSet>(LargeSet::Config{
          .params = p,
          .universe_size = z,
          .w = few_sets_dominate ? static_cast<double>(p.k) : p.alpha,
          .reporting = true,
          .seed = orng.Fork()});
      if (!few_sets_dominate) {
        level.small_set = std::make_unique<SmallSet>(SmallSet::Config{
            .params = p, .universe_size = z, .reporting = true,
            .seed = orng.Fork()});
      }
      level.reduce_span = tracer_->Intern("core.reduce" + suffix);
      level.lc_span = tracer_->Intern("core.large_common" + suffix);
      level.ls_span = tracer_->Intern("core.large_set" + suffix);
      level.ss_span = tracer_->Intern("core.small_set" + suffix);
      levels_.push_back(std::move(level));
    }
    for (const char* component :
         {"core.reduce", "core.large_common", "core.large_set",
          "core.small_set"}) {
      mirror_.push_back(component + suffix);
    }
  }
}

void ShadowStack::ProcessBatch(const PrefoldedEdges& batch, uint64_t batch_id,
                               uint64_t parent) {
  const size_t n = batch.size;
  mapped_edges_.resize(n);
  mapped_.resize(n);
  mapped_folded_.resize(n);
  hash_out_.resize(n);
  uint64_t t = NowNs();
  auto mark = [&](uint32_t name) {
    uint64_t now = NowNs();
    tracer_->Add(name, batch_id, parent, t, now);
    t = now;
  };
  for (Level& level : levels_) {
    level.reduction.MapFoldedBatch(batch.element_folded, mapped_.data(), n);
    for (size_t i = 0; i < n; ++i) {
      mapped_edges_[i] = Edge{batch.edges[i].set, mapped_[i]};
      mapped_folded_[i] = MersenneFold(mapped_[i]);
    }
    mark(level.reduce_span);
    const PrefoldedEdges view{mapped_edges_.data(), batch.set_folded,
                              mapped_folded_.data(), n};
    level.large_common->ProcessBatch(view);
    mark(level.lc_span);
    level.large_set->ProcessBatch(view);
    mark(level.ls_span);
    if (level.small_set != nullptr) {
      level.small_set->ProcessBatch(view);
      mark(level.ss_span);
    }
  }
  set_coverage_.AddFoldedBatch(batch.set_folded, n);
  mark(set_coverage_span_);
  l0_.AddFoldedBatch(batch.element_folded, n);
  mark(l0_span_);
  fourwise_.MapFoldedBatch(batch.element_folded, hash_out_.data(), n);
  mark(fourwise_span_);
  logwise_.MapFoldedBatch(batch.element_folded, hash_out_.data(), n);
  mark(logwise_span_);
}

MaxCoverSolution ShadowStack::Finalize(uint64_t epoch,
                                       uint32_t* levels_passing) {
  MaxCoverSolution sol;
  *levels_passing = 0;
  if (trivial()) {
    sol.estimate = l0_.Estimate() / params_.alpha;
    sol.source = "trivial";
    return sol;
  }
  Tracer::Scope estimate(tracer_, estimate_finalize_span_, epoch);
  std::vector<EstimateOutcome> outcomes(levels_.size());
  std::optional<std::pair<size_t, double>> best;
  std::set<uint32_t> passing;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    // Oracle::Finalize: the best feasible subroutine, in this order.
    EstimateOutcome& out = outcomes[i];
    out.source = "oracle-infeasible";
    auto consider = [&out](const EstimateOutcome& o) {
      if (o.feasible && (!out.feasible || o.estimate > out.estimate)) out = o;
    };
    uint64_t t0 = NowNs();
    EstimateOutcome lc = level.large_common->Finalize();
    uint64_t t1 = NowNs();
    tracer_->Add(lc_finalize_span_, epoch, estimate.id(), t0, t1);
    EstimateOutcome ls = level.large_set->Finalize();
    uint64_t t2 = NowNs();
    tracer_->Add(ls_finalize_span_, epoch, estimate.id(), t1, t2);
    consider(lc);
    consider(ls);
    if (level.small_set != nullptr) {
      EstimateOutcome ss = level.small_set->Finalize();
      tracer_->Add(ss_finalize_span_, epoch, estimate.id(), t2, NowNs());
      consider(ss);
    }
    // EstimateMaxCover::BestLevel: the threshold z/(4α), then the max.
    if (!out.feasible) continue;
    if (out.estimate < static_cast<double>(level.z) / (4.0 * params_.alpha)) {
      continue;
    }
    passing.insert(level.j);
    if (!best || out.estimate > best->second) best = {{i, out.estimate}};
  }
  estimate.End();
  *levels_passing = static_cast<uint32_t>(passing.size());
  if (!best) {
    sol.source = "no-guess-passed";
    return sol;
  }
  const Level& winner = levels_[best->first];
  sol.estimate = best->second;
  sol.source = outcomes[best->first].source;
  Tracer::Scope extract(tracer_, extract_span_, epoch);
  if (sol.source == "large-common") {
    sol.sets = winner.large_common->ExtractSolution(params_.k);
  } else if (sol.source == "large-set") {
    sol.sets = winner.large_set->ExtractSolution(params_.k);
  } else if (winner.small_set != nullptr) {
    sol.sets = winner.small_set->ExtractSolution(params_.k);
  }
  return sol;
}

std::vector<uint32_t> ShadowStack::GuessExponents() const {
  std::vector<uint32_t> out;
  for (const Level& level : levels_) {
    if (out.empty() || out.back() != level.j) out.push_back(level.j);
  }
  return out;
}

size_t ShadowStack::LargeSetBytes(uint32_t j) const {
  size_t bytes = 0;
  for (const Level& level : levels_) {
    if (level.j == j) bytes += level.large_set->MemoryBytes();
  }
  return bytes;
}

size_t ShadowStack::SmallSetBytes(uint32_t j) const {
  size_t bytes = 0;
  for (const Level& level : levels_) {
    if (level.j == j && level.small_set != nullptr) {
      bytes += level.small_set->MemoryBytes();
    }
  }
  return bytes;
}

}  // namespace perfbench
