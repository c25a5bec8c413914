#include "core/oracle.h"

#include "core/set_index.h"
#include "util/check.h"
#include "util/random.h"

namespace streamkc {

Oracle::Oracle(const Config& config) : config_(config) {
  const Params& p = config.params;
  CHECK_GT(config.universe_size, 0u);
  Rng rng(config.seed);

  LargeCommon::Config lc;
  lc.params = p;
  lc.universe_size = config.universe_size;
  lc.reporting = config.reporting;
  lc.seed = rng.Fork();
  large_common_ = std::make_unique<LargeCommon>(lc);

  bool few_sets_dominate = p.s * p.alpha >= 2.0 * static_cast<double>(p.k);
  LargeSet::Config ls;
  ls.params = p;
  ls.universe_size = config.universe_size;
  // Figure 2: w = k when sα ≥ 2k (then |OPT_large| covers half of OPT
  // unconditionally, Claim 4.3); otherwise w = α.
  ls.w = few_sets_dominate ? static_cast<double>(p.k) : p.alpha;
  ls.reporting = config.reporting;
  ls.seed = rng.Fork();
  large_set_ = std::make_unique<LargeSet>(ls);

  if (!few_sets_dominate) {
    SmallSet::Config ss;
    ss.params = p;
    ss.universe_size = config.universe_size;
    ss.reporting = config.reporting;
    ss.seed = rng.Fork();
    small_set_ = std::make_unique<SmallSet>(ss);
  }
}

void Oracle::Process(const Edge& edge) {
  large_common_->Process(edge);
  large_set_->Process(edge);
  if (small_set_ != nullptr) small_set_->Process(edge);
}

void Oracle::ProcessBatch(const PrefoldedEdges& batch) {
  const IndexedBatch indexed(batch);
  large_common_->ProcessBatch(indexed.view());
  large_set_->ProcessBatch(indexed.view());
  if (small_set_ != nullptr) small_set_->ProcessBatch(indexed.view());
}

void Oracle::Merge(const Oracle& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(small_set_ != nullptr, other.small_set_ != nullptr);
  large_common_->Merge(*other.large_common_);
  large_set_->Merge(*other.large_set_);
  if (small_set_ != nullptr) small_set_->Merge(*other.small_set_);
}

EstimateOutcome Oracle::Finalize() const { return FinalizeForReport().outcome; }

Oracle::Finalized Oracle::FinalizeForReport() const {
  Finalized best;
  best.outcome.source = "oracle-infeasible";
  auto consider = [&best](const EstimateOutcome& out) {
    bool better = out.feasible && (!best.outcome.feasible ||
                                   out.estimate > best.outcome.estimate);
    if (better) best.outcome = out;
    return better;
  };
  consider(large_common_->Finalize(&best.large_common_level));
  consider(large_set_->Finalize(&best.large_set_winner));
  if (small_set_ != nullptr) {
    std::vector<SetId> sets;
    if (consider(small_set_->Finalize(&sets))) {
      best.small_set_sets = std::move(sets);
    }
  }
  return best;
}

std::vector<SetId> Oracle::ExtractSolution(uint64_t max_sets) const {
  return ExtractSolution(FinalizeForReport(), max_sets);
}

std::vector<SetId> Oracle::ExtractSolution(const Finalized& finalized,
                                           uint64_t max_sets) const {
  const EstimateOutcome& best = finalized.outcome;
  if (!best.feasible) return {};
  if (best.source == "large-common") {
    return large_common_->ExtractSolution(finalized.large_common_level,
                                          max_sets);
  }
  if (best.source == "large-set") {
    return large_set_->ExtractSolution(finalized.large_set_winner, max_sets);
  }
  std::vector<SetId> sets = finalized.small_set_sets;
  if (sets.size() > max_sets) sets.resize(max_sets);
  return sets;
}

size_t Oracle::MemoryBytes() const {
  size_t bytes = large_common_->MemoryBytes() + large_set_->MemoryBytes();
  if (small_set_ != nullptr) bytes += small_set_->MemoryBytes();
  return bytes;
}

void Oracle::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  large_common_->ReportSpace(acct);
  large_set_->ReportSpace(acct);
  if (small_set_ != nullptr) small_set_->ReportSpace(acct);
}

}  // namespace streamkc
