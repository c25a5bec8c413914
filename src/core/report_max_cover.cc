#include "core/report_max_cover.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace streamkc {

namespace {

EstimateMaxCover::Config MakeEstimatorConfig(
    const ReportMaxCover::Config& config) {
  EstimateMaxCover::Config ec;
  ec.params = config.params;
  ec.reporting = true;
  ec.seed = SplitMix64(config.seed ^ 0xeeee);
  return ec;
}

}  // namespace

void ReportMaxCover::BottomK::Add(SetId id) {
  uint64_t h = hash.Map(id);
  auto entry = std::make_pair(h, id);
  if (heap.size() < capacity) {
    if (std::find(heap.begin(), heap.end(), entry) != heap.end()) return;
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end());
    return;
  }
  if (heap.empty() || entry >= heap.front()) return;
  if (std::find(heap.begin(), heap.end(), entry) != heap.end()) return;
  std::pop_heap(heap.begin(), heap.end());
  heap.back() = entry;
  std::push_heap(heap.begin(), heap.end());
}

std::vector<SetId> ReportMaxCover::BottomK::Ids() const {
  std::vector<SetId> out;
  out.reserve(heap.size());
  for (const auto& [h, id] : heap) out.push_back(id);
  return out;
}

ReportMaxCover::ReportMaxCover(const Config& config)
    : config_(config),
      estimator_(MakeEstimatorConfig(config)),
      set_sample_{KWiseHash::Pairwise(SplitMix64(config.seed ^ 0xffff)),
                  {},
                  config.params.k} {
  CHECK_GT(config.params.k, 0u);
}

void ReportMaxCover::Process(const Edge& edge) {
  estimator_.Process(edge);
  if (estimator_.trivial_mode()) set_sample_.Add(edge.set);
}

void ReportMaxCover::ProcessBatch(const PrefoldedEdges& batch) {
  estimator_.ProcessBatch(batch);
  if (estimator_.trivial_mode()) {
    for (size_t i = 0; i < batch.size; ++i) set_sample_.Add(batch.edges[i].set);
  }
}

uint64_t ReportMaxCover::MergeFingerprint() const {
  return SplitMix64(estimator_.MergeFingerprint() ^
                    SplitMix64(set_sample_.capacity));
}

void ReportMaxCover::Merge(const ReportMaxCover& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  estimator_.Merge(other.estimator_);
  // Canonical bottom-k union: sort/unique the combined entries and keep the
  // smallest capacity of them. Rebuilding the heap keeps later Add() calls
  // valid (the merged state can keep streaming).
  auto& heap = set_sample_.heap;
  heap.insert(heap.end(), other.set_sample_.heap.begin(),
              other.set_sample_.heap.end());
  std::sort(heap.begin(), heap.end());
  heap.erase(std::unique(heap.begin(), heap.end()), heap.end());
  if (heap.size() > set_sample_.capacity) heap.resize(set_sample_.capacity);
  std::make_heap(heap.begin(), heap.end());
}

MaxCoverSolution ReportMaxCover::Finalize() const {
  MaxCoverSolution sol;
  EstimateOutcome est =
      estimator_.FinalizeWithSolution(config_.params.k, &sol.sets);
  sol.estimate = est.estimate;
  sol.source = est.source;
  if (estimator_.trivial_mode()) {
    // kα ≥ m: a uniform k-subset of the (distinct) observed sets — realized
    // as the bottom-k ids by hash value — has expected coverage ≥ OPT·k/m ≥
    // OPT/α.
    sol.sets = set_sample_.Ids();
  }
  return sol;
}

size_t ReportMaxCover::MemoryBytes() const {
  return estimator_.MemoryBytes() + VectorBytes(set_sample_.heap) +
         set_sample_.hash.MemoryBytes();
}

void ReportMaxCover::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  estimator_.ReportSpace(acct);
}

}  // namespace streamkc
