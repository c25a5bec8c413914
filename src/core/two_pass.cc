#include "core/two_pass.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"

namespace streamkc {

TwoPassMaxCover::TwoPassMaxCover(const Config& config) : config_(config) {
  Rng rng(config.seed);
  covered_ = std::make_unique<L0Estimator>(
      L0Estimator::Config{.num_mins = config.params.l0_num_mins,
                          .seed = rng.Fork()});
}

void TwoPassMaxCover::ProcessBatch(const PrefoldedEdges& batch) {
  if (first_pass_done_) {
    second_->ProcessBatch(batch);
  } else {
    covered_->AddFoldedBatch(batch.element_folded, batch.size);
  }
  peak_bytes_ = std::max(peak_bytes_, MemoryBytes());
}

void TwoPassMaxCover::ProcessFirstPass(const Edge& edge) {
  CHECK(!first_pass_done_);
  covered_->Add(edge.element);
  peak_bytes_ = std::max(peak_bytes_, covered_->MemoryBytes());
}

void TwoPassMaxCover::FinishFirstPass() {
  CHECK(!first_pass_done_);
  first_pass_done_ = true;
  const Params& p = config_.params;

  double c_hat = covered_->Estimate();
  // KMV is (1 ± ε)-accurate; widen by its error bar so the true OPT's guess
  // stays inside the bracket w.h.p.
  double eps = 2.0 / std::sqrt(static_cast<double>(p.l0_num_mins));
  double hi = c_hat * (1.0 + eps);
  double lo = c_hat * (1.0 - eps) * static_cast<double>(p.k) /
              static_cast<double>(p.m);
  guess_hi_ = std::max<uint64_t>(2, static_cast<uint64_t>(std::ceil(hi)));
  guess_lo_ = std::max<uint64_t>(2, static_cast<uint64_t>(std::floor(lo)));
  guess_lo_ = std::min(guess_lo_, guess_hi_);

  // Pass-1 sketch is no longer needed; free it before building pass 2 so
  // peak memory reflects the phases' true maximum.
  covered_.reset();

  EstimateMaxCover::Config ec;
  ec.params = p;
  ec.reporting = config_.reporting;
  ec.guess_lo = guess_lo_;
  ec.guess_hi = guess_hi_;
  ec.seed = SplitMix64(config_.seed ^ 0x2b2b);
  second_ = std::make_unique<EstimateMaxCover>(ec);
}

void TwoPassMaxCover::ProcessSecondPass(const Edge& edge) {
  CHECK(first_pass_done_);
  second_->Process(edge);
  peak_bytes_ = std::max(peak_bytes_, second_->MemoryBytes());
}

EstimateOutcome TwoPassMaxCover::Finalize() const {
  CHECK(first_pass_done_);
  return second_->Finalize();
}

std::vector<SetId> TwoPassMaxCover::ExtractSolution(uint64_t max_sets) const {
  CHECK(first_pass_done_);
  return second_->ExtractSolution(max_sets);
}

uint32_t TwoPassMaxCover::num_oracles() const {
  CHECK(first_pass_done_);
  return second_->num_oracles();
}

size_t TwoPassMaxCover::MemoryBytes() const {
  if (!first_pass_done_) return covered_->MemoryBytes();
  return second_->MemoryBytes();
}

}  // namespace streamkc
