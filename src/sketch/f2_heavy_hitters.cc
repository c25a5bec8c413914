#include "sketch/f2_heavy_hitters.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "hash/mersenne.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"
#include "util/serialize.h"

namespace streamkc {

namespace {

constexpr double kMaxWidth = 1u << 22;

CountSketch::Config MakeCountSketchConfig(const F2HeavyHitters::Config& c) {
  CountSketch::Config cs;
  cs.depth = c.depth;
  double w = c.width_factor / c.phi;
  cs.width = static_cast<uint32_t>(std::min(std::max(w, 8.0), kMaxWidth));
  cs.seed = SplitMix64(c.seed);
  return cs;
}

// Most frequent first; ties to the smaller id, so that the order is a
// function of the estimates alone.
bool MoreFrequent(const HeavyHitter& a, const HeavyHitter& b) {
  return a.estimate > b.estimate || (a.estimate == b.estimate && a.id < b.id);
}

}  // namespace

F2HeavyHitters::F2HeavyHitters(const Config& config)
    : config_(config),
      count_sketch_(CountSketch::CountersOnly(MakeCountSketchConfig(config))),
      capacity_(static_cast<size_t>(
          std::max(4.0, config.cand_factor / config.phi))) {
  CHECK_GT(config.phi, 0.0);
  CHECK_LE(config.phi, 1.0);
  candidates_.reserve(2 * capacity_ + 1);
}

void F2HeavyHitters::Add(const CountSketchRows& rows, uint64_t id,
                         int64_t delta) {
  CHECK_EQ(rows.depth(), config_.depth);
  uint64_t hashes[CountSketch::kMaxDepth];
  rows.HashFolded(MersenneFold(id), hashes);
  const HashedIds one{&id, hashes, nullptr, &delta, 1};
  const uint32_t entry = 0;
  AddCounts(one, &entry, 1);
  Admit(rows, one, &entry, 1);
}

void F2HeavyHitters::AddCounts(const HashedIds& block, const uint32_t* entries,
                               size_t num) {
  for (size_t i = 0; i < num; ++i) {
    const uint32_t e = entries[i];
    count_sketch_.AddHashed(block.row_hashes + e, block.n, block.counts[e]);
  }
}

bool F2HeavyHitters::IsCandidate(uint64_t id) const {
  return std::binary_search(candidates_.begin(), candidates_.end(), id);
}

bool F2HeavyHitters::PassesGates(const uint64_t* row_hashes,
                                 size_t stride) const {
  // A φ-heavy coordinate reads ≥ √(φF2) - noise and passes comfortably;
  // most light coordinates fail the one-counter row-0 gate already, which
  // keeps point queries and candidate churn low. The median estimate must
  // then pass the same test, so that one lucky row-0 bucket does not admit.
  const double bar = config_.phi * count_sketch_.QuickF2();
  const double quick = count_sketch_.QuickEstimateHashed(row_hashes);
  if (quick * quick * 6.0 < bar) return false;
  const double est = count_sketch_.PointQueryHashed(row_hashes, stride);
  return est * est * 6.0 >= bar;
}

void F2HeavyHitters::Admit(const CountSketchRows& rows, const HashedIds& window,
                           const uint32_t* entries, size_t num) {
  for (size_t i = 0; i < num; ++i) {
    const uint32_t e = entries[i];
    const uint64_t id = window.ids[e];
    // The gates first: most ids fail the row-0 one, which reads one
    // counter, while membership is a search.
    if (!PassesGates(window.row_hashes + e, window.n) || IsCandidate(id)) {
      continue;
    }
    candidates_.insert(
        std::lower_bound(candidates_.begin(), candidates_.end(), id), id);
    if (candidates_.size() > 2 * capacity_) PruneCandidates(rows);
  }
}

std::vector<double> F2HeavyHitters::CandidateEstimates(
    const CountSketchRows& rows) const {
  CHECK_EQ(rows.depth(), config_.depth);
  struct Scratch {
    std::vector<uint64_t> folded, hashes;
  };
  thread_local Scratch s;
  const size_t n = candidates_.size();
  uint64_t* folded = GrowTo(s.folded, n);
  uint64_t* hashes = GrowTo(s.hashes, size_t{config_.depth} * n);
  for (size_t j = 0; j < n; ++j) folded[j] = MersenneFold(candidates_[j]);
  rows.HashFoldedBatch(folded, n, hashes);
  std::vector<double> est(n);
  for (size_t j = 0; j < n; ++j) {
    est[j] = count_sketch_.PointQueryHashed(hashes + j, n);
  }
  return est;
}

void F2HeavyHitters::PruneCandidates(const CountSketchRows& rows) {
  // Keep the top `capacity_` by point estimate, ties to the smaller id.
  // Amortized O(1) queries per admission.
  const std::vector<double> est = CandidateEstimates(rows);
  std::vector<uint32_t> order(candidates_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(),
                   order.begin() + static_cast<long>(capacity_), order.end(),
                   [&est](uint32_t a, uint32_t b) {
                     return est[a] > est[b] || (est[a] == est[b] && a < b);
                   });
  order.resize(capacity_);
  // Positions ascending are ids ascending, and order[j] ≥ j, so the kept
  // ids compact in place.
  std::sort(order.begin(), order.end());
  for (size_t j = 0; j < order.size(); ++j) {
    candidates_[j] = candidates_[order[j]];
  }
  candidates_.resize(capacity_);
}

namespace {
constexpr uint32_t kHhMagic = 0x46324848;  // "F2HH"
}  // namespace

void F2HeavyHitters::Save(std::ostream& os) const {
  WriteHeader(os, kHhMagic, 3);
  WriteDouble(os, config_.phi);
  WriteU32(os, config_.depth);
  WriteDouble(os, config_.width_factor);
  WriteDouble(os, config_.cand_factor);
  WriteDouble(os, config_.noise_floor_sigmas);
  WriteU64(os, config_.seed);
  count_sketch_.Save(os);
  WriteU64(os, candidates_.size());
  for (uint64_t id : candidates_) WriteU64(os, id);
}

F2HeavyHitters F2HeavyHitters::Load(std::istream& is) {
  CheckHeader(is, kHhMagic, 3);
  Config config;
  config.phi = ReadDouble(is);
  config.depth = ReadU32(is);
  config.width_factor = ReadDouble(is);
  config.cand_factor = ReadDouble(is);
  config.noise_floor_sigmas = ReadDouble(is);
  config.seed = ReadU64(is);
  F2HeavyHitters out(config);
  out.count_sketch_ = CountSketch::LoadCountersOnly(is);
  uint64_t n = ReadU64(is);
  CHECK_LE(n, 4 * out.capacity_ + 16);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t id = ReadU64(is);
    CHECK(out.candidates_.empty() || out.candidates_.back() < id);
    out.candidates_.push_back(id);
  }
  return out;
}

void F2HeavyHitters::Merge(const F2HeavyHitters& other,
                           const CountSketchRows& rows) {
  // Full config equality, not just seed + phi: depth and width_factor
  // determine the CountSketch geometry and cand_factor the candidate
  // capacity. The inner CountSketch re-checks its own shape, but failing
  // here names the mismatched field instead of a derived quantity, and
  // cand_factor/noise_floor_sigmas are NOT covered by any inner check —
  // a mismatch would silently merge incompatible candidate policies.
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(config_.phi, other.config_.phi);
  CHECK_EQ(config_.depth, other.config_.depth);
  CHECK_EQ(config_.width_factor, other.config_.width_factor);
  CHECK_EQ(config_.cand_factor, other.config_.cand_factor);
  CHECK_EQ(config_.noise_floor_sigmas, other.config_.noise_floor_sigmas);
  count_sketch_.Merge(other.count_sketch_);
  std::vector<uint64_t> merged;
  merged.reserve(candidates_.size() + other.candidates_.size());
  std::set_union(candidates_.begin(), candidates_.end(),
                 other.candidates_.begin(), other.candidates_.end(),
                 std::back_inserter(merged));
  candidates_.assign(merged.begin(), merged.end());
  if (candidates_.size() > capacity_) PruneCandidates(rows);
}

std::vector<HeavyHitter> F2HeavyHitters::Extract(const CountSketchRows& rows,
                                                 const HashedIds& open,
                                                 const uint32_t* entries,
                                                 size_t num) const {
  double f2 = std::max(EstimateF2(), 0.0);
  // Admission threshold, two parts:
  //  * heaviness: est ≥ √(φ·F2̂/4) — the 1/4 slack absorbs the (1 ± 1/2)
  //    estimation error on the coordinate and on F2, so every truly φ-heavy
  //    coordinate is admitted w.h.p.;
  //  * noise floor: est ≥ 3·√(F2̂/width) — three per-row standard deviations
  //    of CountSketch noise. Without it, streams with NO heavy coordinate
  //    (large F2 spread over many light ids) produce spurious hitters from
  //    bucket noise; with width = 16/φ the floor is 0.75·√(φF2), still below
  //    any real φ-heavy coordinate.
  double noise_floor =
      config_.noise_floor_sigmas *
      std::sqrt(f2 / static_cast<double>(count_sketch_.width()));
  double thr = std::max(std::sqrt(config_.phi * f2 / 4.0), noise_floor);
  std::vector<HeavyHitter> out;
  auto report = [&out, thr](uint64_t id, double est) {
    if (est >= thr && est > 0) out.push_back(HeavyHitter{id, est});
  };
  const std::vector<double> est = CandidateEstimates(rows);
  for (size_t j = 0; j < candidates_.size(); ++j) {
    report(candidates_[j], est[j]);
  }
  // The open window's ids, through Admit's gates but without mutation.
  for (size_t i = 0; i < num; ++i) {
    const uint32_t e = entries[i];
    const uint64_t* row_hashes = open.row_hashes + e;
    if (!PassesGates(row_hashes, open.n) || IsCandidate(open.ids[e])) continue;
    report(open.ids[e], count_sketch_.PointQueryHashed(row_hashes, open.n));
  }
  std::sort(out.begin(), out.end(), MoreFrequent);
  return out;
}

size_t F2HeavyHitters::MemoryBytes() const {
  return count_sketch_.MemoryBytes() + VectorBytes(candidates_);
}

void F2HeavyHitters::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  count_sketch_.ReportSpace(acct);
}

}  // namespace streamkc
