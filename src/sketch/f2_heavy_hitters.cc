#include "sketch/f2_heavy_hitters.h"

#include <algorithm>
#include <cmath>

#include "hash/mersenne.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/serialize.h"

namespace streamkc {

namespace {

CountSketch::Config MakeCountSketchConfig(const F2HeavyHitters::Config& c,
                                          uint64_t seed) {
  CountSketch::Config cs;
  cs.depth = c.depth;
  double w = c.width_factor / c.phi;
  cs.width = static_cast<uint32_t>(
      std::min<double>(std::max(w, 8.0), static_cast<double>(c.max_width)));
  cs.seed = seed;
  return cs;
}

}  // namespace

F2HeavyHitters::F2HeavyHitters(const Config& config)
    : config_(config),
      count_sketch_(MakeCountSketchConfig(config, SplitMix64(config.seed))),
      capacity_(static_cast<size_t>(
          std::max(4.0, config.cand_factor / config.phi))) {
  CHECK_GT(config.phi, 0.0);
  CHECK_LE(config.phi, 1.0);
  candidates_.reserve(2 * capacity_ + 1);
}

void F2HeavyHitters::Add(uint64_t id, int64_t delta) {
  AddFolded(id, MersenneFold(id), delta);
}

void F2HeavyHitters::AddFolded(uint64_t id, uint64_t folded, int64_t delta) {
  uint64_t hashes[CountSketch::kMaxDepth];
  count_sketch_.HashFolded(folded, hashes);
  AddHashed(id, hashes, 1, delta);
}

void F2HeavyHitters::AddIndexedBatch(const uint64_t* ids,
                                     const uint64_t* folded, size_t num_ids,
                                     const uint32_t* slot, size_t n,
                                     int64_t delta) {
  // Row-major: entry d's row-r hash at hashes[r·num_ids + d].
  thread_local std::vector<uint64_t> scratch;
  uint64_t* hashes = GrowTo(scratch, size_t{config_.depth} * num_ids);
  count_sketch_.HashFoldedBatch(folded, num_ids, hashes);
  for (size_t j = 0; j < n; ++j) {
    const uint32_t d = slot[j];
    AddHashed(ids[d], hashes + d, num_ids, delta);
  }
}

void F2HeavyHitters::AddHashed(uint64_t id, const uint64_t* row_hashes,
                               size_t stride, int64_t delta) {
  count_sketch_.AddHashed(row_hashes, stride, delta);
  auto it = candidates_.find(id);
  if (it != candidates_.end()) {
    it->second += static_cast<double>(delta > 0 ? delta : -delta);
    return;
  }
  // Cheap admission gate before touching the candidate set: one row-0
  // estimate against the running row-0 F2. A φ-heavy coordinate reads
  // ≥ √(φF2) - noise and passes comfortably; most light coordinates fail,
  // which keeps map churn (and amortized point queries) low. A heavy
  // coordinate unluckily gated on one update passes on a later one — in an
  // insertion-only stream its estimate only grows.
  double quick = count_sketch_.QuickEstimateHashed(row_hashes);
  if (quick * quick * 6.0 < config_.phi * count_sketch_.QuickF2()) return;
  candidates_[id] = count_sketch_.PointQueryHashed(row_hashes, stride);
  if (candidates_.size() > 2 * capacity_) PruneCandidates();
}

void F2HeavyHitters::PruneCandidates() {
  // Refresh all scores with true point estimates, then keep the top
  // `capacity_`. Amortized O(1) queries per insertion.
  std::vector<std::pair<double, uint64_t>> entries;
  entries.reserve(candidates_.size());
  for (const auto& [id, score] : candidates_) {
    (void)score;
    entries.emplace_back(count_sketch_.PointQuery(id), id);
  }
  std::nth_element(
      entries.begin(), entries.begin() + static_cast<long>(capacity_),
      entries.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  entries.resize(capacity_);
  candidates_.clear();
  for (const auto& [est, id] : entries) candidates_[id] = est;
}

namespace {
constexpr uint32_t kHhMagic = 0x46324848;  // "F2HH"
}  // namespace

void F2HeavyHitters::Save(std::ostream& os) const {
  WriteHeader(os, kHhMagic, 1);
  WriteDouble(os, config_.phi);
  WriteU32(os, config_.depth);
  WriteDouble(os, config_.width_factor);
  WriteDouble(os, config_.cand_factor);
  WriteDouble(os, config_.noise_floor_sigmas);
  WriteU32(os, config_.max_width);
  WriteU64(os, config_.seed);
  count_sketch_.Save(os);
  // Candidates in id order, so the blob is a function of the state and not
  // of the map's insertion history: Save(Load(blob)) == blob.
  std::vector<std::pair<uint64_t, double>> sorted(candidates_.begin(),
                                                  candidates_.end());
  std::sort(sorted.begin(), sorted.end());
  WriteU64(os, sorted.size());
  for (const auto& [id, score] : sorted) {
    WriteU64(os, id);
    WriteDouble(os, score);
  }
}

F2HeavyHitters F2HeavyHitters::Load(std::istream& is) {
  CheckHeader(is, kHhMagic, 1);
  Config config;
  config.phi = ReadDouble(is);
  config.depth = ReadU32(is);
  config.width_factor = ReadDouble(is);
  config.cand_factor = ReadDouble(is);
  config.noise_floor_sigmas = ReadDouble(is);
  config.max_width = ReadU32(is);
  config.seed = ReadU64(is);
  F2HeavyHitters out(config);
  out.count_sketch_ = CountSketch::Load(is);
  uint64_t n = ReadU64(is);
  CHECK_LE(n, 4 * out.capacity_ + 16);
  out.candidates_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = ReadU64(is);
    out.candidates_[id] = ReadDouble(is);
  }
  return out;
}

void F2HeavyHitters::Merge(const F2HeavyHitters& other) {
  // Full config equality, not just seed + phi: depth/width_factor/max_width
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
  CHECK_EQ(config_.max_width, other.config_.max_width);
  count_sketch_.Merge(other.count_sketch_);
  for (const auto& [id, score] : other.candidates_) {
    (void)score;
    candidates_.try_emplace(id, 0.0);
  }
  if (candidates_.size() > capacity_) PruneCandidates();
}

std::vector<HeavyHitter> F2HeavyHitters::Extract() const {
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
  for (const auto& [id, score] : candidates_) {
    (void)score;
    double est = count_sketch_.PointQuery(id);
    if (est >= thr && est > 0) out.push_back(HeavyHitter{id, est});
  }
  std::sort(out.begin(), out.end(), [](const HeavyHitter& a, const HeavyHitter& b) {
    return a.estimate > b.estimate;
  });
  return out;
}

size_t F2HeavyHitters::MemoryBytes() const {
  return count_sketch_.MemoryBytes() + UnorderedMapBytes(candidates_);
}

void F2HeavyHitters::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  count_sketch_.ReportSpace(acct);
}

}  // namespace streamkc
