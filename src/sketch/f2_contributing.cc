#include "sketch/f2_contributing.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "hash/mersenne.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/serialize.h"

namespace streamkc {

F2Contributing::F2Contributing(const Config& config)
    : config_(config),
      sampler_(KWiseHash::LogWise(config.domain_size, config.domain_size,
                                  SplitMix64(config.seed ^ 0xabcd))) {
  CHECK_GT(config.gamma, 0.0);
  CHECK_GE(config.max_class_size, 1u);
  Rng rng(config.seed);

  uint32_t num_levels = CeilLog2(config.max_class_size) + 1;
  double log_m = Log2AtLeast1(static_cast<double>(config.domain_size));
  double phi = std::min(1.0, config.phi_factor * config.gamma);

  bool have_full_rate_level = false;
  for (uint32_t i = 0; i < num_levels; ++i) {
    double rate = std::min(1.0, config.sample_factor * log_m /
                                    static_cast<double>(1ULL << i));
    if (rate >= 1.0) {
      // All full-rate levels see the identical substream and run the same
      // heavy-hitter search, so one of them covers every class-size guess
      // 2^i with 2^i ≤ sample_factor·log m. Keep only the first.
      if (have_full_rate_level) continue;
      have_full_rate_level = true;
    }
    uint64_t num = static_cast<uint64_t>(rate * static_cast<double>(kRateDen));
    if (rate >= 1.0) num = kRateDen;
    num = std::max<uint64_t>(num, 1);
    F2HeavyHitters::Config hh;
    hh.phi = phi;
    hh.seed = rng.Fork();
    levels_.push_back(Level{num, F2HeavyHitters(hh)});
  }
  full_rate_only_ = std::all_of(
      levels_.begin(), levels_.end(),
      [](const Level& level) { return level.rate_num == kRateDen; });
}

void F2Contributing::Add(uint64_t id, int64_t delta) {
  AddFolded(id, MersenneFold(id), delta);
}

void F2Contributing::AddFolded(uint64_t id, uint64_t folded, int64_t delta) {
  if (full_rate_only_) {
    for (auto& level : levels_) level.hh.AddFolded(id, folded, delta);
    return;
  }
  // One shared hash evaluation; levels_ is sorted by decreasing rate, so the
  // first failing threshold ends the walk (samples are nested).
  uint64_t key = sampler_.MapRangeFolded(folded, kRateDen);
  for (auto& level : levels_) {
    if (key >= level.rate_num) break;
    level.hh.AddFolded(id, folded, delta);
  }
}

void F2Contributing::AddIndexedBatch(const uint64_t* ids,
                                     const uint64_t* folded, size_t num_ids,
                                     const uint32_t* slot, size_t n,
                                     int64_t delta) {
  if (full_rate_only_) {
    for (auto& level : levels_) {
      level.hh.AddIndexedBatch(ids, folded, num_ids, slot, n, delta);
    }
    return;
  }
  // The live entries (id, fold, key) and the live updates' entry numbers,
  // compacted in place as the levels narrow.
  struct Scratch {
    std::vector<uint64_t> keys, ids, folded;
    std::vector<uint32_t> renumber, slot;
  };
  thread_local Scratch s;
  uint64_t* keys = GrowTo(s.keys, num_ids);
  uint64_t* live_ids = GrowTo(s.ids, num_ids);
  uint64_t* live_folded = GrowTo(s.folded, num_ids);
  uint32_t* renumber = GrowTo(s.renumber, num_ids);
  uint32_t* live_slot = GrowTo(s.slot, n);
  sampler_.MapRangeFoldedBatch(folded, keys, num_ids, kRateDen);
  std::copy(ids, ids + num_ids, live_ids);
  std::copy(folded, folded + num_ids, live_folded);
  std::copy(slot, slot + n, live_slot);
  constexpr uint32_t kDropped = UINT32_MAX;
  size_t live = num_ids;
  size_t updates = n;
  for (auto& level : levels_) {
    size_t kept = 0;
    for (size_t d = 0; d < live; ++d) {
      if (keys[d] >= level.rate_num) {
        renumber[d] = kDropped;
        continue;
      }
      renumber[d] = static_cast<uint32_t>(kept);
      keys[kept] = keys[d];
      live_ids[kept] = live_ids[d];
      live_folded[kept] = live_folded[d];
      ++kept;
    }
    live = kept;
    kept = 0;
    for (size_t j = 0; j < updates; ++j) {
      const uint32_t d = renumber[live_slot[j]];
      if (d != kDropped) live_slot[kept++] = d;
    }
    updates = kept;
    if (updates == 0) break;
    level.hh.AddIndexedBatch(live_ids, live_folded, live, live_slot, updates,
                             delta);
  }
}

namespace {
constexpr uint32_t kFcMagic = 0x46324354;  // "F2CT"
}  // namespace

void F2Contributing::Save(std::ostream& os) const {
  WriteHeader(os, kFcMagic, 1);
  WriteDouble(os, config_.gamma);
  WriteU64(os, config_.max_class_size);
  WriteU64(os, config_.domain_size);
  WriteDouble(os, config_.phi_factor);
  WriteDouble(os, config_.sample_factor);
  WriteU64(os, config_.seed);
  WriteU64(os, levels_.size());
  for (const Level& level : levels_) level.hh.Save(os);
}

F2Contributing F2Contributing::Load(std::istream& is) {
  CheckHeader(is, kFcMagic, 1);
  Config config;
  config.gamma = ReadDouble(is);
  config.max_class_size = ReadU64(is);
  config.domain_size = ReadU64(is);
  config.phi_factor = ReadDouble(is);
  config.sample_factor = ReadDouble(is);
  config.seed = ReadU64(is);
  F2Contributing out(config);
  CHECK_EQ(ReadU64(is), out.levels_.size());  // same config ⇒ same geometry
  for (Level& level : out.levels_) level.hh = F2HeavyHitters::Load(is);
  return out;
}

void F2Contributing::Merge(const F2Contributing& other) {
  CHECK_EQ(levels_.size(), other.levels_.size());
  CHECK_EQ(config_.seed, other.config_.seed);
  for (size_t i = 0; i < levels_.size(); ++i) {
    CHECK_EQ(levels_[i].rate_num, other.levels_[i].rate_num);
    levels_[i].hh.Merge(other.levels_[i].hh);
  }
}

std::vector<ContributingCoordinate> F2Contributing::Extract() const {
  std::unordered_map<uint64_t, ContributingCoordinate> best;
  for (uint32_t i = 0; i < levels_.size(); ++i) {
    for (const HeavyHitter& hh : levels_[i].hh.Extract()) {
      auto it = best.find(hh.id);
      if (it == best.end() || hh.estimate > it->second.estimate) {
        best[hh.id] = ContributingCoordinate{hh.id, hh.estimate, i};
      }
    }
  }
  std::vector<ContributingCoordinate> out;
  out.reserve(best.size());
  for (const auto& [id, cc] : best) out.push_back(cc);
  std::sort(out.begin(), out.end(),
            [](const ContributingCoordinate& a, const ContributingCoordinate& b) {
              return a.estimate > b.estimate;
            });
  return out;
}

size_t F2Contributing::MemoryBytes() const {
  size_t bytes = sampler_.MemoryBytes();
  for (const auto& level : levels_) {
    bytes += level.hh.MemoryBytes() + sizeof(uint64_t);
  }
  return bytes;
}

void F2Contributing::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  for (const auto& level : levels_) level.hh.ReportSpace(acct);
}

}  // namespace streamkc
