#include "sketch/f2_contributing.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"
#include "util/serialize.h"

namespace streamkc {

void F2Contributing::Hashes::HashFoldedBatch(const uint64_t* folded, size_t n,
                                             uint64_t* keys,
                                             uint64_t* row_hashes) const {
  sampler.MapRangeFoldedBatch(folded, keys, n, kRateDen);
  rows.HashFoldedBatch(folded, n, row_hashes);
}

F2Contributing::Hashes F2Contributing::MakeHashes(uint32_t sampler_degree,
                                                  uint64_t seed) {
  return Hashes{KWiseHash(sampler_degree, SplitMix64(seed ^ 0xabcd)),
                CountSketchRows(F2HeavyHitters::Config{}.depth,
                                SplitMix64(seed ^ 0x5eed))};
}

F2Contributing::F2Contributing(const Config& config) : config_(config) {
  CHECK_GT(config.phi, 0.0);
  CHECK_GE(config.max_class_size, 1u);
  Rng rng(config.seed);

  uint32_t num_levels = CeilLog2(config.max_class_size) + 1;
  double log_m = Log2AtLeast1(static_cast<double>(config.domain_size));

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
    hh.phi = std::min(1.0, config.phi);
    hh.seed = rng.Fork();
    levels_.push_back(Level{num, F2HeavyHitters(hh)});
  }
}

template <typename Fn>
void F2Contributing::ForEachLevel(const HashedIds& block, Fn fn) const {
  thread_local std::vector<uint32_t> scratch;
  uint32_t* entries = GrowTo(scratch, block.n);
  std::iota(entries, entries + block.n, 0u);
  size_t live = block.n;
  for (size_t l = 0; l < levels_.size(); ++l) {
    const uint64_t rate_num = levels_[l].rate_num;
    if (rate_num < kRateDen) {
      size_t kept = 0;
      for (size_t i = 0; i < live; ++i) {
        if (block.keys[entries[i]] < rate_num) entries[kept++] = entries[i];
      }
      live = kept;
    }
    fn(l, entries, live);
  }
}

void F2Contributing::AddCounts(const HashedIds& block) {
  ForEachLevel(block, [&](size_t l, const uint32_t* entries, size_t num) {
    levels_[l].hh.AddCounts(block, entries, num);
  });
}

void F2Contributing::Admit(const Hashes& hashes, const HashedIds& window) {
  ForEachLevel(window, [&](size_t l, const uint32_t* entries, size_t num) {
    levels_[l].hh.Admit(hashes.rows, window, entries, num);
  });
}

namespace {
constexpr uint32_t kFcMagic = 0x46324354;  // "F2CT"
}  // namespace

void F2Contributing::Save(std::ostream& os) const {
  WriteHeader(os, kFcMagic, 3);
  WriteDouble(os, config_.phi);
  WriteU64(os, config_.max_class_size);
  WriteU64(os, config_.domain_size);
  WriteDouble(os, config_.sample_factor);
  WriteU64(os, config_.seed);
  WriteU64(os, levels_.size());
  for (const Level& level : levels_) level.hh.Save(os);
}

F2Contributing F2Contributing::Load(std::istream& is) {
  CheckHeader(is, kFcMagic, 3);
  Config config;
  config.phi = ReadDouble(is);
  config.max_class_size = ReadU64(is);
  config.domain_size = ReadU64(is);
  config.sample_factor = ReadDouble(is);
  config.seed = ReadU64(is);
  F2Contributing out(config);
  CHECK_EQ(ReadU64(is), out.levels_.size());  // same config ⇒ same geometry
  for (Level& level : out.levels_) level.hh = F2HeavyHitters::Load(is);
  return out;
}

void F2Contributing::Merge(const F2Contributing& other, const Hashes& hashes) {
  CHECK_EQ(levels_.size(), other.levels_.size());
  CHECK_EQ(config_.seed, other.config_.seed);
  for (size_t i = 0; i < levels_.size(); ++i) {
    CHECK_EQ(levels_[i].rate_num, other.levels_[i].rate_num);
    levels_[i].hh.Merge(other.levels_[i].hh, hashes.rows);
  }
}

std::vector<ContributingCoordinate> F2Contributing::Extract(
    const Hashes& hashes, const HashedIds& open) const {
  std::vector<ContributingCoordinate> all;
  ForEachLevel(open, [&](size_t l, const uint32_t* entries, size_t num) {
    for (const HeavyHitter& hh :
         levels_[l].hh.Extract(hashes.rows, open, entries, num)) {
      all.push_back(
          ContributingCoordinate{hh.id, hh.estimate, static_cast<uint32_t>(l)});
    }
  });
  return OnePerId(std::move(all));
}

std::vector<ContributingCoordinate> F2Contributing::OnePerId(
    std::vector<ContributingCoordinate> all) {
  std::stable_sort(all.begin(), all.end(),
                   [](const ContributingCoordinate& a,
                      const ContributingCoordinate& b) {
                     return a.id < b.id ||
                            (a.id == b.id && a.estimate > b.estimate);
                   });
  all.erase(std::unique(all.begin(), all.end(),
                        [](const ContributingCoordinate& a,
                           const ContributingCoordinate& b) {
                          return a.id == b.id;
                        }),
            all.end());
  std::sort(all.begin(), all.end(),
            [](const ContributingCoordinate& a, const ContributingCoordinate& b) {
              return a.estimate > b.estimate ||
                     (a.estimate == b.estimate && a.id < b.id);
            });
  return all;
}

size_t F2Contributing::MemoryBytes() const {
  size_t bytes = 0;
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
