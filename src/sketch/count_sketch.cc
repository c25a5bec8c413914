#include "sketch/count_sketch.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/serialize.h"

namespace streamkc {

CountSketchRows::CountSketchRows(uint32_t depth, uint64_t seed) {
  CHECK_LE(depth, CountSketch::kMaxDepth);
  Rng rng(seed);
  rows_.reserve(depth);
  for (uint32_t r = 0; r < depth; ++r) {
    rows_.push_back(KWiseHash::FourWise(rng.Fork()));
  }
}

void CountSketchRows::HashFoldedBatch(const uint64_t* folded, size_t n,
                                      uint64_t* hashes) const {
  for (size_t r = 0; r < rows_.size(); ++r) {
    rows_[r].MapFoldedBatch(folded, hashes + r * n, n);
  }
}

size_t CountSketchRows::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& h : rows_) bytes += h.MemoryBytes();
  return bytes;
}

CountSketch::CountSketch(const Config& config)
    : CountSketch(config, CountSketchRows(config.depth, config.seed)) {}

CountSketch CountSketch::CountersOnly(const Config& config) {
  return CountSketch(config, CountSketchRows());
}

CountSketch::CountSketch(const Config& config, CountSketchRows rows)
    : config_(config), rows_(std::move(rows)) {
  CHECK_GE(config.depth, 1u);
  CHECK_LE(config.depth, kMaxDepth);
  CHECK_GE(config.width, 2u);
  counters_.assign(static_cast<size_t>(config.depth) * config.width, 0);
}

void CountSketch::Add(uint64_t id, int64_t delta) {
  AddFolded(MersenneFold(id), delta);
}

void CountSketch::AddFolded(uint64_t folded, int64_t delta) {
  CHECK_EQ(rows_.depth(), config_.depth);
  uint64_t hashes[kMaxDepth];
  rows_.HashFolded(folded, hashes);
  AddHashed(hashes, 1, delta);
}

void CountSketch::AddHashed(const uint64_t* row_hashes, size_t stride,
                            int64_t delta) {
  for (uint32_t r = 0; r < config_.depth; ++r) {
    auto [sign, idx] = SignBucketFromHash(r, row_hashes[r * stride]);
    int64_t& cell = counters_[idx];
    int64_t update = sign * delta;
    if (r == 0) {
      // (c + u)² - c² = 2cu + u²: keep row 0's sum of squares current.
      row0_f2_ += static_cast<double>(2 * cell * update + update * update);
    }
    cell += update;
  }
}

void CountSketch::AddFoldedBatch(const uint64_t* folded, size_t n,
                                 int64_t delta) {
  CHECK_EQ(rows_.depth(), config_.depth);
  constexpr size_t kTile = 128;
  uint64_t hashes[kMaxDepth * kTile];
  for (size_t i = 0; i < n; i += kTile) {
    size_t m = std::min(kTile, n - i);
    rows_.HashFoldedBatch(folded + i, m, hashes);
    for (size_t j = 0; j < m; ++j) AddHashed(hashes + j, m, delta);
  }
}

namespace {
constexpr uint32_t kCsMagic = 0x43534b31;  // "CSK1"
}  // namespace

void CountSketch::Save(std::ostream& os) const {
  WriteHeader(os, kCsMagic, 1);
  WriteU32(os, config_.depth);
  WriteU32(os, config_.width);
  WriteU64(os, config_.seed);
  WritePodVector(os, counters_);
  WriteDouble(os, row0_f2_);
}

CountSketch CountSketch::Load(std::istream& is) { return Load(is, true); }

CountSketch CountSketch::LoadCountersOnly(std::istream& is) {
  return Load(is, false);
}

CountSketch CountSketch::Load(std::istream& is, bool with_rows) {
  CheckHeader(is, kCsMagic, 1);
  Config config;
  config.depth = ReadU32(is);
  config.width = ReadU32(is);
  config.seed = ReadU64(is);
  CountSketch out = with_rows ? CountSketch(config) : CountersOnly(config);
  out.counters_ = ReadPodVector<int64_t>(is);
  CHECK_EQ(out.counters_.size(),
           static_cast<size_t>(config.depth) * config.width);
  out.row0_f2_ = ReadDouble(is);
  return out;
}

void CountSketch::Merge(const CountSketch& other) {
  CHECK_EQ(config_.depth, other.config_.depth);
  CHECK_EQ(config_.width, other.config_.width);
  CHECK_EQ(config_.seed, other.config_.seed);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  // Recompute row 0's running sum of squares from scratch (cheap, O(width)).
  row0_f2_ = 0;
  for (uint32_t b = 0; b < config_.width; ++b) {
    double c = static_cast<double>(counters_[b]);
    row0_f2_ += c * c;
  }
}

double CountSketch::PointQuery(uint64_t id) const {
  CHECK_EQ(rows_.depth(), config_.depth);
  uint64_t hashes[kMaxDepth];
  rows_.HashFolded(MersenneFold(id), hashes);
  return PointQueryHashed(hashes, 1);
}

double CountSketch::PointQueryHashed(const uint64_t* row_hashes,
                                     size_t stride) const {
  double votes[kMaxDepth];
  for (uint32_t r = 0; r < config_.depth; ++r) {
    auto [sign, idx] = SignBucketFromHash(r, row_hashes[r * stride]);
    votes[r] = sign * static_cast<double>(counters_[idx]);
  }
  return MedianInPlace(votes, config_.depth);
}

double CountSketch::EstimateF2() const {
  double rows[kMaxDepth];
  for (uint32_t r = 0; r < config_.depth; ++r) {
    double acc = 0;
    for (uint32_t b = 0; b < config_.width; ++b) {
      double c = static_cast<double>(
          counters_[static_cast<size_t>(r) * config_.width + b]);
      acc += c * c;
    }
    rows[r] = acc;
  }
  return MedianInPlace(rows, config_.depth);
}

size_t CountSketch::MemoryBytes() const {
  return VectorBytes(counters_) + sizeof(row0_f2_) + rows_.MemoryBytes();
}

}  // namespace streamkc
