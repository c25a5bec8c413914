#include "sketch/l0_estimator.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "hash/mersenne.h"
#include "util/serialize.h"
#include "util/check.h"

namespace streamkc {

L0Estimator::L0Estimator(const Config& config)
    : config_(config),
      hash_(KWiseHash::FourWise(config.seed)),
      // A quarter of k keeps the buffer's space overhead at 25% while the
      // merge cost stays amortized O(log k) per admission (each flush sorts
      // ~1.25k values for k/4 admissions).
      flush_at_(std::max<size_t>(8, config.num_mins / 4)),
      threshold_(std::numeric_limits<uint64_t>::max()) {
  CHECK_GE(config.num_mins, 2u);
  mins_.reserve(config.num_mins);
  buf_.reserve(flush_at_);
}

void L0Estimator::AddFoldedBatch(const uint64_t* folded, size_t n) {
  items_added_ += n;
  constexpr size_t kTile = 128;
  uint64_t hashes[kTile];
  for (size_t i = 0; i < n; i += kTile) {
    size_t m = std::min(kTile, n - i);
    hash_.MapFoldedBatch(folded + i, hashes, m);
    for (size_t j = 0; j < m; ++j) AddHash(hashes[j]);
  }
}

bool L0Estimator::KeepSmallest(std::vector<uint64_t>& values) const {
  // Through a per-thread scratch, so that mins_ never outgrows the k slots
  // it reserved: the footprint is a function of k, not of the order values
  // arrived in.
  thread_local std::vector<uint64_t> merged;
  std::sort(values.begin(), values.end());
  merged.clear();
  std::merge(mins_.begin(), mins_.end(), values.begin(), values.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  const bool dropped = merged.size() > config_.num_mins;
  if (dropped) merged.resize(config_.num_mins);
  mins_.assign(merged.begin(), merged.end());
  if (mins_.size() == config_.num_mins) threshold_ = mins_.back();
  return dropped;
}

void L0Estimator::FlushBuffer() const {
  if (buf_.empty()) return;
  // A distinct value beyond the k smallest existed: estimate mode from now
  // on.
  if (KeepSmallest(buf_)) saturated_ = true;
  buf_.clear();
}

double L0Estimator::Estimate() const {
  FlushBuffer();
  if (!saturated_) return static_cast<double>(mins_.size());
  // v_k normalized to (0, 1]; estimate (k-1)/v_k.
  double vk = static_cast<double>(mins_.back()) /
              static_cast<double>(kMersennePrime61);
  if (vk <= 0) return static_cast<double>(mins_.size());
  return static_cast<double>(mins_.size() - 1) / vk;
}

namespace {
constexpr uint32_t kL0Magic = 0x4b4d5631;  // "KMV1"
}  // namespace

void L0Estimator::Save(std::ostream& os) const {
  FlushBuffer();
  WriteHeader(os, kL0Magic, 1);
  WriteU32(os, config_.num_mins);
  WriteU64(os, config_.seed);
  WritePodVector(os, mins_);
  WriteU32(os, saturated_ ? 1 : 0);
  WriteU64(os, items_added_);
}

L0Estimator L0Estimator::Load(std::istream& is) {
  CheckHeader(is, kL0Magic, 1);
  Config config;
  config.num_mins = ReadU32(is);
  config.seed = ReadU64(is);
  L0Estimator out(config);
  const std::vector<uint64_t> mins = ReadPodVector<uint64_t>(is);
  CHECK_LE(mins.size(), config.num_mins);
  out.mins_.assign(mins.begin(), mins.end());  // into the k reserved slots
  // Re-establish the invariant rather than trusting the blob: every value
  // must be a possible hash output (the field domain [0, 2^61 - 1)), and the
  // retained minima must be distinct — a duplicated or out-of-range entry
  // means a corrupted checkpoint, which must fail loudly here instead of
  // deflating every later estimate. Version-1 blobs written by the old
  // heap-ordered representation are accepted: sorting is part of the
  // re-establishment.
  std::sort(out.mins_.begin(), out.mins_.end());
  for (size_t i = 0; i < out.mins_.size(); ++i) {
    CHECK(out.mins_[i] < kMersennePrime61);
    if (i > 0) CHECK(out.mins_[i] > out.mins_[i - 1]);
  }
  out.saturated_ = ReadU32(is) != 0;
  // A saturated sketch has, by construction, retained exactly num_mins
  // values; anything else is tampering.
  if (out.saturated_) CHECK_EQ(out.mins_.size(), config.num_mins);
  if (out.mins_.size() == config.num_mins) out.threshold_ = out.mins_.back();
  out.items_added_ = ReadU64(is);
  return out;
}

void L0Estimator::Merge(const L0Estimator& other) {
  CHECK_EQ(config_.num_mins, other.config_.num_mins);
  CHECK_EQ(config_.seed, other.config_.seed);
  FlushBuffer();
  other.FlushBuffer();
  items_added_ += other.items_added_;
  // Union the two minima sets, dedup, keep the k smallest.
  std::vector<uint64_t> theirs = other.mins_;
  const bool dropped = KeepSmallest(theirs);
  saturated_ = saturated_ || other.saturated_ || dropped;
}

}  // namespace streamkc
