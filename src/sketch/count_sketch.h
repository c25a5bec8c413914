// CountSketch (Charikar-Chen-Farach-Colton [18]).
//
// depth × width grid of counters; row r places item j in bucket
// h_r(j) ∈ [width] with sign s_r(j) ∈ {±1}. PointQuery(j) =
// median_r( s_r(j) · C[r][h_r(j)] ) estimates a[j] with additive error
// O(√(F2/width)) per row, boosted by the median over rows. This is the
// estimation core of the F2 heavy hitters algorithm (Theorem 2.10).
//
// Each row derives (sign, bucket) from ONE 4-wise hash value — sign from
// the low bit, bucket from the remaining 60 bits. The pairs
// (s_r(x), h_r(x)) are then jointly 4-wise independent across distinct x,
// which is what the variance analysis uses (for x ≠ y, (s_x, b_x) is
// independent of (s_y, b_y), so E[s_x·s_y·1{b_x=b_y}] = 0); one hash
// evaluation per row instead of two.
//
// The row hashes depend only on the id, and they form a family of their
// own (CountSketchRows). A sketch built from a Config owns one (ServingState's
// set sketch); a counters-only sketch (CountersOnly) takes every row hash
// from a family the caller holds, which is how F2HeavyHitters runs, so that
// the levels of LargeSet's contributing sketches share one family. Block
// updates hash their ids up front with HashFoldedBatch and hand each one its
// precomputed row values through the *Hashed entry points; LargeSet hashes
// each superset once per batch for every level this way (f2_contributing.h).

#ifndef STREAMKC_SKETCH_COUNT_SKETCH_H_
#define STREAMKC_SKETCH_COUNT_SKETCH_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "hash/kwise_hash.h"
#include "obs/space_accountant.h"
#include "util/space.h"

namespace streamkc {

// Row r's 4-wise hash, for r < depth, drawn from one seed. The family
// depends only on (depth, seed), so sketches that share it bucket an id
// alike in every row and one evaluation per id serves all of them.
class CountSketchRows {
 public:
  // No rows: the family of a counters-only sketch.
  CountSketchRows() = default;
  CountSketchRows(uint32_t depth, uint64_t seed);

  uint32_t depth() const { return static_cast<uint32_t>(rows_.size()); }

  // Row hashes of one pre-folded id: hashes[r] for every row r.
  void HashFolded(uint64_t folded, uint64_t* hashes) const {
    for (size_t r = 0; r < rows_.size(); ++r) {
      hashes[r] = rows_[r].MapFolded(folded);
    }
  }

  // Row hashes of a block of pre-folded ids, row-major: hashes[r·n + j] is
  // row r's hash value of folded[j], depth·n values in all, each row
  // evaluated with MapFoldedBatch.
  void HashFoldedBatch(const uint64_t* folded, size_t n,
                       uint64_t* hashes) const;

  size_t MemoryBytes() const;

 private:
  std::vector<KWiseHash> rows_;
};

class CountSketch : public SpaceMetered {
 public:
  struct Config {
    uint32_t depth = 5;    // rows (median), at most kMaxDepth
    uint32_t width = 256;  // buckets per row
    uint64_t seed = 1;
  };

  // Per-update row hashes and per-query row votes live in stack arrays of
  // this size, so neither path allocates.
  static constexpr uint32_t kMaxDepth = 16;

  // Owns its rows, drawn from config.seed.
  explicit CountSketch(const Config& config);

  // The counters without rows: only the *Hashed entry points, Merge,
  // EstimateF2 and QuickF2 apply, with row hashes from a family of
  // config.depth rows that the caller holds.
  static CountSketch CountersOnly(const Config& config);

  // a[id] += delta.
  void Add(uint64_t id, int64_t delta = 1);

  // Hash-once ingest path: `folded` must equal MersenneFold(id).
  void AddFolded(uint64_t folded, int64_t delta = 1);

  // a[id] += delta for every pre-folded id in the block. Bit-identical to n
  // AddFolded calls: each tile is hashed with HashFoldedBatch, then the
  // updates — including the running row0_f2_ double accumulation — apply
  // in edge order through AddHashed.
  void AddFoldedBatch(const uint64_t* folded, size_t n, int64_t delta = 1);

  // The *Hashed entry points take one id's row hashes out of a
  // CountSketchRows block: row r's value at row_hashes[r·stride] (stride =
  // the block's n; 1 for a single id). AddHashed and PointQueryHashed each
  // equal their namesake on that id bit for bit.
  void AddHashed(const uint64_t* row_hashes, size_t stride,
                 int64_t delta = 1);
  double PointQueryHashed(const uint64_t* row_hashes, size_t stride) const;
  // Single-row (row 0) point estimate: one counter read instead of a
  // median over all rows. Noisier (±√(F2/width) without median boosting);
  // used as a cheap admission gate by F2HeavyHitters.
  double QuickEstimateHashed(const uint64_t* row_hashes) const {
    auto [sign, bucket] = SignBucketFromHash(0, row_hashes[0]);
    return sign * static_cast<double>(counters_[bucket]);
  }

  // Median estimate of a[id].
  double PointQuery(uint64_t id) const;

  // Adds another sketch built with the same Config (same seed / geometry).
  // CountSketch is linear, so the merged sketch equals the sketch of the
  // concatenated streams — the basis of distributed sketching.
  void Merge(const CountSketch& other);

  // Median over rows of Σ_b C[r][b]²: an unbiased F2 estimator (each row is
  // a bucketed AMS tug-of-war sketch), so CountSketch doubles as the F2
  // reference for heavy-hitter thresholds at no extra update cost.
  double EstimateF2() const;

  // Row 0's Σ_b C[0][b]², maintained incrementally (an always-current,
  // single-sample F2 estimate for the same gate). Every update adds an
  // integer, so the value is exact (below 2^53) whatever the update order
  // or grouping.
  double QuickF2() const { return row0_f2_; }

  uint32_t width() const { return config_.width; }

  // Binary checkpointing; hashes are rebuilt from the stored seed, or not
  // at all by LoadCountersOnly.
  void Save(std::ostream& os) const;
  static CountSketch Load(std::istream& is);
  static CountSketch LoadCountersOnly(std::istream& is);

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "count_sketch"; }
  uint64_t ItemCount() const override { return counters_.size(); }

 private:
  // (sign, flat index into counters_) for row r given the row hash value.
  std::pair<int, size_t> SignBucketFromHash(uint32_t r, uint64_t h) const {
    // Arithmetic, not a branch: the low bit is a coin flip per id.
    int sign = static_cast<int>(h & 1) * 2 - 1;
    uint64_t bucket = static_cast<uint64_t>(
        (static_cast<__uint128_t>(h >> 1) * config_.width) >> 60);
    return {sign, static_cast<size_t>(r) * config_.width + bucket};
  }

  CountSketch(const Config& config, CountSketchRows rows);
  static CountSketch Load(std::istream& is, bool with_rows);

  Config config_;
  CountSketchRows rows_;           // empty for a counters-only sketch
  std::vector<int64_t> counters_;  // depth * width, row-major
  double row0_f2_ = 0;               // running Σ_b C[0][b]²
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_COUNT_SKETCH_H_
