// AMS "tug-of-war" second frequency moment sketch (Alon-Matias-Szegedy [5]).
//
// Maintains a grid of counters Z[r][c] = Σ_j s_{r,c}(j)·a[j] with 4-wise
// independent ±1 signs s. Each Z² is an unbiased estimator of F2 = Σ a[j]²;
// averaging `cols` copies controls variance and taking the median of `rows`
// averages boosts confidence (median-of-means). Space: rows·cols words.
//
// Serves the proxy state CoverageSketchState (runtime/sketch_states.h) and
// bench_micro. F2HeavyHitters does not use it: its F2 reference is its own
// CountSketch rows, each a bucketed AMS sketch (count_sketch.h).

#ifndef STREAMKC_SKETCH_AMS_F2_H_
#define STREAMKC_SKETCH_AMS_F2_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "hash/kwise_hash.h"
#include "obs/space_accountant.h"
#include "util/space.h"

namespace streamkc {

class AmsF2Sketch : public SpaceMetered {
 public:
  struct Config {
    uint32_t rows = 5;    // median over rows
    uint32_t cols = 16;   // mean within a row
    uint64_t seed = 1;
  };

  explicit AmsF2Sketch(const Config& config);

  // a[id] += delta (delta defaults to 1; negative deltas supported, the
  // sketch is linear).
  void Add(uint64_t id, int64_t delta = 1) { AddFolded(MersenneFold(id), delta); }

  // Hash-once ingest path: `folded` must equal MersenneFold(id).
  void AddFolded(uint64_t folded, int64_t delta = 1);

  // a[id] += delta for every pre-folded id in the block. State is
  // bit-identical to n AddFolded calls (each cell accumulates a sum of ±delta
  // terms; int64 addition commutes), but the hash evaluation runs per cell
  // over the whole block with MapFoldedBatch: a cell counter update becomes
  // counter += delta·(2·ones − n) where `ones` counts sign bits, so the
  // per-edge cost drops from rows·cols dependent Horner chains to batched,
  // ILP-friendly ones.
  void AddFoldedBatch(const uint64_t* folded, size_t n, int64_t delta = 1);

  // Median-of-means estimate of F2.
  double Estimate() const;

  // Adds another sketch built with the same Config (linearity).
  void Merge(const AmsF2Sketch& other);

  // Binary checkpointing; sign hashes are rebuilt from the stored seed.
  void Save(std::ostream& os) const;
  static AmsF2Sketch Load(std::istream& is);

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "ams_f2"; }
  uint64_t ItemCount() const override { return counters_.size(); }

 private:
  Config config_;
  std::vector<KWiseHash> signs_;   // one 4-wise sign hash per cell
  std::vector<int64_t> counters_;  // rows * cols
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_AMS_F2_H_
