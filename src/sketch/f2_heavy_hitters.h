// F2 heavy hitters (Definition 2.6, Theorem 2.10).
//
// Single-pass algorithm over insertion streams that returns every coordinate
// j with a[j]² ≥ φ·F2(a), together with a (1 ± 1/2)-approximation of a[j],
// using Õ(1/φ) space. Realized as in [14, 15, 18, 39]:
//
//   * a CountSketch of width Θ(1/φ) provides point estimates with additive
//     error ≤ √(φ·F2)/c, which is ≤ a[j]/c for any φ-heavy coordinate; its
//     per-row bucket sums of squares double as the F2 estimate for the
//     threshold (each row is a bucketed AMS sketch), so no separate F2
//     sketch is maintained;
//   * a bounded candidate set tracks the currently-heavy ids. Each arriving
//     id is inserted with its point estimate once and bumped by |delta| on
//     subsequent updates; whenever the set doubles past Θ(1/φ) entries, all
//     scores are refreshed by point queries and the top Θ(1/φ) are kept —
//     amortized O(1) point queries per update. In an insertion-only stream
//     a coordinate that is heavy at the end is heavy during its own final
//     updates, so it is in the candidate set when the stream ends.

#ifndef STREAMKC_SKETCH_F2_HEAVY_HITTERS_H_
#define STREAMKC_SKETCH_F2_HEAVY_HITTERS_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "obs/space_accountant.h"
#include "sketch/count_sketch.h"
#include "util/scratch.h"
#include "util/space.h"

namespace streamkc {

struct HeavyHitter {
  uint64_t id = 0;
  double estimate = 0;  // (1 ± 1/2)-approximate frequency
};

class F2HeavyHitters : public SpaceMetered {
 public:
  struct Config {
    // Heaviness threshold φ ∈ (0, 1]: report j iff a[j]² ≥ φ·F2.
    double phi = 0.01;
    // CountSketch rows.
    uint32_t depth = 5;
    // CountSketch width multiplier: width = width_factor / φ. At 16/φ the
    // per-row noise √(F2/width) is √(φF2)/4, a quarter of the heaviness
    // margin, which keeps the noise floor (see Extract) below real heavy
    // hitters.
    double width_factor = 16.0;
    // Candidate capacity multiplier: capacity = cand_factor / φ.
    double cand_factor = 4.0;
    // Noise-floor strictness in per-row standard deviations (see Extract).
    // 0 disables the floor — used by the ablation bench to demonstrate the
    // spurious-hitter failure mode it prevents.
    double noise_floor_sigmas = 3.0;
    // Hard cap on width (memory safety at tiny φ).
    uint32_t max_width = 1u << 22;
    uint64_t seed = 1;
  };

  explicit F2HeavyHitters(const Config& config);

  void Add(uint64_t id, int64_t delta = 1);

  // Hash-once ingest path: `folded` must equal MersenneFold(id). The raw id
  // is still needed as the candidate-set key.
  void AddFolded(uint64_t id, uint64_t folded, int64_t delta = 1);

  // n AddFolded calls in one block over an id index, bit-identical state:
  // update j is AddFolded(ids[slot[j]], folded[slot[j]], delta). The
  // CountSketch row hashes depend only on the id, so they run once per
  // index entry (one MapFoldedBatch per row over all num_ids entries); the
  // counter updates, the admission gate (which reads the evolving QuickF2)
  // and pruning then run update by update in stream order, the gate and
  // point query reading the entry's precomputed hashes. Entries need not be
  // distinct; the index saves hashing exactly where ids repeat.
  void AddIndexedBatch(const uint64_t* ids, const uint64_t* folded,
                       size_t num_ids, const uint32_t* slot, size_t n,
                       int64_t delta = 1);

  // The block without repetition: update j is AddFolded(ids[j], folded[j]).
  void AddFoldedBatch(const uint64_t* ids, const uint64_t* folded, size_t n,
                      int64_t delta = 1) {
    AddIndexedBatch(ids, folded, n, IdentitySlots(n), n, delta);
  }

  // All coordinates whose estimated frequency passes the φ test against the
  // estimated F2, most-frequent first. Call after the stream ends (may be
  // called repeatedly).
  std::vector<HeavyHitter> Extract() const;

  // Merges another instance built with the same Config: counters add
  // (linearity) and the candidate sets union (then prune to capacity). The
  // merged instance answers for the concatenation of both streams.
  void Merge(const F2HeavyHitters& other);

  // Binary checkpointing: CountSketch counters + candidate set, written in
  // id order so that Save∘Load∘Save is byte-stable.
  void Save(std::ostream& os) const;
  static F2HeavyHitters Load(std::istream& is);

  // Point estimate for one coordinate (CountSketch median).
  double EstimateFrequency(uint64_t id) const {
    return count_sketch_.PointQuery(id);
  }

  // Current F2 estimate (from the CountSketch rows).
  double EstimateF2() const { return count_sketch_.EstimateF2(); }

  double phi() const { return config_.phi; }

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "f2_heavy_hitters"; }
  uint64_t ItemCount() const override { return candidates_.size(); }
  // Composite: also reports the inner CountSketch.
  void ReportSpace(SpaceAccountant* acct) const override;

 private:
  // One update given the id's CountSketch row hashes (layout as in
  // CountSketch::AddHashed).
  void AddHashed(uint64_t id, const uint64_t* row_hashes, size_t stride,
                 int64_t delta);
  void PruneCandidates();

  Config config_;
  CountSketch count_sketch_;
  size_t capacity_;
  // id -> tracking score: point estimate at insertion/last prune plus
  // increments since. Refreshed by true point queries at prune time.
  std::unordered_map<uint64_t, double> candidates_;
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_F2_HEAVY_HITTERS_H_
