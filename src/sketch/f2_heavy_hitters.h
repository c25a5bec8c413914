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
//   * a bounded candidate set of ids tracks the currently-heavy coordinates.
//     Admission passes an id that is not yet a candidate through two gates
//     against the running row-0 F2: its row-0 estimate, then its median
//     point estimate. Whenever the set doubles past Θ(1/φ) entries, every
//     candidate is point-queried and the top Θ(1/φ) are kept (ties to the
//     smaller id) — amortized O(1) point queries per admission. In an
//     insertion-only stream a coordinate that is heavy at the end is heavy
//     at the admission after its own final updates, so it is a candidate
//     when the stream ends.
//
// Counter updates are linear and admission reads only the counters, so the
// two separate. The sketch holds counters and candidates only; every call
// that reads a hash takes the row family from its caller, a CountSketchRows
// of config.depth rows. The window path — AddCounts per block, Admit at a
// window's end, Extract with the open window — sums a block's updates per
// distinct id first and admits once per window over the ids the window
// touched, in ascending id order: the counters are then the per-update
// loop's for any blocking, and the candidates are a function of the
// window's contents, not of their order. LargeSet drives this path with
// windows of its repetition's own stream (large_set.h), every level of its
// contributing sketches on one row family; Add() is a window of one, which
// the DSJ distinguisher runs (core/dsj_protocol.h).

#ifndef STREAMKC_SKETCH_F2_HEAVY_HITTERS_H_
#define STREAMKC_SKETCH_F2_HEAVY_HITTERS_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "obs/space_accountant.h"
#include "sketch/count_sketch.h"
#include "util/space.h"

namespace streamkc {

struct HeavyHitter {
  uint64_t id = 0;
  double estimate = 0;  // (1 ± 1/2)-approximate frequency
};

// Distinct ids hashed once for every sketch that reads them: row r's
// CountSketch hash of ids[j] at row_hashes[r·n + j] (a CountSketchRows
// block), F2Contributing's level-sampler key at keys[j], and the block's
// summed update of ids[j] at counts[j] (read by AddCounts only).
struct HashedIds {
  const uint64_t* ids = nullptr;
  const uint64_t* row_hashes = nullptr;
  const uint64_t* keys = nullptr;
  const int64_t* counts = nullptr;
  size_t n = 0;
};

class F2HeavyHitters : public SpaceMetered {
 public:
  struct Config {
    // Heaviness threshold φ ∈ (0, 1]: report j iff a[j]² ≥ φ·F2.
    double phi = 0.01;
    // CountSketch rows.
    uint32_t depth = 5;
    // CountSketch width multiplier: width = width_factor / φ, within
    // [8, 2^22] (the cap keeps tiny φ within memory). At 16/φ the
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
    uint64_t seed = 1;
  };

  explicit F2HeavyHitters(const Config& config);

  // One update, admitted at once (a window of one).
  void Add(const CountSketchRows& rows, uint64_t id, int64_t delta = 1);

  // The window path, over the entries entries[0..num) of `block`:
  //  * AddCounts adds each entry's count to its counters;
  //  * Admit (at a window's end; the entries' ids ascending) skips
  //    candidates, admits the ids that pass both gates and prunes at twice
  //    the capacity;
  //  * Extract (const) reports every coordinate whose estimated frequency
  //    passes the φ test against the estimated F2, most frequent first
  //    (ties to the smaller id); it also evaluates the open window's
  //    entries through the same gates, as if the window had closed,
  //    without pruning.
  void AddCounts(const HashedIds& block, const uint32_t* entries, size_t num);
  void Admit(const CountSketchRows& rows, const HashedIds& window,
             const uint32_t* entries, size_t num);
  std::vector<HeavyHitter> Extract(const CountSketchRows& rows,
                                   const HashedIds& open = {},
                                   const uint32_t* entries = nullptr,
                                   size_t num = 0) const;

  // Merges another instance built with the same Config: counters add
  // (linearity) and the candidate sets union (then prune to capacity). The
  // merged instance answers for the concatenation of both streams.
  void Merge(const F2HeavyHitters& other, const CountSketchRows& rows);

  // Binary checkpointing: config, CountSketch counters and candidate ids in
  // id order (so Save∘Load∘Save is byte-stable).
  void Save(std::ostream& os) const;
  static F2HeavyHitters Load(std::istream& is);

  // Current F2 estimate (from the CountSketch counters).
  double EstimateF2() const { return count_sketch_.EstimateF2(); }

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "f2_heavy_hitters"; }
  uint64_t ItemCount() const override { return candidates_.size(); }
  // Composite: also reports the inner CountSketch.
  void ReportSpace(SpaceAccountant* acct) const override;

 private:
  bool IsCandidate(uint64_t id) const;
  // The two admission gates for one id given its row hashes.
  bool PassesGates(const uint64_t* row_hashes, size_t stride) const;
  // Point estimates of every candidate through one batched row hash.
  std::vector<double> CandidateEstimates(const CountSketchRows& rows) const;
  void PruneCandidates(const CountSketchRows& rows);

  Config config_;
  CountSketch count_sketch_;
  size_t capacity_;
  std::vector<uint64_t> candidates_;  // ascending, at most 2·capacity_ + 1
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_F2_HEAVY_HITTERS_H_
