// γ-contributing class detection (Definition 2.7, Theorem 2.11, and the
// F2-Contributing pseudocode in Section 2.2).
//
// Coordinates are partitioned into dyadic frequency classes
// R_t = { j : 2^(t-1) < a[j] ≤ 2^t }; class R_t is γ-contributing if
// |R_t|·2^{2t} ≥ γ·F2(a). The algorithm must return at least one coordinate
// from every γ-contributing class (with a (1 ± 1/2) frequency estimate),
// in Õ(1/γ) space.
//
// Implementation per the paper: for every guess n_t = 2^i of the class size
// (i ≤ log r, where r bounds the class sizes of interest — see Remark 4.12),
// subsample the *coordinate space* at rate ≈ (c·log m)/2^i with a
// Θ(log(mn))-wise independent hash and run an F2-HeavyHitter with
// φ = Θ̃(γ) on the surviving substream. If R_t has ≈ 2^i members, about
// c·log m of them survive, and each survivor carries a Ω̃(γ) share of the
// sampled F2 (Lemma 2.9), so the heavy-hitter sketch finds it. Sampling is
// per-coordinate, so a survivor's frequency in the substream equals its true
// frequency.
//
// Every hash the levels read depends on the id alone: the shared level
// sampler's key and the CountSketch rows of every level's heavy-hitter
// sketch. The sketch holds counters and candidates only; the caller holds
// the hashes, one Hashes (a level sampler and one row family) that every
// level reads. LargeSet gives both of a repetition's sketches the same
// Hashes and drives them through the window path (AddCounts, Admit,
// Extract with the open window; see f2_heavy_hitters.h), which takes a
// block of distinct ids hashed once for all levels. Sharing is sound
// because levels are analysed one at a time and union-bounded, so nothing
// relies on independence between them (docs/ALGORITHMS.md, "Shared
// hashes").

#ifndef STREAMKC_SKETCH_F2_CONTRIBUTING_H_
#define STREAMKC_SKETCH_F2_CONTRIBUTING_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "hash/kwise_hash.h"
#include "obs/space_accountant.h"
#include "sketch/f2_heavy_hitters.h"
#include "util/space.h"

namespace streamkc {

struct ContributingCoordinate {
  uint64_t id = 0;
  double estimate = 0;  // (1 ± 1/2)-approximate frequency
  uint32_t level = 0;   // sampling level (class-size guess 2^level)
};

class F2Contributing : public SpaceMetered {
 public:
  struct Config {
    // Heavy-hitter threshold φ of every level, capped at 1: the paper's
    // Θ̃(γ) for contribution threshold γ (Theorem 2.11 divides γ by
    // Θ(log n · log^{c+1} m); LargeSet passes its φ1 and φ2).
    double phi = 0.0025;
    // Upper bound r on the size of contributing classes to search for
    // (the paper's second argument; see Remark 4.12 for why bounding it
    // matters). Levels are 2^0 .. 2^ceil(log2 r).
    uint64_t max_class_size = 1u << 20;
    // Domain size hint: the m of the per-level sampling rate below.
    uint64_t domain_size = 1u << 20;
    // Sampling-rate numerator multiplier: rate_i = sample_factor·log2(m)/2^i.
    double sample_factor = 12.0;
    uint64_t seed = 1;
  };

  // The hashes every level reads: the level sampler (key range kRateDen)
  // and the CountSketch row family of every level's sketch. Level i keeps
  // the ids whose key falls below its threshold, so the per-level samples
  // are nested and one key serves every level; each level alone is a
  // uniform sample at its own rate, which is all Lemma 2.9 / Claim 2.8 need.
  struct Hashes {
    KWiseHash sampler;
    CountSketchRows rows;

    // keys[j] and the row-major row hashes of n pre-folded ids.
    void HashFoldedBatch(const uint64_t* folded, size_t n, uint64_t* keys,
                         uint64_t* row_hashes) const;
    size_t MemoryBytes() const {
      return sampler.MemoryBytes() + rows.MemoryBytes();
    }
  };

  // Hashes for sketches that share them: a sampler of the given degree and
  // a row family as deep as every level's sketch.
  static Hashes MakeHashes(uint32_t sampler_degree, uint64_t seed);

  explicit F2Contributing(const Config& config);

  // The window path over a block of distinct ids with their keys and row
  // hashes (HashedIds): each level, in decreasing rate, keeps the ids whose
  // key passes its threshold (nested, so every level filters the previous
  // level's) and takes them through its heavy-hitter sketch's namesake.
  // Admit wants the window's ids ascending.
  //
  // Extract returns one representative (at least) from each γ-contributing
  // class of size ≤ max_class_size, deduplicated by id (max estimate wins),
  // sorted by descending estimate (ties to the smaller id).
  void AddCounts(const HashedIds& block);
  void Admit(const Hashes& hashes, const HashedIds& window);
  std::vector<ContributingCoordinate> Extract(
      const Hashes& hashes, const HashedIds& open = {}) const;

  // Merges another instance built with the same Config (per-level sketch
  // merge through the shared rows).
  void Merge(const F2Contributing& other, const Hashes& hashes);

  // Binary checkpointing: config and every level's heavy-hitter state.
  void Save(std::ostream& os) const;
  static F2Contributing Load(std::istream& is);

  uint32_t num_levels() const { return static_cast<uint32_t>(levels_.size()); }

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "f2_contributing"; }
  uint64_t ItemCount() const override { return levels_.size(); }
  // Composite: also reports every level's heavy-hitter sketch.
  void ReportSpace(SpaceAccountant* acct) const override;

 private:
  struct Level {
    // Survival threshold: keep ids whose shared sample key is < rate_num
    // (rate rate_num / kRateDen).
    uint64_t rate_num;
    F2HeavyHitters hh;
  };

  static constexpr uint64_t kRateDen = 1ULL << 40;

  // Sorts one entry per id, its largest estimate from the first level that
  // reports it, most frequent first.
  static std::vector<ContributingCoordinate> OnePerId(
      std::vector<ContributingCoordinate> all);

  // Calls fn(level, entries, num) for every level in order, with the
  // entries of `block` whose key passes it (nested: each level narrows the
  // previous level's list; a full-rate level keeps all and reads no key).
  template <typename Fn>
  void ForEachLevel(const HashedIds& block, Fn fn) const;

  Config config_;
  std::vector<Level> levels_;  // sorted by decreasing rate
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_F2_CONTRIBUTING_H_
