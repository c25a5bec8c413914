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

#ifndef STREAMKC_SKETCH_F2_CONTRIBUTING_H_
#define STREAMKC_SKETCH_F2_CONTRIBUTING_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "hash/kwise_hash.h"
#include "obs/space_accountant.h"
#include "sketch/f2_heavy_hitters.h"
#include "util/scratch.h"
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
    // Contribution threshold γ.
    double gamma = 0.01;
    // Upper bound r on the size of contributing classes to search for
    // (the paper's second argument; see Remark 4.12 for why bounding it
    // matters). Levels are 2^0 .. 2^ceil(log2 r).
    uint64_t max_class_size = 1u << 20;
    // Domain size hint (the m in ρ = 12·log m / 2^i); used for the
    // per-level sampling rate and hash independence.
    uint64_t domain_size = 1u << 20;
    // Heavy-hitter threshold per level: φ = phi_factor · γ. The paper's
    // theory value divides by Θ(log n · log^{c+1} m); practical default 1/4.
    double phi_factor = 0.25;
    // Sampling-rate numerator multiplier: rate_i = sample_factor·log2(m)/2^i.
    double sample_factor = 12.0;
    uint64_t seed = 1;
  };

  explicit F2Contributing(const Config& config);

  void Add(uint64_t id, int64_t delta = 1);

  // Hash-once ingest path: `folded` must equal MersenneFold(id). One fold
  // serves the shared level sampler and every surviving level's
  // heavy-hitter sketch, but each call still evaluates the sampler (unless
  // every level is full rate, when no key can reject) and the levels'
  // CountSketch rows for this id alone; AddIndexedBatch below runs the same
  // hashes once per distinct id of a block.
  void AddFolded(uint64_t id, uint64_t folded, int64_t delta = 1);

  // n AddFolded calls in one block over an id index, bit-identical state:
  // update j is AddFolded(ids[slot[j]], folded[slot[j]], delta). The shared
  // sampler key is hashed once per index entry; then each level, in order,
  // keeps the entries whose key passes its threshold (nested, so every
  // level filters the previous level's) and takes its updates as one
  // F2HeavyHitters::AddIndexedBatch block over just those entries. Levels
  // hold disjoint state and each still sees its updates in stream order.
  // This is the path LargeSetComplete::ProcessBatch uses, with its
  // supersets as the ids; AddFolded is the per-edge reference.
  void AddIndexedBatch(const uint64_t* ids, const uint64_t* folded,
                       size_t num_ids, const uint32_t* slot, size_t n,
                       int64_t delta = 1);

  // The block without repetition: update j is AddFolded(ids[j], folded[j]).
  void AddFoldedBatch(const uint64_t* ids, const uint64_t* folded, size_t n,
                      int64_t delta = 1) {
    AddIndexedBatch(ids, folded, n, IdentitySlots(n), n, delta);
  }

  // One representative (at least) from each γ-contributing class of size
  // ≤ max_class_size, deduplicated by id (max estimate wins), sorted by
  // descending estimate.
  std::vector<ContributingCoordinate> Extract() const;

  // Merges another instance built with the same Config (per-level sketch
  // merge; the shared coordinate sampler is seed-identical by construction).
  void Merge(const F2Contributing& other);

  // Binary checkpointing: config + every level's heavy-hitter state.
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

  Config config_;
  // One Θ(log mn)-wise hash shared by all levels: level i keeps ids whose
  // key falls below its threshold, so the per-level samples are nested and
  // one hash evaluation serves every level. Each level in isolation is a
  // uniform sample at its own rate, which is all Lemma 2.9 / Claim 2.8 need;
  // levels are analyzed separately and union-bounded, so cross-level
  // independence is never used.
  KWiseHash sampler_;
  std::vector<Level> levels_;  // sorted by decreasing rate
  // Every level keeps every id (each rate_num is kRateDen), so no sampler
  // key can reject one and the ingest paths skip the hash.
  bool full_rate_only_ = false;
};

}  // namespace streamkc

#endif  // STREAMKC_SKETCH_F2_CONTRIBUTING_H_
