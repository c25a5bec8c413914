// Batch-vs-per-edge differential tests: the ProcessBatch / AddFoldedBatch
// ingest path must leave every estimator in a state BIT-IDENTICAL to the
// per-edge Process / Add path on the same stream — not merely statistically
// equivalent. Sketches are compared by serialized blob (the strongest
// observable equality the library offers); the core estimator stack by
// exact Finalize() equality, which a single reordered hash admission would
// break.
//
// Batch sizes are deliberately awkward (primes straddling the 128-edge
// internal tile) so tile remainders and cross-batch boundaries are hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimate_max_cover.h"
#include "core/large_set.h"
#include "core/report_max_cover.h"
#include "hash/kwise_hash.h"
#include "hash/mersenne.h"
#include "runtime/edge_batch.h"
#include "runtime/sketch_states.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/hyperloglog.h"
#include "sketch/l0_estimator.h"
#include "test_util.h"
#include "util/math_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

template <typename Sketch>
std::string Blob(const Sketch& sketch) {
  std::stringstream ss;
  sketch.Save(ss);
  return ss.str();
}

// Element ids folded once — the producer-side contract of the batch path.
std::vector<uint64_t> FoldedElements(const std::vector<Edge>& edges) {
  std::vector<uint64_t> folded;
  folded.reserve(edges.size());
  for (const Edge& e : edges) folded.push_back(MersenneFold(e.element));
  return folded;
}

// Streams `edges` into `batched` through ProcessBatch in chunks of
// `batch_size`, using the same EdgeBatch::Prefold hand-off the sharded
// pipeline uses.
template <typename Alg>
void FeedBatched(Alg& batched, const std::vector<Edge>& edges,
                 size_t batch_size) {
  EdgeBatch batch;
  for (size_t i = 0; i < edges.size(); i += batch_size) {
    size_t m = std::min(batch_size, edges.size() - i);
    batch.Clear();
    batch.edges.assign(edges.begin() + i, edges.begin() + i + m);
    batch.Prefold();
    batched.ProcessBatch(batch.View());
  }
}

TEST(BatchEquivalence, L0BitIdentical) {
  std::vector<Edge> edges = SyntheticEdges(20000, 42);
  std::vector<uint64_t> folded = FoldedElements(edges);
  L0Estimator per_edge({.num_mins = 128, .seed = 5});
  L0Estimator batched({.num_mins = 128, .seed = 5});
  for (const Edge& e : edges) per_edge.Add(e.element);
  // 113 < tile (remainder path) and a stretch past it in one call.
  batched.AddFoldedBatch(folded.data(), 113);
  batched.AddFoldedBatch(folded.data() + 113, folded.size() - 113);
  EXPECT_EQ(Blob(per_edge), Blob(batched));
  EXPECT_DOUBLE_EQ(per_edge.Estimate(), batched.Estimate());
}

TEST(BatchEquivalence, AmsF2BitIdentical) {
  std::vector<Edge> edges = SyntheticEdges(10000, 7);
  std::vector<uint64_t> folded = FoldedElements(edges);
  AmsF2Sketch per_edge({.rows = 5, .cols = 16, .seed = 3});
  AmsF2Sketch batched({.rows = 5, .cols = 16, .seed = 3});
  for (const Edge& e : edges) per_edge.Add(e.element);
  for (size_t i = 0; i < folded.size(); i += 131) {
    batched.AddFoldedBatch(folded.data() + i,
                           std::min<size_t>(131, folded.size() - i));
  }
  EXPECT_EQ(Blob(per_edge), Blob(batched));
  EXPECT_DOUBLE_EQ(per_edge.Estimate(), batched.Estimate());
}

TEST(BatchEquivalence, CountSketchBitIdentical) {
  std::vector<Edge> edges = SyntheticEdges(10000, 11, 256, 512);
  std::vector<uint64_t> folded = FoldedElements(edges);
  CountSketch per_edge({.depth = 5, .width = 64, .seed = 9});
  CountSketch batched({.depth = 5, .width = 64, .seed = 9});
  for (const Edge& e : edges) per_edge.Add(e.element, 1);
  for (size_t i = 0; i < folded.size(); i += 251) {
    batched.AddFoldedBatch(folded.data() + i,
                           std::min<size_t>(251, folded.size() - i), 1);
  }
  EXPECT_EQ(Blob(per_edge), Blob(batched));
  EXPECT_DOUBLE_EQ(per_edge.EstimateF2(), batched.EstimateF2());
}

TEST(BatchEquivalence, F2HeavyHittersFoldedIdentical) {
  std::vector<Edge> edges = SyntheticEdges(8000, 13, 256, 64);
  F2HeavyHitters per_edge({.phi = 0.05, .seed = 21});
  F2HeavyHitters folded_path({.phi = 0.05, .seed = 21});
  for (const Edge& e : edges) per_edge.Add(e.element);
  for (const Edge& e : edges) {
    folded_path.AddFolded(e.element, MersenneFold(e.element));
  }
  EXPECT_EQ(Blob(per_edge), Blob(folded_path));
}

TEST(BatchEquivalence, F2ContributingFoldedIdentical) {
  std::vector<Edge> edges = SyntheticEdges(8000, 17, 256, 128);
  F2Contributing::Config cfg;
  cfg.gamma = 0.05;
  cfg.domain_size = 128;
  cfg.max_class_size = 64;
  cfg.seed = 31;
  F2Contributing per_edge(cfg);
  F2Contributing folded_path(cfg);
  for (const Edge& e : edges) per_edge.Add(e.element);
  for (const Edge& e : edges) {
    folded_path.AddFolded(e.element, MersenneFold(e.element));
  }
  EXPECT_EQ(Blob(per_edge), Blob(folded_path));
}

// Block sizes for the AddFoldedBatch differentials: single updates, both
// sides of the 128-id tile, and (0 = the whole stream) one call spanning
// many tiles.
constexpr size_t kBlockSizes[] = {1, 127, 128, 129, 0};

// Skewed id stream over [0, domain): id = h mod (1 + h' mod domain) puts a
// harmonic-like weight on small ids. A few ids end up heavy while many light
// ones arrive early, so the quick gate admits ids and the candidate set
// overflows into PruneCandidates.
std::vector<uint64_t> SkewedIds(size_t count, uint64_t seed, uint64_t domain) {
  std::vector<uint64_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = SplitMix64(seed + i);
    ids.push_back(h % (1 + SplitMix64(h) % domain));
  }
  return ids;
}

std::vector<uint64_t> FoldedIds(const std::vector<uint64_t>& ids) {
  std::vector<uint64_t> folded;
  folded.reserve(ids.size());
  for (uint64_t id : ids) folded.push_back(MersenneFold(id));
  return folded;
}

// Streams the ids into `sketch` as AddFoldedBatch blocks of `block` ids
// (0 = one call for everything).
template <typename Sketch>
void FeedBlocks(Sketch& sketch, const std::vector<uint64_t>& ids,
                const std::vector<uint64_t>& folded, size_t block) {
  if (block == 0) block = ids.size();
  for (size_t i = 0; i < ids.size(); i += block) {
    sketch.AddFoldedBatch(ids.data() + i, folded.data() + i,
                          std::min(block, ids.size() - i));
  }
}

TEST(BatchEquivalence, F2HeavyHittersBlockPathBitIdentical) {
  const std::vector<uint64_t> ids = SkewedIds(40000, 13, 6144);
  const std::vector<uint64_t> folded = FoldedIds(ids);
  // LargeSet's two heavy-hitter thresholds at m = 4096, α = 8: φ1 = α²/m
  // (cntr_small_) and φ2 = 1/(2·log2 α) (cntr_large_).
  for (double phi : {1.0 / 64, 1.0 / 6}) {
    F2HeavyHitters per_update({.phi = phi, .seed = 21});
    // Watch the candidate set between updates: growth is a quick-gate
    // admission, shrinkage a PruneCandidates pass.
    uint64_t admitted = 0;
    uint64_t prunes = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint64_t before = per_update.ItemCount();
      per_update.AddFolded(ids[i], folded[i]);
      const uint64_t after = per_update.ItemCount();
      admitted += after > before;
      prunes += after < before;
    }
    EXPECT_GT(admitted, 0u) << "phi " << phi;
    EXPECT_GT(prunes, 0u) << "phi " << phi;
    for (size_t block : kBlockSizes) {
      F2HeavyHitters batched({.phi = phi, .seed = 21});
      FeedBlocks(batched, ids, folded, block);
      EXPECT_EQ(Blob(per_update), Blob(batched))
          << "phi " << phi << " block " << block;
    }
  }
}

TEST(BatchEquivalence, F2ContributingBlockPathBitIdentical) {
  const std::vector<uint64_t> ids = SkewedIds(40000, 17, 6144);
  const std::vector<uint64_t> folded = FoldedIds(ids);
  // LargeSet's two contributing sketches at m = 4096, α = 8: Q = 6144
  // supersets; class bound 3sα + 1 = 13 at φ1 = 1/64 (every level is full
  // rate, deduplicated to one) and Q at φ2 = 1/6 (nine nested levels).
  struct Case {
    double gamma;
    uint64_t class_bound;
    uint32_t levels;
  };
  for (const Case& c : {Case{1.0 / 64, 13, 1}, Case{1.0 / 6, 6144, 9}}) {
    F2Contributing::Config cfg;
    cfg.gamma = c.gamma;
    cfg.phi_factor = 1.0;
    cfg.max_class_size = c.class_bound;
    cfg.domain_size = 6144;
    cfg.sample_factor = 4.0;
    cfg.seed = 31;
    F2Contributing per_update(cfg);
    ASSERT_EQ(per_update.num_levels(), c.levels);
    for (size_t i = 0; i < ids.size(); ++i) {
      per_update.AddFolded(ids[i], folded[i]);
    }
    for (size_t block : kBlockSizes) {
      F2Contributing batched(cfg);
      FeedBlocks(batched, ids, folded, block);
      EXPECT_EQ(Blob(per_update), Blob(batched))
          << "class bound " << c.class_bound << " block " << block;
    }
  }
}

TEST(BatchEquivalence, CountSketchPointQueryIsTheMedianOfRowVotes) {
  // PointQuery collects its row votes in a stack array; it must return
  // exactly Median() of the vote vector, at odd and even depth. A reference
  // model rebuilds the votes from the documented construction: row r
  // hashes with FourWise(r-th fork of Rng(seed)), sign from the low bit,
  // bucket from the remaining 60 bits.
  const std::vector<Edge> edges = SyntheticEdges(5000, 3, 512, 64);
  for (uint32_t depth : {4u, 5u}) {
    const CountSketch::Config cfg{.depth = depth, .width = 32, .seed = 41};
    CountSketch sketch(cfg);
    Rng rng(cfg.seed);
    std::vector<KWiseHash> rows;
    for (uint32_t r = 0; r < depth; ++r) {
      rows.push_back(KWiseHash::FourWise(rng.Fork()));
    }
    auto sign_cell = [&](uint32_t r, uint64_t id) {
      const uint64_t h = rows[r].Map(id);
      const size_t bucket = static_cast<size_t>(
          (static_cast<__uint128_t>(h >> 1) * cfg.width) >> 60);
      return std::pair<int64_t, size_t>((h & 1) ? 1 : -1,
                                        r * cfg.width + bucket);
    };
    std::vector<int64_t> counters(size_t{depth} * cfg.width, 0);
    for (const Edge& e : edges) {
      sketch.Add(e.set);
      for (uint32_t r = 0; r < depth; ++r) {
        auto [sign, cell] = sign_cell(r, e.set);
        counters[cell] += sign;
      }
    }
    for (uint64_t id = 0; id < 600; ++id) {  // seen ids and unseen ones
      std::vector<double> votes;
      for (uint32_t r = 0; r < depth; ++r) {
        auto [sign, cell] = sign_cell(r, id);
        votes.push_back(static_cast<double>(sign * counters[cell]));
      }
      EXPECT_EQ(sketch.PointQuery(id), Median(votes))
          << "depth " << depth << " id " << id;
    }
  }
}

TEST(BatchEquivalence, LargeSetSaturatedGuessMatchesPerEdge) {
  // universe_size ≤ t·s·α·η (64α in practical mode) makes ρ = 1: one
  // repetition, no element gate, and every edge reaches both contributing
  // sketches and the pool gate. m = 4096 gives the benchmark's Q = 6144.
  auto inst = LargeSetFamily(4096, 256, 4, 7);
  const std::vector<Edge> edges = InstanceEdges(inst, 4);
  LargeSet::Config cfg;
  cfg.params = Params::Practical(4096, 256, 16, 8);
  cfg.universe_size = 256;
  cfg.w = 8;
  cfg.reporting = true;
  cfg.seed = 5;
  LargeSet per_edge(cfg);
  ASSERT_EQ(per_edge.num_repetitions(), 1u);
  for (const Edge& e : edges) per_edge.Process(e);
  const EstimateOutcome want = per_edge.Finalize();
  ASSERT_TRUE(want.feasible);
  const std::vector<SetId> want_sets = per_edge.ExtractSolution(16);
  ASSERT_FALSE(want_sets.empty());
  for (size_t block : kBlockSizes) {
    LargeSet batched(cfg);
    FeedBatched(batched, edges, block == 0 ? edges.size() : block);
    const EstimateOutcome got = batched.Finalize();
    EXPECT_EQ(got.feasible, want.feasible) << "block " << block;
    EXPECT_EQ(got.source, want.source) << "block " << block;
    EXPECT_EQ(got.estimate, want.estimate) << "block " << block;
    EXPECT_EQ(batched.ExtractSolution(16), want_sets) << "block " << block;
    EXPECT_EQ(batched.MemoryBytes(), per_edge.MemoryBytes())
        << "block " << block;
  }
}

TEST(BatchEquivalence, CoverageSketchStateIdentical) {
  std::vector<Edge> edges = SyntheticEdges(30000, 19);
  CoverageSketchState::Config cfg;
  CoverageSketchState per_edge(cfg);
  CoverageSketchState batched(cfg);
  for (const Edge& e : edges) per_edge.Process(e);
  FeedBatched(batched, edges, 509);
  EXPECT_EQ(Blob(per_edge.covered_l0), Blob(batched.covered_l0));
  EXPECT_EQ(Blob(per_edge.element_f2), Blob(batched.element_f2));
  EXPECT_DOUBLE_EQ(per_edge.covered_hll.Estimate(),
                   batched.covered_hll.Estimate());
}

TEST(BatchEquivalence, EstimateMaxCoverOracleMode) {
  auto inst = MakeFamilyInstance("planted", 512, 1024, 16, 23);
  std::vector<Edge> edges = InstanceEdges(inst, 5);
  EstimateMaxCover::Config cfg;
  cfg.params = Params::Practical(512, 1024, 16, 8);
  cfg.seed = 77;
  EstimateMaxCover per_edge(cfg);
  EstimateMaxCover batched(cfg);
  ASSERT_FALSE(per_edge.trivial_mode());
  for (const Edge& e : edges) per_edge.Process(e);
  FeedBatched(batched, edges, 241);
  EstimateOutcome a = per_edge.Finalize();
  EstimateOutcome b = batched.Finalize();
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.source, b.source);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
}

TEST(BatchEquivalence, EstimateMaxCoverTrivialMode) {
  auto inst = MakeFamilyInstance("uniform", 64, 512, 16, 29);
  std::vector<Edge> edges = InstanceEdges(inst, 6);
  EstimateMaxCover::Config cfg;
  cfg.params = Params::Practical(64, 512, 16, 8);  // kα = 128 ≥ m = 64
  cfg.seed = 78;
  EstimateMaxCover per_edge(cfg);
  EstimateMaxCover batched(cfg);
  ASSERT_TRUE(per_edge.trivial_mode());
  for (const Edge& e : edges) per_edge.Process(e);
  FeedBatched(batched, edges, 241);
  EXPECT_DOUBLE_EQ(per_edge.Finalize().estimate, batched.Finalize().estimate);
}

TEST(BatchEquivalence, ReportMaxCoverSolutionsIdentical) {
  auto inst = MakeFamilyInstance("planted", 512, 1024, 16, 37);
  std::vector<Edge> edges = InstanceEdges(inst, 8);
  ReportMaxCover::Config cfg;
  cfg.params = Params::Practical(512, 1024, 16, 8);
  cfg.seed = 99;
  ReportMaxCover per_edge(cfg);
  ReportMaxCover batched(cfg);
  for (const Edge& e : edges) per_edge.Process(e);
  FeedBatched(batched, edges, 367);
  MaxCoverSolution a = per_edge.Finalize();
  MaxCoverSolution b = batched.Finalize();
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.sets, b.sets);
}

// Cross-validation of the two Theorem 2.12 realizations: KMV and HLL see
// identical streams and must agree with the true distinct count — and hence
// with each other — within their combined relative-error bands. A bug in
// either batch path that degrades accuracy without breaking determinism
// (e.g. dropping admissions) trips this even though the bit-identity tests
// above pass vacuously on both sides.
TEST(BatchEquivalence, KmvHllCrossValidation) {
  constexpr uint32_t kNumMins = 256;
  constexpr uint32_t kPrecision = 12;
  // 3σ bands: KMV σ ≈ 1/√(k-2), HLL σ ≈ 1.04/√2^p.
  const double kmv_band = 3.0 / std::sqrt(static_cast<double>(kNumMins - 2));
  const double hll_band = 3.04 * 1.04 / std::sqrt(4096.0);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const uint64_t distinct = 40000 + 1000 * seed;
    L0Estimator kmv({.num_mins = kNumMins, .seed = seed});
    HyperLogLog hll({.precision = kPrecision, .seed = seed});
    std::vector<uint64_t> folded;
    folded.reserve(2 * distinct);
    // Every id appears twice (batch path sees the duplicates too).
    for (uint64_t rep = 0; rep < 2; ++rep) {
      for (uint64_t i = 0; i < distinct; ++i) {
        uint64_t id = SplitMix64(i ^ (seed << 32));
        folded.push_back(MersenneFold(id));
        hll.Add(id);
      }
    }
    kmv.AddFoldedBatch(folded.data(), folded.size());
    const double d = static_cast<double>(distinct);
    EXPECT_NEAR(kmv.Estimate(), d, kmv_band * d)
        << "KMV outside band at seed " << seed;
    EXPECT_NEAR(hll.Estimate(), d, hll_band * d)
        << "HLL outside band at seed " << seed;
    EXPECT_NEAR(kmv.Estimate(), hll.Estimate(),
                (kmv_band + hll_band) * d)
        << "KMV and HLL disagree at seed " << seed;
  }
}

}  // namespace
}  // namespace streamkc
