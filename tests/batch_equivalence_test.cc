// Batch-vs-per-edge differential tests: the ProcessBatch / AddFoldedBatch
// ingest path must leave every estimator in a state BIT-IDENTICAL to the
// per-edge Process / Add path on the same stream — not merely statistically
// equivalent. Sketches are compared by serialized blob (the strongest
// observable equality the library offers); the core estimator stack by
// exact Finalize() equality, which a single reordered hash admission would
// break. The heavy-hitter sketches' window path has its own contract,
// pinned below: counters equal single updates' for any blocking, and
// candidates are equal once the same window closes, whatever the order
// inside it.
//
// Batch sizes are deliberately awkward (primes straddling the 128-edge
// internal tile, and both sides of LargeSet's 4096-edge window) so tile
// remainders, window ends and cross-batch boundaries are hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimate_max_cover.h"
#include "core/large_common.h"
#include "core/large_set.h"
#include "core/report_max_cover.h"
#include "core/small_set.h"
#include "hash/kwise_hash.h"
#include "hash/mersenne.h"
#include "obs/space_accountant.h"
#include "runtime/edge_batch.h"
#include "runtime/sketch_states.h"
#include "serve/serving_state.h"
#include "setsys/generators.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/hyperloglog.h"
#include "sketch/l0_estimator.h"
#include "test_util.h"
#include "util/dense_index.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"

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

// Block sizes for the block-update differentials: single updates, both
// sides of the old 128-id tile, the serving path's 4096-edge batch, and
// (0 = the whole stream) one call for everything.
constexpr size_t kBlockSizes[] = {1, 127, 128, 129, 4096, 0};

// Skewed id stream over [0, domain): id = h mod (1 + h' mod domain) puts a
// harmonic-like weight on small ids, so a few ids end up heavy among many
// light ones. The gates admit some of them, too few to ever prune
// (FadingIds below does).
std::vector<uint64_t> SkewedIds(size_t count, uint64_t seed, uint64_t domain) {
  std::vector<uint64_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = SplitMix64(seed + i);
    ids.push_back(h % (1 + SplitMix64(h) % domain));
  }
  return ids;
}

// The two set-repetition regimes a batch meets. Set-skewed: PlantedCover's
// 16 planted sets hold half the universe, so they carry most edges and each
// repeats hundreds of times in a 4096-edge batch. Set-uniform:
// ZipfFrequency's sets all hold 12 elements.
struct IndexStream {
  const char* name;
  std::vector<Edge> edges;
};

constexpr uint64_t kIndexM = 1024;
constexpr uint64_t kIndexN = 1 << 14;

const std::vector<IndexStream>& IndexStreams() {
  static const std::vector<IndexStream> streams = {
      {"planted",
       InstanceEdges(PlantedCover(kIndexM, kIndexN, 16, 0.5, 6, 41), 3)},
      {"zipf", InstanceEdges(ZipfFrequency(kIndexM, kIndexN, 12, 1.1, 43), 4)},
  };
  return streams;
}

// The stream's set ids in arrival order, with the stream's repetition.
std::vector<uint64_t> SetIds(const IndexStream& stream) {
  std::vector<uint64_t> ids;
  for (const Edge& e : stream.edges) ids.push_back(e.set);
  return ids;
}

// ---- The heavy-hitter sketches' window path ---------------------------------

constexpr size_t kWindow = LargeSetComplete::kWindowEdges;

// `v` with each kWindow-long run shuffled on its own.
template <typename T>
std::vector<T> ShuffledWithinWindows(std::vector<T> v, uint64_t seed) {
  for (size_t i = 0; i < v.size(); i += kWindow) {
    std::vector<T> run(v.begin() + i,
                       v.begin() + std::min(v.size(), i + kWindow));
    Rng(seed + i).Shuffle(run);
    std::copy(run.begin(), run.end(), v.begin() + i);
  }
  return v;
}

// Updates summed per distinct id, ascending, with every hash the sketches
// read, as LargeSet hands them over.
struct HashedBlock {
  std::vector<uint64_t> ids, keys, row_hashes;
  std::vector<int64_t> counts;

  HashedBlock(const F2Contributing::Hashes& hashes,
              std::vector<uint64_t> updates) {
    std::sort(updates.begin(), updates.end());
    for (uint64_t id : updates) {
      if (ids.empty() || ids.back() != id) {
        ids.push_back(id);
        counts.push_back(0);
      }
      ++counts.back();
    }
    const size_t n = ids.size();
    keys.resize(n);
    row_hashes.resize(size_t{hashes.rows.depth()} * n);
    hashes.HashFoldedBatch(FoldedIds(ids).data(), n, keys.data(),
                           row_hashes.data());
  }

  HashedIds view() const {
    return {ids.data(), row_hashes.data(), keys.data(), counts.data(),
            ids.size()};
  }

  static std::vector<uint64_t> FoldedIds(const std::vector<uint64_t>& ids) {
    std::vector<uint64_t> folded;
    for (uint64_t id : ids) folded.push_back(MersenneFold(id));
    return folded;
  }
};

// A heavy set that fades: window w (from 1) spreads its kWindow updates
// evenly over width/w fresh ids, in shuffled order, and `tail` updates of
// the next window follow. After w windows F2 is kWindow²·w(w+1)/(2·width)
// and each of window w's ids counts kWindow·w/width, so at width = 4/φ its
// square clears the gates' bar φ·F2/6 by 1.5x to 3x: every window admits,
// and the ~4/φ·(1 + 1/2 + … + 1/8) ≈ 10.9/φ fresh ids of eight windows
// overflow twice the default capacity of 4/φ into pruning.
std::vector<uint64_t> FadingIds(uint64_t width, size_t windows, size_t tail,
                                uint64_t seed) {
  std::vector<uint64_t> ids;
  uint64_t next = 0;
  for (size_t w = 1; w <= windows + 1; ++w) {
    const uint64_t fresh = std::max<uint64_t>(1, width / w);
    const size_t len = w <= windows ? kWindow : tail;
    std::vector<uint64_t> run;
    for (size_t i = 0; i < len; ++i) run.push_back(next + i % fresh);
    Rng(seed + w).Shuffle(run);
    ids.insert(ids.end(), run.begin(), run.end());
    next += fresh;
  }
  return ids;
}

// Candidate ids a sketch holds, summed over its heavy-hitter sketches.
uint64_t Candidates(const SpaceMetered& sketch) {
  SpaceAccountant acct;
  acct.Sample(sketch);
  return acct.components().at("f2_heavy_hitters").items;
}

// What a window-path feed leaves: the sketch's blob after every window end
// and at the stream's end, and how many window ends raised the candidate
// count (admissions) or lowered it (a prune: admission only adds).
struct WindowTrace {
  std::vector<std::string> blobs;
  int rises = 0;
  int falls = 0;
};

// Streams `ids` through a window-path sketch: blocks of `block` updates (0 =
// the whole stream), cut at window ends, each summed per distinct id before
// `add(sketch, block)` takes it; after every kWindow-th update,
// `admit(sketch, window)` over the window's distinct ids.
template <typename Sketch, typename Add, typename Admit>
WindowTrace FeedWindows(Sketch sketch, const F2Contributing::Hashes& hashes,
                        const std::vector<uint64_t>& ids, size_t block,
                        Add add, Admit admit) {
  if (block == 0) block = ids.size();
  WindowTrace trace;
  std::vector<uint64_t> window;
  for (size_t i = 0; i < ids.size();) {
    const size_t n =
        std::min({block, ids.size() - i, kWindow - i % kWindow});
    const std::vector<uint64_t> updates(ids.begin() + i, ids.begin() + i + n);
    add(sketch, HashedBlock(hashes, updates).view());
    window.insert(window.end(), updates.begin(), updates.end());
    i += n;
    if (i % kWindow == 0) {
      const uint64_t before = Candidates(sketch);
      admit(sketch, HashedBlock(hashes, window).view());
      window.clear();
      const uint64_t after = Candidates(sketch);
      trace.rises += after > before;
      trace.falls += after < before;
      trace.blobs.push_back(Blob(sketch));
    }
  }
  trace.blobs.push_back(Blob(sketch));
  return trace;
}

// The window contract on one sketch and stream: every blocking, and the
// updates shuffled within each window, give the blobs that single updates
// give at every window end and at the end (counters and candidates).
// Returns the single-update feed's trace.
template <typename Sketch, typename Add, typename Admit>
WindowTrace ExpectWindowContract(const Sketch& empty,
                                 const F2Contributing::Hashes& hashes,
                                 const std::vector<uint64_t>& ids,
                                 const std::string& label, Add add,
                                 Admit admit) {
  EXPECT_NE(ids.size() % kWindow, 0u) << label;  // ends mid-window
  const WindowTrace want = FeedWindows(empty, hashes, ids, 1, add, admit);
  for (size_t block : {size_t{127}, size_t{4095}, size_t{4096}, size_t{0}}) {
    EXPECT_EQ(FeedWindows(empty, hashes, ids, block, add, admit).blobs,
              want.blobs)
        << label << " block " << block;
  }
  EXPECT_EQ(FeedWindows(empty, hashes, ShuffledWithinWindows(ids, 7), 4096,
                        add, admit)
                .blobs,
            want.blobs)
      << label << " shuffled within windows";
  return want;
}

// LargeSet's two heavy-hitter thresholds at m = 4096, α = 8: φ1 = α²/m
// (cntr_small_) and φ2 = 1/(2·log2 α) (cntr_large_).
constexpr double kPhis[] = {1.0 / 64, 1.0 / 6};

TEST(BatchEquivalence, F2HeavyHittersWindowContract) {
  const std::vector<uint64_t> ids = SkewedIds(40000, 13, 6144);
  for (double phi : kPhis) {
    const F2HeavyHitters::Config cfg{.phi = phi, .seed = 21};
    const F2Contributing::Hashes hashes{KWiseHash(8, 1), RowsFor(cfg)};
    auto add = [](F2HeavyHitters& hh, const HashedIds& block) {
      hh.AddCounts(block, IdentitySlots(block.n), block.n);
    };
    auto admit = [&hashes](F2HeavyHitters& hh, const HashedIds& window) {
      hh.Admit(hashes.rows, window, IdentitySlots(window.n), window.n);
    };
    const std::string label = "phi " + std::to_string(phi);
    const F2HeavyHitters empty(cfg);
    EXPECT_GT(ExpectWindowContract(empty, hashes, ids, label + " skewed ids",
                                   add, admit)
                  .rises,
              0)
        << label;
    // Through pruning: admissions and prunes both happen.
    const WindowTrace fading = ExpectWindowContract(
        empty, hashes, FadingIds(static_cast<uint64_t>(4 / phi), 8, 1500, 3),
        label + " fading ids", add, admit);
    EXPECT_GT(fading.rises, 0) << label;
    EXPECT_GT(fading.falls, 0) << label;
    for (const IndexStream& stream : IndexStreams()) {
      ExpectWindowContract(empty, hashes, SetIds(stream),
                           label + " " + stream.name + " set ids", add,
                           admit);
    }
    // Counters are the per-update loop's: Add() admits after every update,
    // the window path once per window, and they count the same.
    F2HeavyHitters per_update(cfg);
    for (uint64_t id : ids) per_update.Add(hashes.rows, id);
    F2HeavyHitters windowed = empty;
    for (size_t i = 0; i < ids.size(); i += 1000) {
      const std::vector<uint64_t> updates(
          ids.begin() + i, ids.begin() + std::min(ids.size(), i + 1000));
      add(windowed, HashedBlock(hashes, updates).view());
    }
    EXPECT_EQ(windowed.EstimateF2(), per_update.EstimateF2()) << label;
  }
}

TEST(BatchEquivalence, F2ContributingWindowContract) {
  const std::vector<uint64_t> ids = SkewedIds(40000, 17, 6144);
  // LargeSet's two contributing sketches at m = 4096, α = 8: Q = 6144
  // supersets; class bound 3sα + 1 = 13 at φ1 = 1/64 (every level is full
  // rate, deduplicated to one) and Q at φ2 = 1/6 (nine nested levels). As
  // in LargeSet, both read one Hashes.
  struct Case {
    double phi;
    uint64_t class_bound;
    uint32_t levels;
  };
  const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, 31);
  auto add = [](F2Contributing& fc, const HashedIds& block) {
    fc.AddCounts(block);
  };
  auto admit = [&hashes](F2Contributing& fc, const HashedIds& window) {
    fc.Admit(hashes, window);
  };
  for (const Case& c : {Case{1.0 / 64, 13, 1}, Case{1.0 / 6, 6144, 9}}) {
    F2Contributing::Config cfg;
    cfg.phi = c.phi;
    cfg.max_class_size = c.class_bound;
    cfg.domain_size = 6144;
    cfg.sample_factor = 4.0;
    cfg.seed = 31;
    const F2Contributing empty(cfg);
    ASSERT_EQ(empty.num_levels(), c.levels);
    const std::string label = "class bound " + std::to_string(c.class_bound);
    EXPECT_GT(ExpectWindowContract(empty, hashes, ids, label + " skewed ids",
                                   add, admit)
                  .rises,
              0)
        << label;
    // The full-rate level sees every fading id: it admits and prunes.
    const WindowTrace fading = ExpectWindowContract(
        empty, hashes,
        FadingIds(static_cast<uint64_t>(4 / c.phi), 8, 1500, 5),
        label + " fading ids", add, admit);
    EXPECT_GT(fading.rises, 0) << label;
    EXPECT_GT(fading.falls, 0) << label;
    for (const IndexStream& stream : IndexStreams()) {
      ExpectWindowContract(empty, hashes, SetIds(stream),
                           label + " " + stream.name + " set ids", add,
                           admit);
    }
  }
}

// Extract with an open window passes its ids through Admit's gates without
// pruning or mutating: as long as no prune fires (fewer distinct ids than
// twice the candidate capacity), it reads what closing the window and
// extracting would.
TEST(BatchEquivalence, ExtractReadsTheOpenWindowThroughTheGates) {
  const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, 33);
  F2Contributing::Config cfg;
  cfg.phi = 1.0 / 64;  // capacity 256: no prune below 513 distinct ids
  cfg.max_class_size = 6144;
  cfg.domain_size = 6144;
  cfg.sample_factor = 4.0;
  cfg.seed = 35;
  const std::vector<uint64_t> ids = SkewedIds(3 * kWindow + 1500, 19, 500);
  F2Contributing fc(cfg);
  std::vector<uint64_t> window;
  for (size_t i = 0; i < ids.size(); i += 256) {
    const std::vector<uint64_t> updates(
        ids.begin() + i, ids.begin() + std::min(ids.size(), i + 256));
    fc.AddCounts(HashedBlock(hashes, updates).view());
    window.insert(window.end(), updates.begin(), updates.end());
    if ((i + 256) % kWindow == 0) {
      fc.Admit(hashes, HashedBlock(hashes, window).view());
      window.clear();
    }
  }
  const HashedBlock open(hashes, window);
  ASSERT_FALSE(open.ids.empty());
  const std::string before = Blob(fc);
  const auto got = fc.Extract(hashes, open.view());
  EXPECT_EQ(Blob(fc), before);  // the evaluation mutated nothing
  F2Contributing closed = fc;
  closed.Admit(hashes, open.view());
  const auto want = closed.Extract(hashes);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].estimate, want[i].estimate);
    EXPECT_EQ(got[i].level, want[i].level);
  }
  // Not vacuous: closing the window admitted some of its ids.
  EXPECT_NE(Blob(closed), before);
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

// ---- The batch set index (core/set_index.h) --------------------------------

// Where a batch's set index comes from. kComponent hands over plain views,
// so the component indexes each batch itself; the others supply the index
// from the caller: first-seen numbering (what EstimateMaxCover builds), one
// entry per edge (no repetition at all), and distinct sets numbered in id
// order. An index is only an indirection, so all of them must leave the
// state a Process() loop leaves.
enum class IndexSource { kComponent, kFirstSeen, kPerEdge, kSortedIds };

void BuildCallerIndex(const PrefoldedEdges& view, IndexSource source,
                      std::vector<uint32_t>* slot,
                      std::vector<uint64_t>* distinct_folded) {
  slot->assign(view.size, 0);
  distinct_folded->clear();
  if (source == IndexSource::kPerEdge) {
    for (size_t i = 0; i < view.size; ++i) {
      (*slot)[i] = static_cast<uint32_t>(i);
      distinct_folded->push_back(view.set_folded[i]);
    }
  } else if (source == IndexSource::kFirstSeen) {
    DenseIndex index(view.size);
    for (size_t i = 0; i < view.size; ++i) {
      (*slot)[i] = index.Insert(view.edges[i].set);
      if ((*slot)[i] == distinct_folded->size()) {
        distinct_folded->push_back(view.set_folded[i]);
      }
    }
  } else {
    std::vector<SetId> ids;
    for (size_t i = 0; i < view.size; ++i) ids.push_back(view.edges[i].set);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (size_t i = 0; i < view.size; ++i) {
      (*slot)[i] = static_cast<uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), view.edges[i].set) -
          ids.begin());
    }
    for (SetId id : ids) distinct_folded->push_back(MersenneFold(id));
  }
}

// Streams `edges` through ProcessBatch in batches of `batch_size` (0 = the
// whole stream in one call), with the set index taken from `source`.
template <typename Alg>
void FeedIndexed(Alg& alg, const std::vector<Edge>& edges, size_t batch_size,
                 IndexSource source) {
  if (batch_size == 0) batch_size = edges.size();
  EdgeBatch batch;
  std::vector<uint32_t> slot;
  std::vector<uint64_t> distinct_folded;
  for (size_t i = 0; i < edges.size(); i += batch_size) {
    const size_t m = std::min(batch_size, edges.size() - i);
    batch.Clear();
    batch.edges.assign(edges.begin() + i, edges.begin() + i + m);
    batch.Prefold();
    PrefoldedEdges view = batch.View();
    if (source != IndexSource::kComponent) {
      BuildCallerIndex(view, source, &slot, &distinct_folded);
      view.set_slot = slot.data();
      view.distinct_set_folded = distinct_folded.data();
      view.num_distinct_sets = distinct_folded.size();
    }
    alg.ProcessBatch(view);
  }
}

std::string Describe(const EstimateOutcome& out) {
  std::ostringstream os;
  os.precision(17);
  os << out.feasible << ' ' << out.estimate << ' ' << out.source;
  return os.str();
}

std::string Describe(const std::vector<SetId>& sets) {
  std::string out = "sets";
  for (SetId s : sets) out += ' ' + std::to_string(s);
  return out;
}

// Bytes and item count (candidates, pool entries, stored edges, ...) of
// every component in the tree, summed per component name.
std::string SpaceRows(const SpaceMetered& root) {
  SpaceAccountant acct;
  acct.Sample(root);
  return acct.ToJson();
}

// The set-index differential for one component: `make()` builds a fresh
// instance, `observe` renders what it exposes of its state. The per-edge
// Process() loop is the reference. Every batch size with a
// component-built index, and every caller-supplied index at 4096-edge
// batches, must reproduce it exactly on both streams.
template <typename Make, typename Observe>
void ExpectIndexedBatchesMatchPerEdge(Make make, Observe observe) {
  for (const IndexStream& stream : IndexStreams()) {
    auto per_edge = make();
    for (const Edge& e : stream.edges) per_edge.Process(e);
    const std::string want = observe(per_edge);
    for (size_t size : kBlockSizes) {
      auto batched = make();
      FeedIndexed(batched, stream.edges, size, IndexSource::kComponent);
      EXPECT_EQ(observe(batched), want) << stream.name << " batch " << size;
    }
    for (IndexSource source : {IndexSource::kFirstSeen, IndexSource::kPerEdge,
                               IndexSource::kSortedIds}) {
      auto batched = make();
      FeedIndexed(batched, stream.edges, 4096, source);
      EXPECT_EQ(observe(batched), want)
          << stream.name << " caller index " << static_cast<int>(source);
    }
  }
}

Params IndexParams() { return Params::Practical(kIndexM, kIndexN, 16, 8); }

TEST(BatchEquivalence, SetIndexLargeCommon) {
  ExpectIndexedBatchesMatchPerEdge(
      [] {
        return LargeCommon({.params = IndexParams(),
                            .universe_size = kIndexN,
                            .reporting = true,
                            .seed = 51});
      },
      [](const LargeCommon& lc) {
        return Describe(lc.Finalize()) + Describe(lc.ExtractSolution(16)) +
               SpaceRows(lc);
      });
}

TEST(BatchEquivalence, SetIndexSmallSet) {
  // A budget this small makes every instance rescale, mid-batch included.
  Params p = IndexParams();
  p.small_set_budget_bytes = 2048;
  SmallSet probe({.params = p, .universe_size = kIndexN, .seed = 53});
  for (const Edge& e : IndexStreams()[0].edges) probe.Process(e);
  ASSERT_GT(probe.num_rescaled(), 0u);
  ExpectIndexedBatchesMatchPerEdge(
      [&p] {
        return SmallSet({.params = p,
                         .universe_size = kIndexN,
                         .reporting = true,
                         .seed = 53});
      },
      [](const SmallSet& ss) {
        std::vector<SetId> sets;
        const EstimateOutcome out = ss.Finalize(&sets);
        return Describe(out) + Describe(sets) + " rescaled " +
               std::to_string(ss.num_rescaled()) + SpaceRows(ss);
      });
}

// LargeSetComplete at the element rate ρ of its repetition: 1 (no element
// gate; every edge reaches the superset path) or 1/8 (the survivor rule:
// only the sets the gate's survivors reference are hashed).
void ExpectLargeSetCompleteMatches(double element_rate) {
  LargeSetComplete::Config cfg;
  cfg.params = IndexParams();
  cfg.universe_size = kIndexN;
  cfg.w = 8;
  cfg.element_rate = element_rate;
  cfg.reporting = true;
  cfg.seed = 55;
  ExpectIndexedBatchesMatchPerEdge(
      [&cfg] { return LargeSetComplete(cfg); },
      [](const LargeSetComplete& ls) {
        return Describe(ls.Finalize()) + Describe(ls.ExtractSolution(16)) +
               " pool " + std::to_string(ls.ItemCount()) + SpaceRows(ls);
      });
}

TEST(BatchEquivalence, SetIndexLargeSetCompleteFullRate) {
  ExpectLargeSetCompleteMatches(1.0);
}

TEST(BatchEquivalence, SetIndexLargeSetCompleteSampled) {
  ExpectLargeSetCompleteMatches(1.0 / 8);
}

// Thresholds at a 4096-element universe put both streams' heaviest
// supersets above them, so every answer these tests compare is feasible.
LargeSetComplete::Config WindowConfig(double element_rate) {
  LargeSetComplete::Config cfg;
  cfg.params = IndexParams();
  cfg.universe_size = 4096;
  cfg.w = 8;
  cfg.element_rate = element_rate;
  cfg.reporting = true;
  cfg.seed = 63;
  return cfg;
}

std::string AnswerAndBytes(const LargeSetComplete& ls) {
  return Describe(ls.Finalize()) + Describe(ls.ExtractSolution(16)) +
         " bytes " + std::to_string(ls.MemoryBytes());
}

// LargeSet's window contract: admission runs per 4096 input edges of the
// repetition's stream, over the supersets the window touched in id order,
// so the answer, the witness and MemoryBytes() are the Process() loop's for
// batches that straddle window ends and for edges shuffled within each
// window. Both streams end mid-window.
void ExpectWindowContract(double element_rate) {
  const LargeSetComplete::Config cfg = WindowConfig(element_rate);
  for (const IndexStream& stream : IndexStreams()) {
    ASSERT_NE(stream.edges.size() % kWindow, 0u) << stream.name;
    LargeSetComplete per_edge(cfg);
    for (const Edge& e : stream.edges) per_edge.Process(e);
    ASSERT_TRUE(per_edge.Finalize().feasible) << stream.name;
    const std::string want = AnswerAndBytes(per_edge);
    for (size_t size : {size_t{1}, size_t{127}, size_t{4095}, size_t{4096},
                        size_t{4097}, size_t{5000}, size_t{0}}) {
      LargeSetComplete batched(cfg);
      FeedIndexed(batched, stream.edges, size, IndexSource::kComponent);
      EXPECT_EQ(AnswerAndBytes(batched), want)
          << stream.name << " batch " << size;
    }
    const std::vector<Edge> shuffled =
        ShuffledWithinWindows(stream.edges, 11);
    LargeSetComplete shuffled_per_edge(cfg);
    for (const Edge& e : shuffled) shuffled_per_edge.Process(e);
    EXPECT_EQ(AnswerAndBytes(shuffled_per_edge), want)
        << stream.name << " shuffled";
    LargeSetComplete shuffled_batched(cfg);
    FeedIndexed(shuffled_batched, shuffled, 5000, IndexSource::kComponent);
    EXPECT_EQ(AnswerAndBytes(shuffled_batched), want)
        << stream.name << " shuffled batch 5000";
  }
}

TEST(BatchEquivalence, LargeSetCompleteWindowContractFullRate) {
  ExpectWindowContract(1.0);
}

TEST(BatchEquivalence, LargeSetCompleteWindowContractSampled) {
  ExpectWindowContract(1.0 / 8);
}

// Finalize() on an open window evaluates its supersets through the
// admission gates as if the window had closed. At ρ < 1 the window can be
// closed without touching the counters: edges whose elements the element
// gate rejects count toward the window and change nothing else (a probe
// finds them: a surviving edge adds its superset to the open window, and so
// to MemoryBytes()). Unless that close prunes, both read the same.
TEST(BatchEquivalence, LargeSetCompleteFinalizeReadsTheOpenWindow) {
  const LargeSetComplete::Config cfg = WindowConfig(1.0 / 2);
  const size_t empty_bytes = LargeSetComplete(cfg).MemoryBytes();
  std::vector<Edge> rejected;
  for (ElementId e = kIndexN; rejected.size() < kWindow; ++e) {
    LargeSetComplete probe(cfg);
    probe.Process(Edge{0, e});
    if (probe.MemoryBytes() == empty_bytes) rejected.push_back(Edge{0, e});
  }
  for (const IndexStream& stream : IndexStreams()) {
    LargeSetComplete open(cfg);
    FeedIndexed(open, stream.edges, 4096, IndexSource::kComponent);
    const EstimateOutcome got = open.Finalize();
    ASSERT_TRUE(got.feasible) << stream.name;
    LargeSetComplete closed = open;
    const size_t rest = kWindow - stream.edges.size() % kWindow;
    for (size_t i = 0; i < rest; ++i) closed.Process(rejected[i]);
    EXPECT_LT(closed.MemoryBytes(), open.MemoryBytes()) << stream.name;
    EXPECT_EQ(Describe(got), Describe(closed.Finalize())) << stream.name;
    EXPECT_EQ(Describe(open.ExtractSolution(16)),
              Describe(closed.ExtractSolution(16)))
        << stream.name;
  }
}

TEST(BatchEquivalence, SetIndexEstimateMaxCover) {
  ExpectIndexedBatchesMatchPerEdge(
      [] {
        return EstimateMaxCover(
            {.params = IndexParams(), .reporting = true, .seed = 57});
      },
      [](const EstimateMaxCover& est) {
        return Describe(est.Finalize()) + Describe(est.ExtractSolution(16)) +
               SpaceRows(est);
      });
}

TEST(BatchEquivalence, SetIndexReportMaxCover) {
  ExpectIndexedBatchesMatchPerEdge(
      [] { return ReportMaxCover({.params = IndexParams(), .seed = 59}); },
      [](const ReportMaxCover& rep) {
        const MaxCoverSolution sol = rep.Finalize();
        return Describe(EstimateOutcome{true, sol.estimate, sol.source}) +
               Describe(sol.sets) + SpaceRows(rep);
      });
}

TEST(BatchEquivalence, SetIndexServingState) {
  ExpectIndexedBatchesMatchPerEdge(
      [] { return ServingState({.params = IndexParams(), .seed = 61}); },
      [](const ServingState& state) {
        const MaxCoverSolution sol = state.FinalizeSolution();
        return Describe(EstimateOutcome{true, sol.estimate, sol.source}) +
               Describe(sol.sets) + Blob(state.set_coverage()) +
               SpaceRows(state);
      });
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
