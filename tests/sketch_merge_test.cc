// Mergeability tests: all linear sketches must satisfy
//   sketch(stream A) ⊕ sketch(stream B) == sketch(A ++ B)
// exactly (counter-level equality), which is what makes the pipeline usable
// over distributed or sharded streams.
//
// The *MergeOrder* tests go further: the runtime's merge coordinator folds
// shard replicas in a fixed order, but nothing in the reduction should
// depend on it — folding the same ≥4 shard sketches in random orders must
// produce identical results (associativity + commutativity as an observable
// property, not just an algebra claim).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/hyperloglog.h"
#include "sketch/l0_estimator.h"
#include "test_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

template <typename Sketch>
std::string SaveBytes(const Sketch& s) {
  std::ostringstream os;
  s.Save(os);
  return os.str();
}

// Left-fold of `shards` in the given visiting order; `hashes` are the
// hashes Merge takes from its caller, if any.
template <typename Sketch, typename... Hashes>
Sketch FoldInOrder(const std::vector<Sketch>& shards,
                   const std::vector<size_t>& order, const Hashes&... hashes) {
  Sketch acc = shards[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    acc.Merge(shards[order[i]], hashes...);
  }
  return acc;
}

// Deterministic Fisher-Yates over [0, n) driven by the repo Rng.
std::vector<size_t> RandomOrder(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n - 1; i > 0; --i) {
    size_t j = rng.UniformU64(i + 1);
    std::swap(order[i], order[j]);
  }
  return order;
}

TEST(CountSketchMerge, EqualsConcatenation) {
  CountSketch::Config cfg{.depth = 5, .width = 128, .seed = 3};
  CountSketch a(cfg), b(cfg), whole(cfg);
  for (uint64_t i = 0; i < 2000; ++i) {
    uint64_t id = i % 97;
    if (i < 1000) {
      a.Add(id);
    } else {
      b.Add(id);
    }
    whole.Add(id);
  }
  a.Merge(b);
  for (uint64_t id = 0; id < 97; ++id) {
    EXPECT_DOUBLE_EQ(a.PointQuery(id), whole.PointQuery(id));
  }
  EXPECT_DOUBLE_EQ(a.EstimateF2(), whole.EstimateF2());
  EXPECT_DOUBLE_EQ(a.QuickF2(), whole.QuickF2());
}

TEST(CountSketchMerge, MismatchedGeometryAborts) {
  CountSketch a({.depth = 5, .width = 128, .seed = 3});
  CountSketch b({.depth = 5, .width = 64, .seed = 3});
  CountSketch c({.depth = 5, .width = 128, .seed = 4});
  EXPECT_DEATH(a.Merge(b), "CHECK failed");
  EXPECT_DEATH(a.Merge(c), "CHECK failed");
}

// The sharded fold's safety audit: every mergeable sketch must CHECK both
// seed and shape before folding — a seed-mismatched merge combines hash
// spaces that share no structure and silently corrupts the result.
TEST(L0Merge, MismatchedConfigAborts) {
  L0Estimator a({.num_mins = 64, .seed = 3});
  L0Estimator b({.num_mins = 32, .seed = 3});
  L0Estimator c({.num_mins = 64, .seed = 4});
  EXPECT_DEATH(a.Merge(b), "CHECK failed");
  EXPECT_DEATH(a.Merge(c), "CHECK failed");
}

TEST(HllMerge, MismatchedConfigAborts) {
  HyperLogLog a({.precision = 12, .seed = 3});
  HyperLogLog b({.precision = 10, .seed = 3});
  HyperLogLog c({.precision = 12, .seed = 4});
  EXPECT_DEATH(a.Merge(b), "CHECK failed");
  EXPECT_DEATH(a.Merge(c), "CHECK failed");
}

TEST(AmsF2Merge, MismatchedConfigAborts) {
  AmsF2Sketch a({.rows = 3, .cols = 8, .seed = 5});
  AmsF2Sketch b({.rows = 4, .cols = 8, .seed = 5});
  AmsF2Sketch c({.rows = 3, .cols = 16, .seed = 5});
  AmsF2Sketch d({.rows = 3, .cols = 8, .seed = 6});
  EXPECT_DEATH(a.Merge(b), "CHECK failed");
  EXPECT_DEATH(a.Merge(c), "CHECK failed");
  EXPECT_DEATH(a.Merge(d), "CHECK failed");
}

TEST(AmsF2Merge, EqualsConcatenation) {
  AmsF2Sketch::Config cfg{.rows = 3, .cols = 8, .seed = 5};
  AmsF2Sketch a(cfg), b(cfg), whole(cfg);
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t id = i % 41;
    (i % 2 ? a : b).Add(id);
    whole.Add(id);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(F2HeavyHittersMerge, FindsHeavySplitAcrossShards) {
  // The heavy id's mass is split between shards so that NEITHER shard sees
  // it as heavy locally; the merged sketch must still report it.
  F2HeavyHitters::Config cfg{.phi = 0.05, .seed = 7};
  const CountSketchRows rows = RowsFor(cfg);
  F2HeavyHitters a(cfg), b(cfg);
  for (int i = 0; i < 30; ++i) a.Add(rows, 12345);
  for (int i = 0; i < 30; ++i) b.Add(rows, 12345);
  for (uint64_t i = 0; i < 1500; ++i) (i % 2 ? a : b).Add(rows, i);
  a.Merge(b, rows);
  auto out = a.Extract(rows);
  bool found = std::any_of(out.begin(), out.end(), [](const HeavyHitter& h) {
    return h.id == 12345;
  });
  ASSERT_TRUE(found);
  for (const auto& h : out) {
    if (h.id == 12345) {
      EXPECT_GE(h.estimate, 30.0);
      EXPECT_LE(h.estimate, 90.0);
    }
  }
}

TEST(F2HeavyHittersMerge, CounterStateMatchesWholeStream) {
  F2HeavyHitters::Config cfg{.phi = 0.02, .seed = 9};
  const CountSketchRows rows = RowsFor(cfg);
  F2HeavyHitters a(cfg), b(cfg), whole(cfg);
  for (uint64_t i = 0; i < 4000; ++i) {
    uint64_t id = (i * 31) % 511;
    (i < 2000 ? a : b).Add(rows, id);
    whole.Add(rows, id);
  }
  a.Merge(b, rows);
  EXPECT_DOUBLE_EQ(a.EstimateF2(), whole.EstimateF2());
  // The blob up to the candidate list (its length word and one word per
  // id) is the config and the CountSketch counters: equal bytes.
  auto counters = [](const F2HeavyHitters& hh) {
    const std::string blob = SaveBytes(hh);
    return blob.substr(0, blob.size() - 8 * (hh.ItemCount() + 1));
  };
  EXPECT_EQ(counters(a), counters(whole));
}

TEST(F2ContributingMerge, FindsClassSplitAcrossShards) {
  // A 64-coordinate class, half its mass per shard, each coordinate 32 in
  // the combined stream. That is below the full-rate level's noise floor
  // 3·√(F2/width) ≈ 43, so a seed finds the class only through an
  // overestimate: ~67% of seeds 1000–2999 do. Demand 240 of 400, about
  // three binomial standard deviations below that rate.
  int ok = 0;
  for (uint64_t seed = 11; seed < 411; ++seed) {
    const F2Contributing::Config cfg{.phi = 0.05,
                                     .max_class_size = 256,
                                     .domain_size = 8192,
                                     .seed = seed};
    const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, seed);
    F2Contributing a(cfg), b(cfg);
    std::vector<std::pair<uint64_t, int64_t>> wa, wb;
    for (uint64_t j = 0; j < 64; ++j) {
      wa.emplace_back(5000 + j, 16);
      wb.emplace_back(5000 + j, 16);
    }
    for (uint64_t i = 0; i < 1024; ++i) (i % 2 ? wa : wb).emplace_back(i, 1);
    AddClosedWindow(a, hashes, wa);
    AddClosedWindow(b, hashes, wb);
    a.Merge(b, hashes);
    bool found = false;
    // Frequencies reflect the combined stream. (Dedup keeps the max across
    // levels, so allow extra one-sided noise headroom beyond the per-level
    // (1 ± 1/2) contract.)
    for (const auto& cc : a.Extract(hashes)) {
      if (cc.id >= 5000 && cc.id < 5064) {
        found = true;
        EXPECT_GE(cc.estimate, 16.0) << "seed " << seed;
        EXPECT_LE(cc.estimate, 80.0) << "seed " << seed;
      }
    }
    ok += found;
  }
  EXPECT_GE(ok, 240);
}

TEST(F2ContributingMerge, SharedHashesFindClassSplitAcrossShards) {
  // The split above with a 16-member class, so that at a = 32 it clears
  // the full-rate level's noise floor 3·√(F2/width) ≈ 22 (64 members at
  // a = 32 sit at ≈ 43, where finding one takes an overestimate).
  const F2Contributing::Hashes hashes = F2Contributing::MakeHashes(8, 11);
  const F2Contributing::Config cfg{.phi = 0.05,
                                   .max_class_size = 256,
                                   .domain_size = 8192,
                                   .seed = 11};
  F2Contributing a(cfg), b(cfg);
  std::vector<std::pair<uint64_t, int64_t>> wa, wb;
  for (uint64_t j = 0; j < 16; ++j) {
    wa.emplace_back(5000 + j, 16);
    wb.emplace_back(5000 + j, 16);
  }
  for (uint64_t i = 0; i < 1024; ++i) (i % 2 ? wa : wb).emplace_back(i, 1);
  AddClosedWindow(a, hashes, wa);
  AddClosedWindow(b, hashes, wb);
  a.Merge(b, hashes);
  const auto out = a.Extract(hashes);
  EXPECT_TRUE(
      std::any_of(out.begin(), out.end(), [](const ContributingCoordinate& cc) {
        return cc.id >= 5000 && cc.id < 5016;
      }));
  for (const auto& cc : out) {
    if (cc.id >= 5000 && cc.id < 5016) {
      EXPECT_GE(cc.estimate, 16.0);
      EXPECT_LE(cc.estimate, 80.0);
    }
  }
}

TEST(L0MergeOrder, AnyFoldOrderGivesIdenticalState) {
  // 6 shards, ~3000 distinct ids >> num_mins, so every shard saturates and
  // the merged heap is the 64 globally smallest hashes no matter the fold.
  L0Estimator::Config cfg{.num_mins = 64, .seed = 21};
  std::vector<L0Estimator> shards(6, L0Estimator(cfg));
  for (uint64_t i = 0; i < 3000; ++i) shards[i % 6].Add(SplitMix64(i));
  L0Estimator canonical = FoldInOrder(shards, {0, 1, 2, 3, 4, 5});
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    L0Estimator folded = FoldInOrder(shards, RandomOrder(shards.size(), rng));
    EXPECT_EQ(SaveBytes(folded), SaveBytes(canonical));
    EXPECT_DOUBLE_EQ(folded.Estimate(), canonical.Estimate());
  }
}

TEST(HllMergeOrder, AnyFoldOrderMatchesWholeStreamBytes) {
  // Register-wise max is idempotent/commutative/associative, so the merged
  // registers must be byte-identical to the single-pass sketch as well.
  HyperLogLog::Config cfg{.precision = 10, .seed = 23};
  std::vector<HyperLogLog> shards(5, HyperLogLog(cfg));
  HyperLogLog whole(cfg);
  for (uint64_t i = 0; i < 5000; ++i) {
    shards[i % 5].Add(SplitMix64(i * 3));
    whole.Add(SplitMix64(i * 3));
  }
  std::string whole_bytes = SaveBytes(whole);
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    HyperLogLog folded = FoldInOrder(shards, RandomOrder(shards.size(), rng));
    EXPECT_EQ(SaveBytes(folded), whole_bytes);
  }
}

TEST(AmsMergeOrder, AnyFoldOrderMatchesWholeStreamBytes) {
  AmsF2Sketch::Config cfg{.rows = 5, .cols = 16, .seed = 25};
  std::vector<AmsF2Sketch> shards(4, AmsF2Sketch(cfg));
  AmsF2Sketch whole(cfg);
  for (uint64_t i = 0; i < 4000; ++i) {
    uint64_t id = i % 131;
    shards[i % 4].Add(id);
    whole.Add(id);
  }
  std::string whole_bytes = SaveBytes(whole);
  Rng rng(103);
  for (int trial = 0; trial < 10; ++trial) {
    AmsF2Sketch folded = FoldInOrder(shards, RandomOrder(shards.size(), rng));
    EXPECT_EQ(SaveBytes(folded), whole_bytes);
    EXPECT_DOUBLE_EQ(folded.Estimate(), whole.Estimate());
  }
}

TEST(F2HeavyHittersMergeOrder, ExtractIsFoldOrderInvariant) {
  // Distinct-id count stays below the candidate capacity (cand_factor/phi),
  // so no order-dependent prune fires; the candidate set is then a plain
  // union and Extract re-queries the merged (linear) counters.
  F2HeavyHitters::Config cfg{.phi = 0.05, .seed = 27};
  const CountSketchRows rows = RowsFor(cfg);
  std::vector<F2HeavyHitters> shards(5, F2HeavyHitters(cfg));
  for (uint64_t i = 0; i < 2000; ++i) {
    uint64_t id = i % 50;
    shards[i % 5].Add(rows, id, id == 7 ? 40 : 1);
  }
  auto sorted_extract = [&rows](const F2HeavyHitters& hh) {
    auto out = hh.Extract(rows);
    std::sort(out.begin(), out.end(),
              [](const HeavyHitter& a, const HeavyHitter& b) {
                return a.id < b.id;
              });
    return out;
  };
  F2HeavyHitters canonical = FoldInOrder(shards, {0, 1, 2, 3, 4}, rows);
  auto canonical_out = sorted_extract(canonical);
  ASSERT_FALSE(canonical_out.empty());
  Rng rng(105);
  for (int trial = 0; trial < 10; ++trial) {
    F2HeavyHitters folded =
        FoldInOrder(shards, RandomOrder(shards.size(), rng), rows);
    auto out = sorted_extract(folded);
    ASSERT_EQ(out.size(), canonical_out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].id, canonical_out[i].id);
      EXPECT_DOUBLE_EQ(out[i].estimate, canonical_out[i].estimate);
    }
    EXPECT_DOUBLE_EQ(folded.EstimateF2(), canonical.EstimateF2());
  }
}

TEST(F2ContributingMerge, MismatchedSeedAborts) {
  F2Contributing a({.phi = 0.05, .max_class_size = 64, .domain_size = 1024,
                    .seed = 1});
  F2Contributing b({.phi = 0.05, .max_class_size = 64, .domain_size = 1024,
                    .seed = 2});
  EXPECT_DEATH(a.Merge(b, F2Contributing::MakeHashes(8, 1)), "CHECK failed");
}

}  // namespace
}  // namespace streamkc
