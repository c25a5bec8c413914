#include "offline/greedy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "offline/exact.h"
#include "setsys/generators.h"

namespace streamkc {
namespace {

TEST(Greedy, PicksLargestFirst) {
  SetSystem sys(10, {{0, 1}, {2, 3, 4, 5}, {6}});
  CoverSolution sol = GreedyMaxCover(sys, 1);
  ASSERT_EQ(sol.sets.size(), 1u);
  EXPECT_EQ(sol.sets[0], 1u);
  EXPECT_EQ(sol.coverage, 4u);
}

TEST(Greedy, MarginalGainNotSize) {
  // Set 1 is big but redundant after set 0; greedy must take set 2 second.
  SetSystem sys(10, {{0, 1, 2, 3, 4}, {0, 1, 2, 3}, {5, 6}});
  CoverSolution sol = GreedyMaxCover(sys, 2);
  ASSERT_EQ(sol.sets.size(), 2u);
  EXPECT_EQ(sol.sets[0], 0u);
  EXPECT_EQ(sol.sets[1], 2u);
  EXPECT_EQ(sol.coverage, 7u);
}

TEST(Greedy, StopsWhenNothingGained) {
  SetSystem sys(4, {{0, 1}, {0, 1}, {0}});
  CoverSolution sol = GreedyMaxCover(sys, 3);
  EXPECT_EQ(sol.sets.size(), 1u);
  EXPECT_EQ(sol.coverage, 2u);
}

TEST(Greedy, KLargerThanM) {
  SetSystem sys(4, {{0}, {1}});
  CoverSolution sol = GreedyMaxCover(sys, 10);
  EXPECT_EQ(sol.sets.size(), 2u);
  EXPECT_EQ(sol.coverage, 2u);
}

TEST(Greedy, EmptySystem) {
  SetSystem sys(4, {});
  CoverSolution sol = GreedyMaxCover(sys, 3);
  EXPECT_TRUE(sol.sets.empty());
  EXPECT_EQ(sol.coverage, 0u);
}

TEST(Greedy, CoverageMatchesSetSystemEvaluation) {
  auto inst = RandomUniform(40, 200, 12, 5);
  CoverSolution sol = GreedyMaxCover(inst.system, 8);
  EXPECT_EQ(sol.coverage, inst.system.CoverageOf(sol.sets));
}

// Property: greedy ≥ (1 - 1/e)·OPT on random instances small enough for the
// exact solver (Nemhauser-Wolsey-Fisher bound).
class GreedyVsExact : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsExact, ApproximationGuarantee) {
  int seed = GetParam();
  auto inst = RandomUniform(12, 60, 8, seed);
  const uint64_t k = 4;
  CoverSolution greedy = GreedyMaxCover(inst.system, k);
  CoverSolution exact = ExactMaxCover(inst.system, k);
  EXPECT_LE(greedy.coverage, exact.coverage);
  double bound = (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(exact.coverage);
  EXPECT_GE(static_cast<double>(greedy.coverage), std::floor(bound));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsExact, ::testing::Range(1, 13));

// Property: lazy greedy achieves the same coverage as plain greedy (tie
// breaking may differ, but coverage per round is identical for submodular
// objectives with consistent tie order; we assert equal coverage).
class LazyEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LazyEquivalence, SameCoverageAsPlainGreedy) {
  int seed = GetParam();
  auto inst = RandomUniform(60, 300, 10, 100 + seed);
  for (uint64_t k : {1u, 5u, 20u}) {
    CoverSolution plain = GreedyMaxCover(inst.system, k);
    CoverSolution lazy = LazyGreedyMaxCover(inst.system, k);
    EXPECT_EQ(plain.coverage, lazy.coverage) << "k=" << k;
    EXPECT_EQ(lazy.coverage, inst.system.CoverageOf(lazy.sets));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence, ::testing::Range(1, 9));

// GreedyOnLists' flat input: the set named ids[i] holds
// elements[offsets[i], offsets[i+1]).
struct FlatLists {
  std::vector<size_t> offsets{0};
  std::vector<SetId> ids;
  std::vector<ElementId> elements;
};

// Flattens `lists`, naming list i by `ids[i]` (by i when ids is empty).
FlatLists Flatten(const std::vector<std::vector<ElementId>>& lists,
                  std::vector<SetId> ids = {}) {
  FlatLists flat;
  for (size_t i = 0; i < lists.size(); ++i) {
    flat.ids.push_back(ids.empty() ? i : ids[i]);
    flat.elements.insert(flat.elements.end(), lists[i].begin(),
                         lists[i].end());
    flat.offsets.push_back(flat.elements.size());
  }
  return flat;
}

CoverSolution GreedyOnNested(const std::vector<std::vector<ElementId>>& lists,
                             uint64_t k, std::vector<SetId> ids = {}) {
  FlatLists flat = Flatten(lists, std::move(ids));
  return GreedyOnLists(flat.offsets, flat.ids, flat.elements, k);
}

TEST(GreedyOnLists, MatchesSetSystemGreedy) {
  auto inst = RandomUniform(30, 100, 6, 9);
  CoverSolution a = GreedyMaxCover(inst.system, 5);
  CoverSolution b = GreedyOnNested(inst.system.sets(), 5);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.sets, b.sets);
}

TEST(GreedyOnLists, HandlesRaggedIds) {
  CoverSolution sol = GreedyOnNested({{100, 200}, {200, 300, 400}, {}}, 2);
  EXPECT_EQ(sol.coverage, 4u);
}

TEST(GreedyOnLists, HugeElementIdsNeedNoIdSizedBitmap) {
  // Regression: the covered marks were once a bitmap sized by the largest
  // element id, so ids near 2^40 asked for a terabit and aborted.
  const ElementId big = ElementId{1} << 40;
  CoverSolution sol = GreedyOnNested({{big + 1, big + 2}, {5}}, 2);
  EXPECT_EQ(sol.coverage, 3u);
  EXPECT_EQ(sol.sets, (std::vector<SetId>{0, 1}));
}

TEST(GreedyOnLists, RepeatsInsideASetCountOnce) {
  CoverSolution sol = GreedyOnNested({{1, 1, 1, 2}, {3, 4, 5}}, 1);
  EXPECT_EQ(sol.coverage, 3u);
  EXPECT_EQ(sol.sets, (std::vector<SetId>{1}));
}

TEST(GreedyOnLists, TiesGoToTheSmallestIdInAnyOrder) {
  CoverSolution sol = GreedyOnNested({{1, 2}, {7, 8, 9}, {4, 5, 6}}, 2);
  EXPECT_EQ(sol.sets, (std::vector<SetId>{1, 2}));
  EXPECT_EQ(sol.coverage, 6u);
  // The same sets named so that the later list has the smaller id.
  sol = GreedyOnNested({{1, 2}, {7, 8, 9}, {4, 5, 6}}, 2, {30, 20, 10});
  EXPECT_EQ(sol.sets, (std::vector<SetId>{10, 20}));
}

TEST(Greedy, MonotoneInK) {
  auto inst = RandomUniform(50, 250, 10, 21);
  uint64_t prev = 0;
  for (uint64_t k = 1; k <= 20; k += 3) {
    CoverSolution sol = GreedyMaxCover(inst.system, k);
    EXPECT_GE(sol.coverage, prev);
    prev = sol.coverage;
  }
}

}  // namespace
}  // namespace streamkc
