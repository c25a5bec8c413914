#include "offline/greedy.h"

#include <algorithm>
#include <queue>

#include "util/check.h"
#include "util/dense_index.h"

namespace streamkc {

namespace {

// Marginal gain of `set` against the covered bitmap.
uint64_t MarginalGain(const std::vector<ElementId>& set,
                      const std::vector<bool>& covered) {
  uint64_t gain = 0;
  for (ElementId e : set) {
    if (!covered[e]) ++gain;
  }
  return gain;
}

void Commit(const std::vector<ElementId>& set, std::vector<bool>& covered) {
  for (ElementId e : set) covered[e] = true;
}

CoverSolution GreedyCore(const std::vector<std::vector<ElementId>>& sets,
                         uint64_t num_elements, uint64_t k) {
  std::vector<bool> covered(num_elements, false);
  CoverSolution sol;
  uint64_t rounds = std::min<uint64_t>(k, sets.size());
  for (uint64_t round = 0; round < rounds; ++round) {
    uint64_t best_gain = 0;
    size_t best_idx = sets.size();
    for (size_t i = 0; i < sets.size(); ++i) {
      uint64_t gain = MarginalGain(sets[i], covered);
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
      }
    }
    if (best_idx == sets.size()) break;  // nothing adds coverage
    sol.sets.push_back(best_idx);
    sol.coverage += best_gain;
    Commit(sets[best_idx], covered);
  }
  return sol;
}

}  // namespace

CoverSolution GreedyMaxCover(const SetSystem& sys, uint64_t k) {
  return GreedyCore(sys.sets(), sys.num_elements(), k);
}

CoverSolution GreedyOnLists(std::span<const size_t> offsets,
                            std::span<const SetId> ids,
                            std::span<const ElementId> elements, uint64_t k) {
  CHECK_EQ(offsets.size(), ids.size() + 1);
  CHECK_EQ(offsets.back(), elements.size());
  const size_t num_sets = ids.size();
  // Compact the element ids to [0, distinct) and drop repeats inside a set,
  // so the covered marks are sized by the sample, not by the id range.
  DenseIndex index(elements.size());
  std::vector<uint32_t> dense;
  dense.reserve(elements.size());
  std::vector<size_t> begin(num_sets + 1);
  std::vector<size_t> last_set;  // per compact id: the last set listing it
  last_set.reserve(elements.size());
  for (size_t i = 0; i < num_sets; ++i) {
    begin[i] = dense.size();
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      uint32_t d = index.Insert(elements[j]);
      if (d == last_set.size()) {
        last_set.push_back(i);
      } else if (last_set[d] == i) {
        continue;
      } else {
        last_set[d] = i;
      }
      dense.push_back(d);
    }
  }
  begin[num_sets] = dense.size();

  std::vector<uint8_t> covered(index.size(), 0);
  CoverSolution sol;
  uint64_t rounds = std::min<uint64_t>(k, num_sets);
  for (uint64_t round = 0; round < rounds; ++round) {
    uint64_t best_gain = 0;
    size_t best = num_sets;
    auto beats_best = [&](uint64_t gain, size_t i) {
      return gain > best_gain ||
             (gain == best_gain && gain > 0 && ids[i] < ids[best]);
    };
    for (size_t i = 0; i < num_sets; ++i) {
      // A set's gain is at most its size: skip sets that cannot win.
      if (!beats_best(begin[i + 1] - begin[i], i)) continue;
      uint64_t gain = 0;
      for (size_t j = begin[i]; j < begin[i + 1]; ++j) gain += !covered[dense[j]];
      if (beats_best(gain, i)) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == num_sets) break;  // nothing adds coverage
    sol.sets.push_back(ids[best]);
    sol.coverage += best_gain;
    for (size_t j = begin[best]; j < begin[best + 1]; ++j) {
      covered[dense[j]] = 1;
    }
  }
  return sol;
}

CoverSolution LazyGreedyMaxCover(const SetSystem& sys, uint64_t k) {
  const auto& sets = sys.sets();
  std::vector<bool> covered(sys.num_elements(), false);
  // Max-heap of (stale upper bound on gain, set id). Submodularity makes
  // stale bounds valid upper bounds, so re-evaluating only the top is sound.
  // Ties prefer the smaller id, which makes lazy greedy pick exactly the
  // same sets as plain greedy (which scans ids in order).
  auto worse = [](const std::pair<uint64_t, SetId>& a,
                  const std::pair<uint64_t, SetId>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<std::pair<uint64_t, SetId>,
                      std::vector<std::pair<uint64_t, SetId>>, decltype(worse)>
      heap(worse);
  for (SetId i = 0; i < sets.size(); ++i) {
    heap.emplace(sets[i].size(), i);
  }
  std::vector<bool> chosen(sets.size(), false);
  CoverSolution sol;
  uint64_t rounds = std::min<uint64_t>(k, sets.size());
  while (sol.sets.size() < rounds && !heap.empty()) {
    auto [stale_gain, id] = heap.top();
    heap.pop();
    if (chosen[id]) continue;
    uint64_t gain = MarginalGain(sets[id], covered);
    if (gain == stale_gain) {
      if (gain == 0) break;
      chosen[id] = true;
      sol.sets.push_back(id);
      sol.coverage += gain;
      Commit(sets[id], covered);
    } else {
      heap.emplace(gain, id);  // reinsert with refreshed bound
    }
  }
  return sol;
}

}  // namespace streamkc
