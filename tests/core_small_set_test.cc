#include "core/small_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "hash/mersenne.h"
#include "util/math_util.h"
#include "test_util.h"

namespace streamkc {
namespace {

SmallSet MakeSmallSet(const SetSystem& sys, uint64_t k, double alpha,
                      uint64_t seed, bool reporting = false) {
  SmallSet::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.universe_size = sys.num_elements();
  c.reporting = reporting;
  c.seed = seed;
  return SmallSet(c);
}

TEST(SmallSet, FeasibleOnSmallSetFamily) {
  // Case III: OPT = many small disjoint sets. SmallSet must return
  // Ω̃(OPT/α) without overestimating (Theorem 4.22).
  auto inst = SmallSetFamily(1024, 4096, 64, 3);
  const double alpha = 8;
  uint64_t opt = inst.planted_coverage;  // 2048
  int feasible = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SmallSet ss = MakeSmallSet(inst.system, 64, alpha, 500 + seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, ss);
    EstimateOutcome out = ss.Finalize();
    if (!out.feasible) continue;
    ++feasible;
    EXPECT_GE(out.estimate, static_cast<double>(opt) / (2.0 * alpha));
    EXPECT_LE(out.estimate, static_cast<double>(opt) * 1.2);
  }
  EXPECT_GE(feasible, 4);
}

TEST(SmallSet, AcceptanceCutBlocksNoiseScaleUps) {
  // On an instance with almost no coverage (tiny sets in a tiny window),
  // scaled-up estimates would be wild overestimates; the sol_γ = Ω(k′) cut
  // must keep the estimate below a small multiple of the true optimum.
  std::vector<std::vector<ElementId>> sets(512);
  for (size_t i = 0; i < sets.size(); ++i) sets[i] = {static_cast<ElementId>(i % 16)};
  SetSystem sys(1 << 14, std::move(sets));
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SmallSet ss = MakeSmallSet(sys, 32, 8, 700 + seed);
    FeedSystem(sys, ArrivalOrder::kRandom, seed, ss);
    EstimateOutcome out = ss.Finalize();
    if (out.feasible) {
      // OPT = 16; allow sampling noise but nothing like |U|-scale outputs.
      EXPECT_LE(out.estimate, 16.0 * 40.0) << "seed " << seed;
    }
  }
}

TEST(SmallSet, DenseInstancesRescaleInsteadOfDying) {
  // Dense instance: high-γ (rate-1) guesses cannot store their sample; they
  // must halve their element rate (possibly repeatedly) and stay under
  // budget, remaining usable rather than dying.
  auto inst = RandomUniform(4096, 1024, 64, 5);
  SmallSet ss = MakeSmallSet(inst.system, 256, 4, 11);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 2, ss);
  EXPECT_GT(ss.num_rescaled(), 0u);
  // The overall memory is still bounded by budget × instances.
  Params p = Params::Practical(4096, 1024, 256, 4);
  EXPECT_LE(ss.MemoryBytes(),
            (p.SmallSetBudgetBytes() + (64u << 10)) * ss.num_instances());
  // And the subroutine still produces a sound estimate on this very dense
  // instance (greedy covers nearly everything).
  EstimateOutcome out = ss.Finalize();
  ASSERT_TRUE(out.feasible);
  EXPECT_LE(out.estimate, OptUpperBound(inst.system, 256) * 1.25);
  EXPECT_GE(out.estimate, static_cast<double>(
                              GreedyCoverage(inst.system, 256)) /
                              (4.0 * 4.0));
}

TEST(SmallSet, NeverOverestimatesByMuch) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    auto inst = RandomUniform(512, 2048, 8, 800 + seed);
    SmallSet ss = MakeSmallSet(inst.system, 32, 8, seed);
    FeedSystem(inst.system, ArrivalOrder::kRandom, seed, ss);
    EstimateOutcome out = ss.Finalize();
    if (out.feasible) {
      EXPECT_LE(out.estimate, OptUpperBound(inst.system, 32) * 1.25)
          << "seed " << seed;
    }
  }
}

TEST(SmallSet, ReportingReturnsRealSetIds) {
  auto inst = SmallSetFamily(1024, 4096, 64, 7);
  SmallSet ss = MakeSmallSet(inst.system, 64, 8, 21, /*reporting=*/true);
  FeedSystem(inst.system, ArrivalOrder::kRandom, 4, ss);
  EstimateOutcome out = ss.Finalize();
  ASSERT_TRUE(out.feasible);
  std::vector<SetId> sets = ss.ExtractSolution(64);
  ASSERT_FALSE(sets.empty());
  EXPECT_LE(sets.size(), 64u);
  for (SetId s : sets) EXPECT_LT(s, 1024u);
  // Greedy on the sample favors the planted slices: the returned sets'
  // true coverage must be a constant fraction of the claimed estimate.
  uint64_t cov = inst.system.CoverageOf(sets);
  EXPECT_GE(static_cast<double>(cov), out.estimate / 4.0);
}

TEST(SmallSet, GuessGridScalesWithAlpha) {
  auto inst = RandomUniform(256, 512, 4, 9);
  SmallSet coarse = MakeSmallSet(inst.system, 16, 2, 1);
  SmallSet fine = MakeSmallSet(inst.system, 16, 16, 1);
  EXPECT_GE(fine.num_instances(), coarse.num_instances());
}

TEST(SmallSet, OrderInvariantModuloDuplicates) {
  // Stored sub-instances collect (set, element) pairs; coverage after dedup
  // is order-independent, so estimates match across orders.
  auto inst = SmallSetFamily(512, 2048, 32, 11);
  auto run = [&](ArrivalOrder order) {
    SmallSet ss = MakeSmallSet(inst.system, 32, 8, 33);
    FeedSystem(inst.system, order, 5, ss);
    return ss.Finalize().estimate;
  };
  EXPECT_DOUBLE_EQ(run(ArrivalOrder::kRandom),
                   run(ArrivalOrder::kElementContiguous));
}

// The map-of-lists SmallSet that the flat edge log replaced, kept as the
// reference model: the same samplers (same seeds, same fork order), each
// surviving set's elements in an unordered_map, and evaluation by sorting
// the set ids, sorting and deduplicating each list, and running plain
// greedy. SmallSet must match it on every stream.
class ReferenceSmallSet {
 public:
  explicit ReferenceSmallSet(const SmallSet::Config& config)
      : config_(config) {
    const Params& p = config.params;
    Rng rng(config.seed);
    double kp = (p.mode == Params::Mode::kTheory)
                    ? 36.0 * static_cast<double>(p.k) / (p.s * p.alpha)
                    : p.kprime_factor * static_cast<double>(p.k) / p.alpha;
    k_prime_ = std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(kp)));
    k_prime_ = std::min<uint64_t>(k_prime_, p.k);
    budget_bytes_ = p.SmallSetBudgetBytes();
    double set_rate = (p.mode == Params::Mode::kTheory)
                          ? 18.0 / (p.s * p.alpha)
                          : p.set_sample_factor / p.alpha;
    set_rate = std::min(set_rate, 1.0);
    double u = static_cast<double>(config.universe_size);
    double log_n = Log2AtLeast1(u);
    uint32_t num_guesses =
        CeilLog2(static_cast<uint64_t>(std::max(2.0, 2.0 * p.alpha * p.eta))) +
        1;
    uint32_t step = std::max<uint32_t>(1, p.small_set_level_log_step);
    for (uint32_t g = 0; g < num_guesses; g += step) {
      double gamma = static_cast<double>(1ULL << g);
      double target_l = p.element_sample_factor * gamma *
                        static_cast<double>(k_prime_) * log_n;
      double element_rate = std::min(1.0, target_l / u);
      for (uint32_t rep = 0; rep < p.small_set_reps; ++rep) {
        KWiseHash set_sampler(p.log_wise_degree, rng.Fork());
        KWiseHash element_sampler(p.log_wise_degree, rng.Fork());
        instances_.push_back(Instance{
            std::move(set_sampler),
            std::max<uint64_t>(1, static_cast<uint64_t>(
                                      set_rate * static_cast<double>(kDen))),
            std::move(element_sampler),
            std::max<uint64_t>(1, static_cast<uint64_t>(
                                      element_rate * static_cast<double>(kDen))),
            0,
            {},
            0});
      }
    }
  }

  void Process(const Edge& edge) {
    for (Instance& inst : instances_) {
      if (inst.rescales >= kMaxRescales) continue;
      if (inst.set_sampler.MapRange(edge.set, kDen) >= inst.set_rate_num) {
        continue;
      }
      if (!inst.Sampled(edge.element)) continue;
      inst.edges[edge.set].push_back(edge.element);
      inst.entries += 1;
      Cascade(inst);
    }
  }

  void Merge(const ReferenceSmallSet& other) {
    for (size_t i = 0; i < instances_.size(); ++i) {
      Instance& mine = instances_[i];
      const Instance& theirs = other.instances_[i];
      if (mine.rescales >= kMaxRescales || theirs.rescales >= kMaxRescales) {
        mine.rescales = kMaxRescales;
        mine.edges.clear();
        mine.entries = 0;
        continue;
      }
      while (mine.element_rate_num > theirs.element_rate_num &&
             mine.rescales < kMaxRescales) {
        Rescale(mine);
      }
      for (const auto& [set, elements] : theirs.edges) {
        for (ElementId e : elements) {
          if (!mine.Sampled(e)) continue;
          mine.edges[set].push_back(e);
          mine.entries += 1;
        }
      }
      Cascade(mine);
      if (mine.rescales >= kMaxRescales && Bytes(mine) > budget_bytes_) {
        mine.edges.clear();
        mine.entries = 0;
      }
    }
  }

  // The best feasible instance's estimate and greedy picks, if any.
  std::optional<std::pair<double, std::vector<SetId>>> Best() const {
    std::optional<std::pair<double, std::vector<SetId>>> best;
    for (const Instance& inst : instances_) {
      if (inst.rescales >= kMaxRescales || inst.edges.empty()) continue;
      std::vector<SetId> ids;
      for (const auto& [set, elements] : inst.edges) ids.push_back(set);
      std::sort(ids.begin(), ids.end());
      std::vector<std::vector<ElementId>> lists;
      for (SetId set : ids) {
        std::vector<ElementId> list = inst.edges.at(set);
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
        lists.push_back(std::move(list));
      }
      // Plain greedy: the first position with the strictly largest gain.
      std::unordered_set<ElementId> covered;
      std::vector<SetId> picks;
      uint64_t coverage = 0;
      for (uint64_t round = 0; round < std::min<uint64_t>(k_prime_, ids.size());
           ++round) {
        uint64_t best_gain = 0;
        size_t best_pos = lists.size();
        for (size_t i = 0; i < lists.size(); ++i) {
          uint64_t gain = 0;
          for (ElementId e : lists[i]) gain += covered.count(e) == 0;
          if (gain > best_gain) {
            best_gain = gain;
            best_pos = i;
          }
        }
        if (best_pos == lists.size()) break;
        covered.insert(lists[best_pos].begin(), lists[best_pos].end());
        coverage += best_gain;
        picks.push_back(ids[best_pos]);
      }
      double accept = std::max(
          8.0, config_.params.accept_factor * static_cast<double>(k_prime_));
      double cov = static_cast<double>(coverage);
      if (cov < accept) continue;
      double rate = static_cast<double>(inst.element_rate_num) /
                    static_cast<double>(kDen);
      double estimate = std::min(std::max(0.0, cov - std::sqrt(cov)) / rate,
                                 static_cast<double>(config_.universe_size));
      if (!best || estimate > best->first) best = {{estimate, picks}};
    }
    return best;
  }

  uint64_t ItemCount() const {
    uint64_t items = 0;
    for (const Instance& inst : instances_) items += inst.entries;
    return items;
  }

  uint32_t num_rescaled() const {
    uint32_t n = 0;
    for (const Instance& inst : instances_) n += inst.rescales;
    return n;
  }

  // Instances whose rate was halved kMaxRescales times, which stop storing.
  uint32_t num_dead() const {
    uint32_t n = 0;
    for (const Instance& inst : instances_) n += inst.rescales >= kMaxRescales;
    return n;
  }

  size_t num_instances() const { return instances_.size(); }

  // A set id below `m` that passes instance i's set gate.
  SetId GatedSet(size_t i, uint64_t m) const {
    const Instance& inst = instances_[i];
    for (SetId s = 0; s < m; ++s) {
      if (inst.set_sampler.MapRange(s, kDen) < inst.set_rate_num) return s;
    }
    ADD_FAILURE() << "no set passes instance " << i << "'s gate";
    return 0;
  }

  // An element whose key under instance i's element sampler is 0, so it
  // survives every rescale. The sampler must be linear (degree 2), h(x) =
  // c0 + c1·x over GF(p): then x = -c0 / c1 solves h(x) = 0.
  ElementId ImmortalElement(size_t i) const {
    const KWiseHash& h = instances_[i].element_sampler;
    EXPECT_EQ(h.degree(), 2u);
    const uint64_t c0 = h.Map(0);
    const uint64_t c1 = MersenneAdd(h.Map(1), kMersennePrime61 - c0);
    // c1^(p-2) = 1/c1 (Fermat).
    uint64_t inverse = 1;
    uint64_t base = c1;
    for (uint64_t e = kMersennePrime61 - 2; e > 0; e >>= 1) {
      if (e & 1) inverse = MersenneMul(inverse, base);
      base = MersenneMul(base, base);
    }
    const ElementId x =
        MersenneMul((kMersennePrime61 - c0) % kMersennePrime61, inverse);
    EXPECT_EQ(h.MapRange(x, kDen), 0u);
    return x;
  }

 private:
  static constexpr uint64_t kDen = 1ULL << 40;
  static constexpr uint32_t kMaxRescales = 38;

  struct Instance {
    KWiseHash set_sampler;
    uint64_t set_rate_num;
    KWiseHash element_sampler;
    uint64_t element_rate_num;
    uint32_t rescales;
    std::unordered_map<SetId, std::vector<ElementId>> edges;
    size_t entries;
    bool Sampled(ElementId e) const {
      return element_sampler.MapRange(e, kDen) < element_rate_num;
    }
  };

  static size_t Bytes(const Instance& inst) {
    return inst.entries * (sizeof(ElementId) + sizeof(SetId) / 4);
  }

  void Rescale(Instance& inst) {
    ++inst.rescales;
    inst.element_rate_num = std::max<uint64_t>(1, inst.element_rate_num / 2);
    inst.entries = 0;
    for (auto it = inst.edges.begin(); it != inst.edges.end();) {
      auto& list = it->second;
      std::erase_if(list, [&](ElementId e) { return !inst.Sampled(e); });
      inst.entries += list.size();
      it = list.empty() ? inst.edges.erase(it) : std::next(it);
    }
  }

  void Cascade(Instance& inst) {
    while (Bytes(inst) > budget_bytes_ && inst.rescales < kMaxRescales) {
      Rescale(inst);
    }
  }

  SmallSet::Config config_;
  uint64_t k_prime_ = 1;
  size_t budget_bytes_ = 0;
  std::vector<Instance> instances_;
};

SmallSet::Config DiffConfig(const SetSystem& sys, uint64_t k, double alpha,
                            size_t budget_bytes, uint64_t seed,
                            uint32_t log_wise_degree = 0) {
  SmallSet::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.params.small_set_budget_bytes = budget_bytes;
  if (log_wise_degree != 0) c.params.log_wise_degree = log_wise_degree;
  c.universe_size = sys.num_elements();
  c.reporting = true;
  c.seed = seed;
  return c;
}

// The stream with a third of its incidences repeated later on.
std::vector<Edge> WithRepeats(const SetSystem& sys, ArrivalOrder order,
                              uint64_t seed) {
  std::vector<Edge> edges = sys.MaterializeEdges();
  ApplyArrivalOrder(edges, order, seed);
  const size_t n = edges.size();
  for (size_t i = 0; i < n; i += 3) edges.push_back(edges[(i * 7) % n]);
  return edges;
}

void ExpectMatchesReference(const SmallSet& ss, const ReferenceSmallSet& ref,
                            uint64_t k, const std::string& label) {
  EXPECT_EQ(ss.ItemCount(), ref.ItemCount()) << label;
  EXPECT_EQ(ss.num_rescaled(), ref.num_rescaled()) << label;
  auto want = ref.Best();
  EstimateOutcome out = ss.Finalize();
  ASSERT_EQ(out.feasible, want.has_value()) << label;
  std::vector<SetId> picks = ss.ExtractSolution(k);
  if (!want) {
    EXPECT_TRUE(picks.empty()) << label;
    return;
  }
  EXPECT_EQ(out.estimate, want->first) << label;
  EXPECT_EQ(picks, want->second) << label;
  std::vector<SetId> kept;
  EXPECT_EQ(ss.Finalize(&kept).estimate, want->first) << label;
  EXPECT_EQ(kept, want->second) << label;
}

struct DiffCase {
  const char* name;
  size_t budget_bytes;  // 0 = derived; small values force rescales
  uint32_t parts;       // 1 = single pass, else an N-way merge
  // Plant, mid-tile, more copies of an immortal incidence (see
  // ImmortalElement) than the budget holds, so some instances rescale
  // kMaxRescales times and die with copies of it still to come in the same
  // tile. Needs linear samplers to plant.
  bool dying = false;
};

void PrintTo(const DiffCase& tc, std::ostream* os) { *os << tc.name; }

// Inserts at `at`, for the first and the last instance, 32 more copies of
// an immortal incidence than `budget_bytes` holds: the first copy past the
// budget kills the instance, and a dead instance must skip the other 31
// even though they pass its element test.
void PlantImmortals(const ReferenceSmallSet& ref, uint64_t num_sets,
                    size_t budget_bytes, size_t at, std::vector<Edge>* edges) {
  const size_t copies =
      budget_bytes / (sizeof(ElementId) + sizeof(SetId) / 4) + 32;
  std::vector<Edge> planted;
  for (size_t i : {size_t{0}, ref.num_instances() - 1}) {
    const Edge immortal{ref.GatedSet(i, num_sets), ref.ImmortalElement(i)};
    planted.insert(planted.end(), copies, immortal);
  }
  edges->insert(edges->begin() + static_cast<std::ptrdiff_t>(at),
                planted.begin(), planted.end());
}

// Folds parts[1..] into parts[0] in order, the way the pipeline merges.
template <typename Part>
void MergeInto(std::vector<Part>& parts) {
  for (size_t p = 1; p < parts.size(); ++p) parts[0].Merge(parts[p]);
}

class SmallSetReference : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SmallSetReference, MatchesMapOfListsEvaluation) {
  const DiffCase& tc = GetParam();
  const uint64_t k = 32;
  auto inst = SmallSetFamily(512, 2048, k, 41);
  bool any_feasible = false;
  for (ArrivalOrder order :
       {ArrivalOrder::kRandom, ArrivalOrder::kElementContiguous}) {
    std::vector<Edge> edges = WithRepeats(inst.system, order, 9);
    const SmallSet::Config config = DiffConfig(
        inst.system, k, 8, tc.budget_bytes, 77, tc.dying ? 2 : 0);
    if (tc.dying) {
      // The first instance dies at stream position 1100 + 200, 20 edges
      // into a 128-edge tile of FeedStream's first block.
      PlantImmortals(ReferenceSmallSet(config), inst.system.num_sets(),
                     tc.budget_bytes, 1100, &edges);
    }
    // Part p takes the incidences whose element hashes to p, the way the
    // sharded pipeline partitions by element. Each part is fed three ways:
    // batched (FeedStream), per edge (Process), and into the re-hashing
    // reference.
    std::vector<SmallSet> batched;
    std::vector<SmallSet> per_edge;
    std::vector<ReferenceSmallSet> ref_parts;
    std::vector<std::vector<Edge>> routed(tc.parts);
    for (const Edge& e : edges) {
      routed[SplitMix64(e.element) % tc.parts].push_back(e);
    }
    for (uint32_t p = 0; p < tc.parts; ++p) {
      batched.emplace_back(config);
      per_edge.emplace_back(config);
      ref_parts.emplace_back(config);
      VectorEdgeStream stream(routed[p]);
      FeedStream(stream, batched[p]);
      for (const Edge& e : routed[p]) {
        per_edge[p].Process(e);
        ref_parts[p].Process(e);
      }
    }
    MergeInto(batched);
    MergeInto(per_edge);
    MergeInto(ref_parts);
    const std::string label =
        std::string(tc.name) + " order=" + ArrivalOrderName(order);
    ExpectMatchesReference(batched[0], ref_parts[0], k, label + " batched");
    ExpectMatchesReference(per_edge[0], ref_parts[0], k, label + " per-edge");
    if (tc.budget_bytes != 0) {
      EXPECT_GT(batched[0].num_rescaled(), 0u) << label;
    }
    if (tc.dying) {
      EXPECT_GT(ref_parts[0].num_dead(), 0u) << label;
    }
    any_feasible = any_feasible || batched[0].Finalize().feasible;
  }
  EXPECT_TRUE(any_feasible) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SmallSetReference,
    ::testing::Values(DiffCase{"repeats", 0, 1},
                      DiffCase{"rescaled", 2000, 1},
                      DiffCase{"merged2", 0, 2},
                      DiffCase{"merged3_rescaled", 2000, 3},
                      DiffCase{"merged4", 0, 4},
                      DiffCase{"dying", 2000, 1, true},
                      DiffCase{"merged3_dying", 2000, 3, true}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.name;
    });

TEST(SmallSet, EqualCoverageTiesGoToTheSmallerSetId) {
  // Everything is sampled (set and element rates both 1) and k′ = 1, so the
  // sample is the whole stream and greedy must choose between set 9 and
  // set 4, which cover ten elements each.
  SmallSet::Config c;
  c.params = Params::Practical(16, 64, 1, 2);
  c.params.set_sample_factor = 2 * c.params.alpha;
  c.params.element_sample_factor = 1000;
  c.universe_size = 64;
  c.reporting = true;
  c.seed = 5;
  std::vector<Edge> nine_first;
  for (ElementId e = 0; e < 10; ++e) nine_first.push_back(Edge{9, e});
  for (ElementId e = 10; e < 20; ++e) nine_first.push_back(Edge{4, e});
  std::vector<Edge> four_first(nine_first.rbegin(), nine_first.rend());
  for (const auto& edges : {nine_first, four_first}) {
    SmallSet ss(c);
    VectorEdgeStream stream(edges);
    FeedStream(stream, ss);
    ASSERT_TRUE(ss.Finalize().feasible);
    EXPECT_EQ(ss.ExtractSolution(1), (std::vector<SetId>{4}));
  }
}

// Guess z of EstimateMaxCover runs its oracle on the reduced universe [z]
// and may only ever report z: the guess-retirement rule relies on it. Fed
// many small sets of elements far outside [0, 8), the sampled greedy's
// scaled coverage must still be clamped to the universe.
TEST(SmallSet, NeverReportsMoreThanTheUniverse) {
  SmallSet::Config c;
  c.params = Params::Practical(512, 1 << 20, 16, 8);
  c.universe_size = 8;
  c.seed = 3;
  SmallSet ss(c);
  for (const Edge& e : SyntheticEdges(8192, 5, 512, 1 << 20)) ss.Process(e);
  const EstimateOutcome out = ss.Finalize();
  ASSERT_TRUE(out.feasible);
  EXPECT_LE(out.estimate, 8.0);
}

}  // namespace
}  // namespace streamkc
