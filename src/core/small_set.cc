#include "core/small_set.h"

#include <algorithm>
#include <cmath>

#include "core/set_index.h"
#include "offline/greedy.h"
#include "util/check.h"
#include "util/dense_index.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"

namespace streamkc {

SmallSet::SmallSet(const Config& config) : config_(config) {
  const Params& p = config.params;
  CHECK_GT(config.universe_size, 0u);
  Rng rng(config.seed);

  // k′ = Θ(k/α) sets are sought in the subsampled instance (paper: 36k/(sα),
  // with the s factor folded into kprime_factor in practical mode).
  double kp = (p.mode == Params::Mode::kTheory)
                  ? 36.0 * static_cast<double>(p.k) / (p.s * p.alpha)
                  : p.kprime_factor * static_cast<double>(p.k) / p.alpha;
  k_prime_ = std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(kp)));
  k_prime_ = std::min<uint64_t>(k_prime_, p.k);
  budget_bytes_ = p.SmallSetBudgetBytes();

  // Set-sampling rate for M (paper: 18/(sα)).
  double set_rate = (p.mode == Params::Mode::kTheory)
                        ? 18.0 / (p.s * p.alpha)
                        : p.set_sample_factor / p.alpha;
  set_rate = std::min(set_rate, 1.0);

  double u = static_cast<double>(config.universe_size);
  double log_n = Log2AtLeast1(u);
  uint32_t num_guesses =
      CeilLog2(static_cast<uint64_t>(std::max(2.0, 2.0 * p.alpha * p.eta))) + 1;
  uint32_t step = std::max<uint32_t>(1, p.small_set_level_log_step);
  for (uint32_t g = 0; g < num_guesses; g += step) {
    // Coverage-fraction guess γ = 2^g: the sub-instance's optimum covers
    // ≈ |U|/γ elements, so element sampling needs |L| ≈ c_L·γ·k′·log n.
    double gamma = static_cast<double>(1ULL << g);
    double target_l = p.element_sample_factor * gamma *
                      static_cast<double>(k_prime_) * log_n;
    double element_rate = std::min(1.0, target_l / u);
    for (uint32_t rep = 0; rep < p.small_set_reps; ++rep) {
      Instance inst{
          gamma,
          KWiseHash(p.log_wise_degree, rng.Fork()),
          std::max<uint64_t>(
              1,
              static_cast<uint64_t>(set_rate * static_cast<double>(kRateDen))),
          KWiseHash(p.log_wise_degree, rng.Fork()),
          std::max<uint64_t>(
              1, static_cast<uint64_t>(element_rate *
                                       static_cast<double>(kRateDen))),
          0,
          {},
          {},
          0};
      instances_.push_back(std::move(inst));
    }
  }
}

uint8_t SmallSet::SurvivalLevel(const Instance& inst, uint64_t key) {
  uint32_t level = inst.rescales;
  uint64_t rate = inst.element_rate_num;
  while (level < kMaxRescales) {
    rate = std::max<uint64_t>(1, rate / 2);
    if (key >= rate) break;
    ++level;
  }
  return static_cast<uint8_t>(level);
}

void SmallSet::Rescale(Instance& inst) {
  ++inst.rescales;
  inst.element_rate_num = std::max<uint64_t>(1, inst.element_rate_num / 2);
  // Prune: membership is a range test, so halving the threshold keeps
  // exactly the uniform sample at the halved rate — the incidences whose
  // level reaches the new rescale count.
  size_t kept = 0;
  for (size_t i = 0; i < inst.edges.size(); ++i) {
    if (inst.levels[i] < inst.rescales) continue;
    inst.edges[kept] = inst.edges[i];
    inst.levels[kept] = inst.levels[i];
    ++kept;
  }
  inst.edges.resize(kept);
  inst.levels.resize(kept);
  inst.stored_bytes = kept * kEntryBytes;
}

void SmallSet::StoreEdge(Instance& inst, SetId set, ElementId element,
                         uint64_t key) {
  inst.edges.push_back(Edge{set, element});
  inst.levels.push_back(SurvivalLevel(inst, key));
  inst.stored_bytes += kEntryBytes;
  while (inst.stored_bytes > budget_bytes_ && inst.rescales < kMaxRescales) {
    // Over budget: halve the element rate and prune in place (Figure 5's
    // "terminate", made graceful).
    Rescale(inst);
  }
}

void SmallSet::Process(const Edge& edge) {
  for (Instance& inst : instances_) {
    if (inst.rescales >= kMaxRescales) continue;
    if (inst.set_sampler.MapRange(edge.set, kRateDen) >= inst.set_rate_num)
      continue;
    uint64_t key = inst.element_sampler.MapRange(edge.element, kRateDen);
    if (key >= inst.element_rate_num) continue;
    StoreEdge(inst, edge.set, edge.element, key);
  }
}

void SmallSet::ProcessBatch(const PrefoldedEdges& batch) {
  const IndexedBatch indexed(batch);
  const PrefoldedEdges& b = indexed.view();
  struct Scratch {
    std::vector<uint64_t> set_keys;
    std::vector<uint64_t> survivors;  // element ids, then their sampler keys
    std::vector<size_t> at;           // each survivor's position in the batch
  };
  thread_local Scratch s;
  uint64_t* set_keys = GrowTo(s.set_keys, b.num_distinct_sets);
  uint64_t* survivors = GrowTo(s.survivors, b.size);
  size_t* at = GrowTo(s.at, b.size);
  for (Instance& inst : instances_) {
    if (inst.rescales >= kMaxRescales) continue;
    inst.set_sampler.MapRangeFoldedBatch(b.distinct_set_folded, set_keys,
                                         b.num_distinct_sets, kRateDen);
    size_t live = 0;
    for (size_t i = 0; i < b.size; ++i) {
      if (set_keys[b.set_slot[i]] >= inst.set_rate_num) continue;
      survivors[live] = b.element_folded[i];
      at[live++] = i;
    }
    if (live == 0) continue;
    inst.element_sampler.MapRangeFoldedBatch(survivors, survivors, live,
                                             kRateDen);
    for (size_t j = 0; j < live; ++j) {
      // A rescale cascade can exhaust the instance mid-batch, and the
      // per-edge path would then skip the rest of its edges too.
      if (inst.rescales >= kMaxRescales) break;
      if (survivors[j] >= inst.element_rate_num) continue;
      const Edge& e = b.edges[at[j]];
      StoreEdge(inst, e.set, e.element, survivors[j]);
    }
  }
}

void SmallSet::MergeInstance(Instance& mine, const Instance& theirs) {
  // A dead instance stopped ingesting at an arbitrary stream position, so
  // its frozen sample is meaningless; death is contagious (the combined
  // stream overflows any rate the dead side already exhausted).
  if (mine.rescales >= kMaxRescales || theirs.rescales >= kMaxRescales) {
    mine.rescales = kMaxRescales;
    mine.edges.clear();
    mine.levels.clear();
    mine.stored_bytes = 0;
    return;
  }
  // Equalize to the smaller element rate. Both sides share the sampler
  // (same seed), so pruning mine down IS the uniform sample at that rate.
  while (mine.element_rate_num > theirs.element_rate_num &&
         mine.rescales < kMaxRescales) {
    Rescale(mine);
  }
  // Append the other sample, filtering to the (now no larger) local rate.
  // Each stream token was routed to exactly one shard, so this multiset
  // union reproduces the single-threaded sample at this rate.
  for (size_t i = 0; i < theirs.edges.size(); ++i) {
    if (theirs.levels[i] < mine.rescales) continue;
    mine.edges.push_back(theirs.edges[i]);
    mine.levels.push_back(theirs.levels[i]);
    mine.stored_bytes += kEntryBytes;
  }
  // The combined sample may overflow a budget neither shard hit alone:
  // cascade exactly as Process() would have.
  while (mine.stored_bytes > budget_bytes_ && mine.rescales < kMaxRescales) {
    Rescale(mine);
  }
  if (mine.rescales >= kMaxRescales && mine.stored_bytes > budget_bytes_) {
    mine.edges.clear();
    mine.levels.clear();
    mine.stored_bytes = 0;
  }
}

void SmallSet::Merge(const SmallSet& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(instances_.size(), other.instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    MergeInstance(instances_[i], other.instances_[i]);
  }
}

std::optional<SmallSet::Evaluation> SmallSet::Evaluate(
    const Instance& inst) const {
  if (inst.rescales >= kMaxRescales || inst.edges.empty()) return std::nullopt;
  const std::vector<Edge>& log = inst.edges;
  // Group the log by set through a flat index: number the sets in
  // first-seen order and count each one's incidences.
  DenseIndex index(log.size());
  std::vector<uint32_t> slot(log.size());
  std::vector<SetId> ids;
  std::vector<size_t> count;
  for (size_t i = 0; i < log.size(); ++i) {
    slot[i] = index.Insert(log[i].set);
    if (slot[i] == ids.size()) {
      ids.push_back(log[i].set);
      count.push_back(0);
    }
    ++count[slot[i]];
  }
  // One CSR buffer: each set's elements contiguous, sets in first-seen
  // order. The log's order differs between a single-pass build and a
  // sharded merge; greedy breaks ties by set id, so the evaluation is still
  // a pure function of the stored multiset.
  std::vector<size_t> offsets(ids.size() + 1, 0);
  for (size_t d = 0; d < ids.size(); ++d) {
    offsets[d + 1] = offsets[d] + count[d];
  }
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<ElementId> elements(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    elements[cursor[slot[i]]++] = log[i].element;
  }
  CoverSolution sol = GreedyOnLists(offsets, ids, elements, k_prime_);
  // Feasibility: the paper's sol_γ = Ω̃(k/α) cut, with an absolute floor.
  // Below it, the sampled coverage is sampling noise and the scale-up would
  // overestimate wildly.
  double accept = std::max(
      8.0, config_.params.accept_factor * static_cast<double>(k_prime_));
  double cov = static_cast<double>(sol.coverage);
  if (cov < accept) return std::nullopt;
  Evaluation eval;
  // Scale back from sample to universe: each covered element survived into
  // L with the instance's (possibly rescaled) effective probability. Use a
  // one-σ lower confidence bound on the binomial count — the oracle takes
  // the max over many instances, and without the shrink that selection is
  // biased toward upward sampling noise, breaking the never-overestimate
  // contract.
  eval.estimate = std::max(0.0, cov - std::sqrt(cov)) / inst.EffectiveRate();
  eval.estimate =
      std::min(eval.estimate, static_cast<double>(config_.universe_size));
  eval.solution = std::move(sol.sets);
  return eval;
}

EstimateOutcome SmallSet::Finalize(std::vector<SetId>* solution) const {
  EstimateOutcome out;
  out.source = "small-set";
  std::optional<Evaluation> best;
  for (const Instance& inst : instances_) {
    auto eval = Evaluate(inst);
    if (eval && (!best || eval->estimate > best->estimate)) {
      best = std::move(eval);
    }
  }
  if (solution != nullptr) solution->clear();
  if (!best) return out;
  out.feasible = true;
  out.estimate = best->estimate;
  if (solution != nullptr) *solution = std::move(best->solution);
  return out;
}

std::vector<SetId> SmallSet::ExtractSolution(uint64_t max_sets) const {
  std::vector<SetId> sets;
  Finalize(&sets);
  if (sets.size() > max_sets) sets.resize(max_sets);
  return sets;
}

size_t SmallSet::MemoryBytes() const {
  size_t bytes = 0;
  for (const Instance& inst : instances_) {
    bytes += inst.set_sampler.MemoryBytes() +
             inst.element_sampler.MemoryBytes() + inst.stored_bytes;
  }
  return bytes;
}

uint64_t SmallSet::ItemCount() const {
  uint64_t items = 0;
  for (const Instance& inst : instances_) items += inst.edges.size();
  return items;
}

uint32_t SmallSet::num_rescaled() const {
  uint32_t n = 0;
  for (const Instance& inst : instances_) n += inst.rescales;
  return n;
}

}  // namespace streamkc
