#include "core/large_set.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "core/set_index.h"
#include "hash/mersenne.h"
#include "util/check.h"
#include "util/dense_index.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/scratch.h"

namespace streamkc {

namespace {

// Superset count: c·m·log2(m) / w (Section 4.2).
uint64_t NumSupersets(const Params& p, double w) {
  double q = p.c_hash * static_cast<double>(p.m) *
             Log2AtLeast1(static_cast<double>(p.m)) / std::max(w, 1.0);
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(q)));
}

// Case-2 class bound r2 (Fig. 7): theory r2 = Q·γ with
// γ = 1944/(t²s²·log α) (Eq. 8); practical r2 = Q. Classes larger than r2
// are handled by the sampled-superset pool.
uint64_t LargeClassBound(const Params& p, uint64_t q) {
  if (p.mode == Params::Mode::kTheory) {
    double gamma_r2 =
        1944.0 / (p.t * p.t * p.s * p.s * Log2AtLeast1(p.alpha));
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(q) *
                                 std::min(gamma_r2, 1.0)));
  }
  // Practical mode searches every class size with the contributing sketch
  // (r2 = Q), so the sampled-superset pool only needs |M| = 12·log m
  // members as a safety net for the extreme class sizes.
  return q;
}

F2Contributing::Config MakeContributingConfig(const Params& p, double phi,
                                              uint64_t class_bound,
                                              uint64_t domain, uint64_t seed) {
  F2Contributing::Config c;
  c.phi = phi;
  c.max_class_size = std::max<uint64_t>(1, class_bound);
  c.domain_size = std::max<uint64_t>(2, domain);
  c.sample_factor = p.contributing_sample_factor;
  c.seed = seed;
  return c;
}

}  // namespace

LargeSetComplete::LargeSetComplete(const Config& config)
    : config_(config),
      element_sampler_(std::max(config.element_rate, 1e-12),
                       config.params.log_wise_degree,
                       SplitMix64(config.seed ^ 0x1111)),
      superset_hash_(config.params.log_wise_degree,
                     SplitMix64(config.seed ^ 0x2222)),
      num_supersets_(NumSupersets(config.params, config.w)),
      hashes_(F2Contributing::MakeHashes(config.params.log_wise_degree,
                                         SplitMix64(config.seed ^ 0x7777))),
      cntr_small_(MakeContributingConfig(
          config.params,
          std::min(1.0, config.params.phi1_factor * config.params.alpha *
                            config.params.alpha /
                            static_cast<double>(config.params.m)),
          /*class_bound=*/
          static_cast<uint64_t>(
              std::ceil(3.0 * config.params.s * config.params.alpha)) +
              1,
          num_supersets_, SplitMix64(config.seed ^ 0x3333))),
      cntr_large_(MakeContributingConfig(
          config.params,
          std::min(1.0, config.params.phi2_factor /
                            Log2AtLeast1(config.params.alpha)),
          LargeClassBound(config.params, num_supersets_), num_supersets_,
          SplitMix64(config.seed ^ 0x4444))),
      pool_hash_(config.params.log_wise_degree,
                 SplitMix64(config.seed ^ 0x5555)),
      sample_coverage_({.num_mins = config.params.l0_num_mins,
                        .seed = SplitMix64(config.seed ^ 0x9999)}) {
  const Params& p = config.params;
  CHECK_GT(config.universe_size, 0u);
  CHECK_GT(config.w, 0.0);
  CHECK_LE(num_supersets_, uint64_t{1} << 32);  // ProcessBatch's sort keys

  // Expected sample size |L| (== |U| when rate is 1).
  double expected_l = std::min(config.element_rate, 1.0) *
                      static_cast<double>(config.universe_size);

  // Acceptance thresholds at sample scale (Fig. 6). Theory keeps the
  // paper's 18 / 6; practical tightens toward the instance scale.
  double c1 = (p.mode == Params::Mode::kTheory) ? 18.0 : 2.0;
  double c2 = (p.mode == Params::Mode::kTheory) ? 6.0 : 2.0;
  thr1_ = expected_l / (c1 * p.eta * p.s * p.alpha);
  thr2_ = expected_l / (c2 * p.eta * p.alpha);

  const uint64_t q = num_supersets_;
  const uint64_t r2 = LargeClassBound(p, q);

  // Superset pool: expected 12·Q·log2(m)/r2 members (Fig. 6's M), capped.
  double pool_expected = 12.0 * static_cast<double>(q) *
                         Log2AtLeast1(static_cast<double>(p.m)) /
                         static_cast<double>(r2);
  // A uniform sample this size hits any class of ≥ r2 supersets w.h.p.;
  // capping keeps the pool's L0 counters a small constant of the footprint.
  pool_expected = std::min(pool_expected, 64.0);
  double pool_rate = std::min(1.0, pool_expected / static_cast<double>(q));
  pool_rate_den_ = 1ULL << 40;
  pool_rate_num_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(pool_rate * static_cast<double>(pool_rate_den_)));
  pool_l0_seed_ = SplitMix64(config.seed ^ 0x6666);
}

HashedIds LargeSetComplete::HashSupersets(const uint64_t* supersets,
                                          size_t n) const {
  struct Scratch {
    std::vector<uint64_t> folded, keys, row_hashes;
  };
  thread_local Scratch s;
  uint64_t* folded = GrowTo(s.folded, n);
  uint64_t* keys = GrowTo(s.keys, n);
  uint64_t* row_hashes = GrowTo(s.row_hashes, size_t{hashes_.rows.depth()} * n);
  for (size_t j = 0; j < n; ++j) folded[j] = MersenneFold(supersets[j]);
  hashes_.HashFoldedBatch(folded, n, keys, row_hashes);
  return HashedIds{supersets, row_hashes, keys, nullptr, n};
}

void LargeSetComplete::CountSlice(const uint64_t* supersets,
                                  const int64_t* counts, size_t n,
                                  bool closes) {
  if (n == 0) {
    if (closes) CloseWindow();
    return;
  }
  HashedIds block = HashSupersets(supersets, n);
  block.counts = counts;
  cntr_small_.AddCounts(block);
  cntr_large_.AddCounts(block);
  if (closes && touched_.empty()) {
    // The window is exactly this slice: admit from the hashes at hand.
    Admit(block);
    return;
  }
  Touch(supersets, n);
  if (closes) CloseWindow();
}

void LargeSetComplete::Admit(const HashedIds& window) {
  cntr_small_.Admit(hashes_, window);
  cntr_large_.Admit(hashes_, window);
}

void LargeSetComplete::CloseWindow() {
  if (!touched_.empty()) Admit(HashSupersets(touched_.data(), touched_.size()));
  touched_.clear();
  touched_.shrink_to_fit();
}

void LargeSetComplete::Touch(const uint64_t* supersets, size_t n) {
  if (n == 0) return;
  if (n == 1) {
    auto it = std::lower_bound(touched_.begin(), touched_.end(), supersets[0]);
    if (it == touched_.end() || *it != supersets[0]) {
      touched_.insert(it, supersets[0]);
    }
    return;
  }
  thread_local std::vector<uint64_t> merged;
  merged.clear();
  std::set_union(touched_.begin(), touched_.end(), supersets, supersets + n,
                 std::back_inserter(merged));
  touched_.assign(merged.begin(), merged.end());
}

void LargeSetComplete::AddToPool(uint64_t superset, uint64_t element_folded) {
  auto it = pool_.find(superset);
  if (it == pool_.end()) {
    // Pool counters only feed a threshold test, so half-size KMV sketches
    // (±2/√32 ≈ 35% worst case) are accurate enough and halve the pool's
    // footprint.
    it = pool_
             .emplace(superset,
                      L0Estimator(
                          {.num_mins = std::max(
                               32u, config_.params.l0_num_mins / 2),
                           .seed = SplitMix64(pool_l0_seed_ ^ superset)}))
             .first;
  }
  it->second.AddFolded(element_folded);
}

void LargeSetComplete::Process(const Edge& edge) {
  const bool closes = ++window_edges_ == kWindowEdges;
  if (closes) window_edges_ = 0;
  if (config_.element_rate < 1.0 &&
      !element_sampler_.Sampled(edge.element)) {
    if (closes) CloseWindow();
    return;
  }
  const uint64_t superset = superset_hash_.MapRange(edge.set, num_supersets_);
  const int64_t one = 1;
  CountSlice(&superset, &one, 1, closes);
  const uint64_t element_folded = MersenneFold(edge.element);
  sample_coverage_.AddFolded(element_folded);
  if (pool_hash_.KeepFolded(MersenneFold(superset), pool_rate_num_,
                            pool_rate_den_)) {
    AddToPool(superset, element_folded);
  }
}

void LargeSetComplete::ProcessBatch(const PrefoldedEdges& batch) {
  const IndexedBatch indexed(batch);
  const PrefoldedEdges& b = indexed.view();
  struct Scratch {
    std::vector<uint64_t> keys;     // element keys per edge, then pool keys
    std::vector<uint32_t> slot;     // each survivor's set among `set_f`
    std::vector<uint64_t> elem_f;   // each survivor's element fold
    std::vector<uint64_t> set_f;    // the survivors' distinct sets' folds
    std::vector<uint32_t> members;  // their numbers in the batch index
    std::vector<uint32_t> renumber;  // batch number -> survivor set number
    std::vector<uint64_t> supersets, superset_f;
    std::vector<size_t> cuts;  // survivors before each window end
    std::vector<int64_t> set_count;  // per survivor set, within a slice
    std::vector<uint32_t> hit;       // the slice's sets with a count
    std::vector<int64_t> sums;     // per distinct superset, first-seen
    std::vector<uint64_t> order;   // superset << 32 | its sum's number
    std::vector<uint64_t> slice_ids;
    std::vector<int64_t> slice_counts;
    DenseIndex superset_index;
  };
  constexpr uint32_t kUnseen = UINT32_MAX;
  thread_local Scratch s;
  uint64_t* keys = GrowTo(s.keys, b.size);
  // The superset path's input: every edge at ρ = 1; otherwise the element
  // gate's survivors, indexed over just the sets they reference — at small
  // ρ a batch's few survivors reference far fewer sets than it holds.
  // Either way, cuts[c] counts the survivors before the c-th window end.
  size_t updates = b.size;
  size_t sets = b.num_distinct_sets;
  const uint32_t* slot = b.set_slot;
  const uint64_t* elem_f = b.element_folded;
  const uint64_t* set_f = b.distinct_set_folded;
  s.cuts.clear();
  const uint64_t first_end = kWindowEdges - window_edges_;
  if (config_.element_rate < 1.0) {
    element_sampler_.SampleKeysFoldedBatch(b.element_folded, keys, b.size);
    const uint64_t thr = element_sampler_.rate_num();
    uint32_t* sv_slot = GrowTo(s.slot, b.size);
    uint64_t* sv_elem_f = GrowTo(s.elem_f, b.size);
    uint64_t* sv_set_f = GrowTo(s.set_f, b.num_distinct_sets);
    uint32_t* members = GrowTo(s.members, b.num_distinct_sets);
    // All kUnseen between batches: entries are restored after use.
    uint32_t* renumber = GrowTo(s.renumber, b.num_distinct_sets, kUnseen);
    updates = 0;
    sets = 0;
    uint64_t next_end = first_end;
    for (size_t i = 0; i < b.size; ++i) {
      if (i == next_end) {
        s.cuts.push_back(updates);
        next_end += kWindowEdges;
      }
      if (keys[i] >= thr) continue;
      const uint32_t d = b.set_slot[i];
      if (renumber[d] == kUnseen) {
        renumber[d] = static_cast<uint32_t>(sets);
        members[sets] = d;
        sv_set_f[sets++] = b.distinct_set_folded[d];
      }
      sv_slot[updates] = renumber[d];
      sv_elem_f[updates++] = b.element_folded[i];
    }
    if (next_end == b.size) s.cuts.push_back(updates);
    for (size_t t = 0; t < sets; ++t) renumber[members[t]] = kUnseen;
    slot = sv_slot;
    elem_f = sv_elem_f;
    set_f = sv_set_f;
  } else {
    for (uint64_t end = first_end; end <= b.size; end += kWindowEdges) {
      s.cuts.push_back(end);
    }
  }
  // Hash each set once: its superset and the superset's pool gate.
  uint64_t* supersets = GrowTo(s.supersets, sets);
  uint64_t* superset_f = GrowTo(s.superset_f, sets);
  superset_hash_.MapRangeFoldedBatch(set_f, supersets, sets, num_supersets_);
  for (size_t d = 0; d < sets; ++d) superset_f[d] = MersenneFold(supersets[d]);
  // Count each window-bounded slice per distinct superset, ascending; the
  // last slice leaves its window open unless it ends on a cut.
  int64_t* set_count = GrowTo(s.set_count, sets);
  uint32_t* hit = GrowTo(s.hit, sets);
  size_t start = 0;
  for (size_t c = 0; c <= s.cuts.size(); ++c) {
    const bool closes = c < s.cuts.size();
    const size_t end = closes ? s.cuts[c] : updates;
    size_t hits = 0;
    for (size_t t = start; t < end; ++t) {
      const uint32_t d = slot[t];
      if (set_count[d]++ == 0) hit[hits++] = d;
    }
    // Sum per superset, then order the sums by superset: one sort of
    // (superset << 32 | sum number) keys.
    s.superset_index.Reset(hits);
    s.sums.clear();
    s.order.clear();
    for (size_t h = 0; h < hits; ++h) {
      const uint32_t d = hit[h];
      const uint32_t i = s.superset_index.Insert(supersets[d]);
      if (i == s.sums.size()) {
        s.sums.push_back(0);
        s.order.push_back(supersets[d] << 32 | i);
      }
      s.sums[i] += set_count[d];
      set_count[d] = 0;
    }
    std::sort(s.order.begin(), s.order.end());
    s.slice_ids.resize(s.order.size());
    s.slice_counts.resize(s.order.size());
    for (size_t j = 0; j < s.order.size(); ++j) {
      s.slice_ids[j] = s.order[j] >> 32;
      s.slice_counts[j] = s.sums[s.order[j] & UINT32_MAX];
    }
    CountSlice(s.slice_ids.data(), s.slice_counts.data(), s.order.size(),
               closes);
    start = end;
  }
  window_edges_ = (window_edges_ + b.size) % kWindowEdges;
  sample_coverage_.AddFoldedBatch(elem_f, updates);
  // The pool's per-superset L0 counters take the survivors' elements one
  // by one, in order.
  const bool pool_all = pool_rate_num_ >= pool_rate_den_;
  if (!pool_all) {
    // One pool key per index entry: at ρ = 1 a caller's index may hold
    // more entries than the view has edges.
    keys = GrowTo(s.keys, sets);
    pool_hash_.MapRangeFoldedBatch(superset_f, keys, sets, pool_rate_den_);
  }
  for (size_t t = 0; t < updates; ++t) {
    const uint32_t d = slot[t];
    if (pool_all || keys[d] < pool_rate_num_) {
      AddToPool(supersets[d], elem_f[t]);
    }
  }
}

void LargeSetComplete::Merge(const LargeSetComplete& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(num_supersets_, other.num_supersets_);
  cntr_small_.Merge(other.cntr_small_, hashes_);
  cntr_large_.Merge(other.cntr_large_, hashes_);
  // Pool entries are keyed by superset id; which ids appear depends only on
  // the observed edges (the pool hash is shared), so union-by-key plus L0
  // merge reproduces the single-threaded pool on the concatenated stream.
  for (const auto& [superset, de] : other.pool_) {
    auto it = pool_.find(superset);
    if (it == pool_.end()) {
      pool_.emplace(superset, de);
    } else {
      it->second.Merge(de);
    }
  }
  sample_coverage_.Merge(other.sample_coverage_);
  Touch(other.touched_.data(), other.touched_.size());
  window_edges_ = (window_edges_ + other.window_edges_) % kWindowEdges;
}

std::optional<LargeSetComplete::Candidate> LargeSetComplete::BestCandidate()
    const {
  const Params& p = config_.params;
  std::optional<Candidate> best;
  // Ties go to the smallest superset id, so the winner (and the witness
  // ExtractSolution derives from it) does not depend on the hash-map
  // iteration order below, which differs between a single pass and a merge.
  auto consider = [&best](uint64_t superset, double cov) {
    if (cov <= 0) return;
    if (!best || cov > best->sample_scale_estimate ||
        (cov == best->sample_scale_estimate && superset < best->superset)) {
      best = Candidate{superset, cov};
    }
  };
  // The open window's supersets are read as if the window had closed.
  const HashedIds open = HashSupersets(touched_.data(), touched_.size());
  // Case 1: a small (≤ sα supersets) contributing class of F2(v⃗). The
  // extracted value estimates total incidence size; divide by f to lower-
  // bound coverage (Claim 4.10).
  for (const ContributingCoordinate& cc : cntr_small_.Extract(hashes_, open)) {
    if (cc.estimate >= thr1_ / 2.0) {
      consider(cc.id, 2.0 * cc.estimate / (3.0 * p.f));
    }
  }
  // Case 2, small classes.
  for (const ContributingCoordinate& cc : cntr_large_.Extract(hashes_, open)) {
    if (cc.estimate >= thr2_ / 2.0) {
      consider(cc.id, 2.0 * cc.estimate / (3.0 * p.f));
    }
  }
  // Case 2, oversized classes: pooled supersets carry direct (distinct)
  // coverage counters, so no f correction is needed (Fig. 6's DE path).
  for (const auto& [superset, de] : pool_) {
    double val = de.Estimate();
    if (val >= thr2_ / 2.0) consider(superset, 2.0 * val / 3.0);
  }
  return best;
}

EstimateOutcome LargeSetComplete::Finalize(uint64_t* superset) const {
  EstimateOutcome out;
  out.source = "large-set";
  auto best = BestCandidate();
  if (!best) return out;
  if (superset != nullptr) *superset = best->superset;
  out.feasible = true;
  double rate = std::min(config_.element_rate, 1.0);
  out.estimate =
      std::min(best->sample_scale_estimate, sample_coverage_.Estimate()) /
      rate;
  // Never report more than the universe: the scale-up is an expectation
  // inversion and can overshoot on lucky samples.
  out.estimate =
      std::min(out.estimate, static_cast<double>(config_.universe_size));
  return out;
}

std::vector<SetId> LargeSetComplete::ExtractSolution(uint64_t max_sets) const {
  CHECK(config_.reporting);
  auto best = BestCandidate();
  if (!best) return {};
  return SupersetMembers(best->superset, max_sets);
}

std::vector<SetId> LargeSetComplete::SupersetMembers(uint64_t superset,
                                                     uint64_t max_sets) const {
  CHECK(config_.reporting);
  std::vector<SetId> out;
  for (SetId s = 0; s < config_.params.m && out.size() < max_sets; ++s) {
    if (superset_hash_.MapRange(s, num_supersets_) == superset) {
      out.push_back(s);
    }
  }
  return out;
}

size_t LargeSetComplete::MemoryBytes() const {
  // The open window is counted by its ids, a function of its contents and
  // not of how the window was batched.
  size_t bytes = element_sampler_.MemoryBytes() +
                 superset_hash_.MemoryBytes() + hashes_.MemoryBytes() +
                 cntr_small_.MemoryBytes() + cntr_large_.MemoryBytes() +
                 pool_hash_.MemoryBytes() + sample_coverage_.MemoryBytes() +
                 touched_.size() * sizeof(uint64_t);
  for (const auto& [id, de] : pool_) bytes += sizeof(id) + de.MemoryBytes();
  return bytes;
}

void LargeSetComplete::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  cntr_small_.ReportSpace(acct);
  cntr_large_.ReportSpace(acct);
  sample_coverage_.ReportSpace(acct);
  for (const auto& [id, de] : pool_) {
    (void)id;
    de.ReportSpace(acct);
  }
}

LargeSet::LargeSet(const Config& config) : config_(config) {
  const Params& p = config.params;
  CHECK_GT(config.universe_size, 0u);
  Rng rng(config.seed);
  double u = static_cast<double>(config.universe_size);
  // ρ = t·s·α·η / |U| (Appendix B, Step 1).
  double rate = std::min(1.0, p.t * p.s * p.alpha * p.eta / u);
  uint32_t reps = p.large_set_reps;
  if (p.mode == Params::Mode::kTheory) {
    reps = std::max(reps, CeilLog2(config.universe_size) + 1);
  }
  if (rate >= 1.0) reps = 1;  // identical repetitions are pointless
  for (uint32_t r = 0; r < reps; ++r) {
    LargeSetComplete::Config c;
    c.params = p;
    c.universe_size = config.universe_size;
    c.w = config.w;
    c.element_rate = rate;
    c.reporting = config.reporting;
    c.seed = rng.Fork();
    reps_.emplace_back(c);
  }
}

void LargeSet::Process(const Edge& edge) {
  for (auto& rep : reps_) rep.Process(edge);
}

void LargeSet::ProcessBatch(const PrefoldedEdges& batch) {
  const IndexedBatch indexed(batch);
  for (auto& rep : reps_) rep.ProcessBatch(indexed.view());
}

void LargeSet::Merge(const LargeSet& other) {
  CHECK_EQ(config_.seed, other.config_.seed);
  CHECK_EQ(reps_.size(), other.reps_.size());
  for (size_t i = 0; i < reps_.size(); ++i) reps_[i].Merge(other.reps_[i]);
}

EstimateOutcome LargeSet::Finalize(Winner* winner) const {
  // The best feasible repetition; ties to the first.
  EstimateOutcome best;
  best.source = "large-set";
  for (size_t i = 0; i < reps_.size(); ++i) {
    uint64_t superset = 0;
    EstimateOutcome out = reps_[i].Finalize(&superset);
    if (out.feasible && (!best.feasible || out.estimate > best.estimate)) {
      best = std::move(out);
      if (winner != nullptr) *winner = Winner{i, superset};
    }
  }
  return best;
}

std::vector<SetId> LargeSet::ExtractSolution(uint64_t max_sets) const {
  Winner winner;
  if (!Finalize(&winner).feasible) return {};
  return ExtractSolution(winner, max_sets);
}

std::vector<SetId> LargeSet::ExtractSolution(const Winner& winner,
                                             uint64_t max_sets) const {
  CHECK_LT(winner.rep, reps_.size());
  return reps_[winner.rep].SupersetMembers(winner.superset, max_sets);
}

size_t LargeSet::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& rep : reps_) bytes += rep.MemoryBytes();
  return bytes;
}

void LargeSet::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  for (const auto& rep : reps_) rep.ReportSpace(acct);
}

}  // namespace streamkc
