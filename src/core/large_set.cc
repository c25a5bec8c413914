#include "core/large_set.h"

#include <algorithm>
#include <cmath>

#include "core/set_index.h"
#include "hash/mersenne.h"
#include "util/check.h"
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
  c.gamma = phi;
  c.phi_factor = 1.0;  // we pass the final φ directly
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
                 SplitMix64(config.seed ^ 0x5555)) {
  const Params& p = config.params;
  CHECK_GT(config.universe_size, 0u);
  CHECK_GT(config.w, 0.0);

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

void LargeSetComplete::AdmitSuperset(uint64_t superset,
                                     uint64_t element_folded) {
  uint64_t folded = MersenneFold(superset);
  cntr_small_.AddFolded(superset, folded);
  cntr_large_.AddFolded(superset, folded);
  if (pool_hash_.KeepFolded(folded, pool_rate_num_, pool_rate_den_)) {
    AddToPool(superset, element_folded);
  }
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
  if (config_.element_rate < 1.0 &&
      !element_sampler_.Sampled(edge.element)) {
    return;
  }
  AdmitSuperset(superset_hash_.MapRange(edge.set, num_supersets_),
                MersenneFold(edge.element));
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
  };
  constexpr uint32_t kUnseen = UINT32_MAX;
  thread_local Scratch s;
  uint64_t* keys = GrowTo(s.keys, b.size);
  // The superset path's input: every edge at ρ = 1; otherwise the element
  // gate's survivors, indexed over just the sets they reference — at small
  // ρ a batch's few survivors reference far fewer sets than it holds.
  size_t updates = b.size;
  size_t sets = b.num_distinct_sets;
  const uint32_t* slot = b.set_slot;
  const uint64_t* elem_f = b.element_folded;
  const uint64_t* set_f = b.distinct_set_folded;
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
    for (size_t i = 0; i < b.size; ++i) {
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
    for (size_t t = 0; t < sets; ++t) renumber[members[t]] = kUnseen;
    slot = sv_slot;
    elem_f = sv_elem_f;
    set_f = sv_set_f;
  }
  // Hash each set once, mutate per edge in order: the superset ids, their
  // folds and the pool gate per distinct set; then each consumer takes the
  // updates as one indexed block. The two contributing sketches and the
  // pool hold disjoint state, so feeding them one after the other leaves
  // each with exactly AdmitSuperset's update sequence. Sets sharing a
  // superset are separate index entries, which the blocks allow.
  uint64_t* supersets = GrowTo(s.supersets, sets);
  uint64_t* superset_f = GrowTo(s.superset_f, sets);
  superset_hash_.MapRangeFoldedBatch(set_f, supersets, sets, num_supersets_);
  for (size_t d = 0; d < sets; ++d) superset_f[d] = MersenneFold(supersets[d]);
  cntr_small_.AddIndexedBatch(supersets, superset_f, sets, slot, updates);
  cntr_large_.AddIndexedBatch(supersets, superset_f, sets, slot, updates);
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
  cntr_small_.Merge(other.cntr_small_);
  cntr_large_.Merge(other.cntr_large_);
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
  // Case 1: a small (≤ sα supersets) contributing class of F2(v⃗). The
  // extracted value estimates total incidence size; divide by f to lower-
  // bound coverage (Claim 4.10).
  for (const ContributingCoordinate& cc : cntr_small_.Extract()) {
    if (cc.estimate >= thr1_ / 2.0) {
      consider(cc.id, 2.0 * cc.estimate / (3.0 * p.f));
    }
  }
  // Case 2, small classes.
  for (const ContributingCoordinate& cc : cntr_large_.Extract()) {
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

EstimateOutcome LargeSetComplete::Finalize() const {
  EstimateOutcome out;
  out.source = "large-set";
  auto best = BestCandidate();
  if (!best) return out;
  out.feasible = true;
  double rate = std::min(config_.element_rate, 1.0);
  out.estimate = best->sample_scale_estimate / rate;
  // Never report more than the universe: the scale-up is an expectation
  // inversion and can overshoot on lucky samples.
  out.estimate =
      std::min(out.estimate, static_cast<double>(config_.universe_size));
  return out;
}

std::vector<SetId> LargeSetComplete::ExtractSolution(uint64_t max_sets) const {
  CHECK(config_.reporting);
  std::vector<SetId> out;
  auto best = BestCandidate();
  if (!best) return out;
  for (SetId s = 0; s < config_.params.m && out.size() < max_sets; ++s) {
    if (superset_hash_.MapRange(s, num_supersets_) == best->superset) {
      out.push_back(s);
    }
  }
  return out;
}

size_t LargeSetComplete::MemoryBytes() const {
  size_t bytes = element_sampler_.MemoryBytes() +
                 superset_hash_.MemoryBytes() + cntr_small_.MemoryBytes() +
                 cntr_large_.MemoryBytes() + pool_hash_.MemoryBytes();
  for (const auto& [id, de] : pool_) bytes += sizeof(id) + de.MemoryBytes();
  return bytes;
}

void LargeSetComplete::ReportSpace(SpaceAccountant* acct) const {
  SpaceMetered::ReportSpace(acct);
  cntr_small_.ReportSpace(acct);
  cntr_large_.ReportSpace(acct);
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

std::optional<std::pair<size_t, EstimateOutcome>> LargeSet::BestRep() const {
  std::optional<std::pair<size_t, EstimateOutcome>> best;
  for (size_t i = 0; i < reps_.size(); ++i) {
    EstimateOutcome out = reps_[i].Finalize();
    if (out.feasible && (!best || out.estimate > best->second.estimate)) {
      best = {{i, std::move(out)}};
    }
  }
  return best;
}

EstimateOutcome LargeSet::Finalize() const {
  auto best = BestRep();
  if (best) return std::move(best->second);
  EstimateOutcome out;
  out.source = "large-set";
  return out;
}

std::vector<SetId> LargeSet::ExtractSolution(uint64_t max_sets) const {
  auto best = BestRep();
  if (!best) return {};
  return reps_[best->first].ExtractSolution(max_sets);
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
