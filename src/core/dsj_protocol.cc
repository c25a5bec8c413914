#include "core/dsj_protocol.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace streamkc {

namespace {

F2HeavyHitters::Config MakeHhConfig(const DsjDistinguisher::Config& c) {
  CHECK_GE(c.num_players, 2u);
  CHECK_GT(c.num_items, 0u);
  CHECK_GT(c.space_factor, 0.0);
  // F2 of the reduced instance is ≈ m (Yes) or ≈ m + r² (No); the planted
  // coordinate has weight r². φ = r²/(2(m + r²)) admits it with slack.
  double r = static_cast<double>(c.num_players);
  double m = static_cast<double>(c.num_items);
  F2HeavyHitters::Config hh;
  hh.phi = std::min(1.0, (r * r) / (2.0 * (m + r * r)));
  // Design-point width 32·(m+r²)/r² = Θ(m/r²): per-row noise √(F2/width) ≈
  // r/5.7, small enough that the max over the candidate set stays below the
  // decision threshold in Yes instances. space_factor scales the realized
  // width (and candidate set) away from that design point.
  hh.width_factor = 16.0 * c.space_factor;
  hh.cand_factor = 4.0 * c.space_factor;
  hh.seed = c.seed;
  return hh;
}

}  // namespace

DsjDistinguisher::DsjDistinguisher(const Config& config)
    : config_(config),
      hh_(MakeHhConfig(config)),
      rows_(F2HeavyHitters::Config{}.depth, SplitMix64(config.seed)) {}

void DsjDistinguisher::Process(const Edge& edge) {
  // a[j] counts the players whose set holds item j = the reduced set id.
  hh_.Add(rows_, edge.set);
}

DsjDistinguisher::Verdict DsjDistinguisher::Finalize() const {
  Verdict v;
  for (const HeavyHitter& h : hh_.Extract(rows_)) {
    if (h.estimate > v.max_estimate) {
      v.max_estimate = h.estimate;
      v.heaviest_item = h.id;
    }
  }
  // The common item reads ≈ r ± O(√(m/width)·√log); singletons read ≈ 1
  // plus the same noise. 0.6·r sits between the two at the design width.
  double threshold =
      std::max(2.0, 0.6 * static_cast<double>(config_.num_players));
  v.says_no = v.max_estimate >= threshold;
  return v;
}

size_t DsjDistinguisher::MemoryBytes() const {
  return hh_.MemoryBytes() + rows_.MemoryBytes();
}

bool DsjExperimentCorrect(const DsjInstance& dsj, double space_factor,
                          uint64_t seed, size_t* memory_bytes) {
  DsjDistinguisher::Config c;
  c.num_items = dsj.num_items;
  c.num_players = dsj.num_players;
  c.space_factor = space_factor;
  c.seed = seed;
  DsjDistinguisher dist(c);
  for (const Edge& e : DsjToMaxCoverEdges(dsj)) dist.Process(e);
  if (memory_bytes != nullptr) *memory_bytes = dist.MemoryBytes();
  return dist.Finalize().says_no == dsj.is_no_instance;
}

}  // namespace streamkc
