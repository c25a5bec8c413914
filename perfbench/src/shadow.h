// The traced run's shadow of the estimator stack.
//
// ServingState keeps its estimators private, so the traced run feeds every
// batch a second time into a shadow built from the same public classes and
// configured exactly as ReportMaxCover → EstimateMaxCover → Oracle
// configure theirs: per guess z = 2^j, both repetitions, a UniverseReduction
// then LargeCommon, LargeSet (w = α) and SmallSet, reporting on, with the
// same seed derivation. The shadow's spans attribute the time of the real
// ServingState::ProcessBatch to layers and guesses; its finalize reproduces
// the published answer, which the benchmark checks.
//
// Two per-batch probes ride along: the set-coverage CountSketch and L0
// estimator (the trivial branch runs exactly these), and the two hash
// families through KWiseHash::MapFoldedBatch.

#ifndef PERFBENCH_SHADOW_H_
#define PERFBENCH_SHADOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/large_common.h"
#include "core/large_set.h"
#include "core/report_max_cover.h"
#include "core/small_set.h"
#include "core/universe_reduction.h"
#include "hash/kwise_hash.h"
#include "serve/serving_state.h"
#include "sketch/count_sketch.h"
#include "sketch/l0_estimator.h"
#include "trace.h"

namespace perfbench {

class ShadowStack {
 public:
  ShadowStack(const streamkc::ServingState::Config& config, Tracer* tracer);

  // Feeds one batch. `parent` is the span of the real ProcessBatch call on
  // the same batch (0 if there is none).
  void ProcessBatch(const streamkc::PrefoldedEdges& batch, uint64_t batch_id,
                    uint64_t parent);

  // Finalizes the way ReportMaxCover::Finalize does, with spans per
  // component; `levels_passing` gets the guesses z whose best repetition
  // reaches z/(4α).
  streamkc::MaxCoverSolution Finalize(uint64_t epoch,
                                      uint32_t* levels_passing);

  bool trivial() const { return levels_.empty(); }

  // The guess exponents j (z = 2^j) in construction order, one per level.
  std::vector<uint32_t> GuessExponents() const;
  // Σ over both repetitions of guess 2^j.
  size_t LargeSetBytes(uint32_t j) const;
  size_t SmallSetBytes(uint32_t j) const;

  // Span names whose time mirrors the real ProcessBatch.
  const std::vector<std::string>& mirror_spans() const { return mirror_; }

 private:
  struct Level {
    uint32_t j = 0;
    uint64_t z = 0;
    streamkc::UniverseReduction reduction;
    std::unique_ptr<streamkc::LargeCommon> large_common;
    std::unique_ptr<streamkc::LargeSet> large_set;
    std::unique_ptr<streamkc::SmallSet> small_set;
    uint32_t reduce_span = 0, lc_span = 0, ls_span = 0, ss_span = 0;
  };

  streamkc::Params params_;
  Tracer* tracer_;
  std::vector<Level> levels_;
  streamkc::L0Estimator l0_;
  streamkc::CountSketch set_coverage_;
  streamkc::KWiseHash fourwise_;
  streamkc::KWiseHash logwise_;
  std::vector<streamkc::Edge> mapped_edges_;
  std::vector<uint64_t> mapped_;
  std::vector<uint64_t> mapped_folded_;
  std::vector<uint64_t> hash_out_;
  std::vector<std::string> mirror_;
  uint32_t l0_span_, set_coverage_span_, fourwise_span_, logwise_span_;
  uint32_t lc_finalize_span_, ls_finalize_span_, ss_finalize_span_;
  uint32_t estimate_finalize_span_, extract_span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SHADOW_H_
