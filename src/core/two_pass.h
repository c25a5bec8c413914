// Two-pass Max k-Cover: bracket OPT cheaply, then spend the space budget
// only where it matters.
//
// The single-pass algorithm pays for log n parallel universe guesses because
// it cannot know OPT in advance (Figure 1). When a second pass over the data
// is available — common for on-disk streams — a nearly-free first pass can
// bracket OPT:
//
//   * an L0 sketch of all elements gives Ĉ ≈ |C(F)|, and OPT ≤ |C(F)|;
//   * OPT ≥ |C(F)|·k/m (averaging: every covered element survives a uniform
//     k-subset of F with probability ≥ k/m);
//   * an F2 heavy hitter over set ids gives b̂ ≈ the largest set's size
//     (counting multiplicity; it lower-bounds nothing by itself on
//     multi-edges, so it only *raises* the bracket's floor when the stream
//     is duplicate-free — we use the conservative k/m floor by default).
//
// Pass 2 then runs the standard estimator restricted to guesses inside
// [lo, hi] — ceil(log(hi/lo)) ≤ ceil(log(m/k)) oracles instead of
// ceil(log n), with the same guarantees (the true OPT's guess is in the
// bracket w.h.p., and every oracle estimate remains a valid lower bound).
//
// Peak memory = max(pass-1 footprint (two Õ(1) sketches), pass-2 footprint),
// strictly dominated by the narrowed pass 2.

#ifndef STREAMKC_CORE_TWO_PASS_H_
#define STREAMKC_CORE_TWO_PASS_H_

#include <cstdint>
#include <memory>

#include "core/estimate_max_cover.h"
#include "core/report_max_cover.h"
#include "sketch/l0_estimator.h"

namespace streamkc {

class TwoPassMaxCover {
 public:
  struct Config {
    Params params;
    bool reporting = false;
    uint64_t seed = 1;
  };

  explicit TwoPassMaxCover(const Config& config);

  // Ingests a batch into the live pass, leaving the state the per-edge calls
  // below would; the peak is sampled once per batch, so it may read lower.
  // RunTwoPass (runtime/feed_stream.h) drives both passes through it.
  void ProcessBatch(const PrefoldedEdges& batch);

  // ---- Pass 1: bracket OPT. ------------------------------------------------
  void ProcessFirstPass(const Edge& edge);
  // Computes the bracket and builds the pass-2 estimator. Must be called
  // exactly once, between the passes.
  void FinishFirstPass();

  // ---- Pass 2: the real estimator over the bracketed guesses. --------------
  void ProcessSecondPass(const Edge& edge);

  EstimateOutcome Finalize() const;
  // Reporting mode only.
  std::vector<SetId> ExtractSolution(uint64_t max_sets) const;

  // Bracket computed by pass 1 (valid after FinishFirstPass()).
  uint64_t guess_lo() const { return guess_lo_; }
  uint64_t guess_hi() const { return guess_hi_; }

  // Number of (guess, repetition) oracles pass 2 instantiates — the
  // savings over single-pass.
  uint32_t num_oracles() const;

  // Footprint of the currently live phase.
  size_t MemoryBytes() const;
  size_t peak_memory_bytes() const { return peak_bytes_; }

 private:
  Config config_;
  // Pass-1 state.
  std::unique_ptr<L0Estimator> covered_;
  bool first_pass_done_ = false;
  uint64_t guess_lo_ = 0;
  uint64_t guess_hi_ = 0;
  // Pass-2 state.
  std::unique_ptr<EstimateMaxCover> second_;
  size_t peak_bytes_ = 0;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_TWO_PASS_H_
