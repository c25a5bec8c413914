// Ablation studies for the design choices DESIGN.md calls out.
//
//   A1 — universe reduction (Section 3.1): run the raw (α,δ,η)-oracle on the
//        original universe vs. the full EstimateMaxCover wrapper, on
//        instances whose optimum covers a SMALL fraction of U. The oracle's
//        preconditions (coverage ≥ |U|/η) fail without reduction; the
//        wrapper's guessed reductions restore them.
//   A2 — heavy-hitter noise floor: Extract()'s 3σ floor (an implementation
//        safeguard beyond Theorem 2.10's statement) vs. disabled. Without
//        it, F2-heavy streams with no heavy coordinate yield spurious
//        hitters and the LargeSet path reports phantom coverage.
//   A3 — universe-guess grid resolution and repetition count: estimate
//        quality vs. oracle count (the δ / granularity trade in Fig. 1).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/estimate_max_cover.h"
#include "core/oracle.h"
#include "offline/greedy.h"
#include "runtime/feed_stream.h"
#include "setsys/generators.h"
#include "sketch/f2_heavy_hitters.h"
#include "util/random.h"

namespace streamkc {
namespace {

void A1_UniverseReduction() {
  bench::Banner("A1: universe reduction on/off (Section 3.1)",
                "oracles need OPT >= |U|/eta; the reduction manufactures that "
                "precondition for any OPT");
  const uint64_t m = 2048, k = 32;
  const double alpha = 8;
  bench::Table table({"OPT fraction of U", "raw oracle", "raw src",
                      "with reduction", "wrapped src", "OPT"});
  // Same planted coverage, increasingly diluted universes.
  for (uint64_t n : {4096ull, 65536ull, 262144ull}) {
    auto inst = PlantedCover(m, n, k, 2048.0 / static_cast<double>(n), 6, 3);
    double opt = static_cast<double>(inst.planted_coverage);

    Oracle::Config oc;
    oc.params = Params::Practical(m, n, k, alpha);
    oc.universe_size = n;
    oc.seed = 77;
    Oracle raw(oc);
    VectorEdgeStream s1 = inst.system.MakeStream(ArrivalOrder::kRandom, 1);
    FeedStream(s1, raw);
    EstimateOutcome raw_out = raw.Finalize();

    EstimateMaxCover::Config ec;
    ec.params = oc.params;
    ec.seed = 78;
    EstimateMaxCover wrapped(ec);
    VectorEdgeStream s2 = inst.system.MakeStream(ArrivalOrder::kRandom, 1);
    FeedStream(s2, wrapped);
    EstimateOutcome wrapped_out = wrapped.Finalize();

    table.AddRow({bench::Fmt("%.4f", opt / static_cast<double>(n)),
                  raw_out.feasible ? bench::Fmt("%.0f", raw_out.estimate)
                                   : "infeasible",
                  raw_out.feasible ? raw_out.source : "-",
                  bench::Fmt("%.0f", wrapped_out.estimate),
                  wrapped_out.source, bench::Fmt("%.0f", opt)});
  }
  table.Print();
  std::printf(
      "Reading: the threshold-based subroutines (large-common / large-set)\n"
      "need OPT = Omega(|U|) and fall silent as the universe dilutes; the\n"
      "raw oracle then leans entirely on small-set's guess ladder, whose\n"
      "reach ends at gamma <= 2*alpha*eta. The reduction re-normalizes every\n"
      "guess z to a constant-fraction instance, keeping all three\n"
      "subroutines in play at ANY dilution — that is Section 3.1's point.\n");
}

void A2_NoiseFloor() {
  bench::Banner("A2: heavy-hitter extraction noise floor on/off",
                "without a noise floor, heavy-hitter-free streams yield "
                "spurious hitters");
  const int trials = bench::SmallScale() ? 10 : 30;
  bench::Table table({"floor (sigmas)", "spurious-hit rate", "recall of real HH"});
  for (double sigmas : {0.0, 3.0}) {
    int spurious = 0, recalled = 0;
    for (int t = 0; t < trials; ++t) {
      // Stream with NO φ-heavy coordinate: 4096 ids of weight 8.
      F2HeavyHitters::Config c;
      c.phi = 0.01;
      c.noise_floor_sigmas = sigmas;
      c.seed = 100u + t;
      const CountSketchRows rows(c.depth, SplitMix64(c.seed));
      F2HeavyHitters none(c);
      for (uint64_t i = 0; i < 4096; ++i) none.Add(rows, i, 8);
      spurious += !none.Extract(rows).empty();

      // Stream WITH a real heavy coordinate.
      F2HeavyHitters some(c);
      some.Add(rows, 999999, 600);
      for (uint64_t i = 0; i < 4096; ++i) some.Add(rows, i, 8);
      auto out = some.Extract(rows);
      recalled += std::any_of(out.begin(), out.end(), [](const HeavyHitter& h) {
        return h.id == 999999;
      });
    }
    table.AddRow({bench::Fmt("%.0f", sigmas),
                  bench::Fmt("%.2f", spurious / (double)trials),
                  bench::Fmt("%.2f", recalled / (double)trials)});
  }
  table.Print();
  std::printf(
      "Reading: the floor eliminates spurious hitters on heavy-free streams\n"
      "without hurting recall of genuine ones; LargeSet's soundness on\n"
      "graph-like instances depends on it (see DESIGN.md).\n");
}

void A3_GridResolution() {
  bench::Banner("A3: guess-grid resolution x repetitions (Fig. 1 knobs)",
                "more oracles buy estimate stability; the step-2 grid is the "
                "cost/quality sweet spot used by Params::Practical");
  auto inst = PlantedCover(2048, 4096, 32, 0.5, 6, 9);
  double opt = static_cast<double>(inst.planted_coverage);
  bench::Table table({"guess step", "reps", "oracles", "estimate", "ratio",
                      "mem_KB"});
  for (uint32_t step : {1u, 2u, 3u}) {
    for (uint32_t reps : {1u, 2u}) {
      Params p = Params::Practical(2048, 4096, 32, 8);
      p.universe_guess_log_step = step;
      p.universe_reduction_reps = reps;
      EstimateMaxCover::Config c;
      c.params = p;
      c.seed = 31 + step * 10 + reps;
      EstimateMaxCover est(c);
      VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 2);
      FeedStream(stream, est);
      EstimateOutcome out = est.Finalize();
      table.AddRow({bench::Fmt("%u", step), bench::Fmt("%u", reps),
                    bench::Fmt("%u", est.num_oracles()),
                    bench::Fmt("%.0f", out.estimate),
                    bench::Fmt("%.2f", out.estimate > 0 ? opt / out.estimate : -1),
                    bench::Fmt("%zu", est.MemoryBytes() >> 10)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace streamkc

int main() {
  streamkc::A1_UniverseReduction();
  streamkc::A2_NoiseFloor();
  streamkc::A3_GridResolution();
  return 0;
}
