// Experiments E4 / E5 / E6 (DESIGN.md): the Section-4 case analysis.
//
// The (α, δ, η)-oracle runs three subroutines; the paper's case analysis
// says each instance type is handled by (at least) its designated
// subroutine:
//   E4 — common-element instances  → LargeCommon (§4.1, multi-layered set
//        sampling) must be feasible;
//   E5 — large-set instances       → LargeSet (§4.2, heavy hitters /
//        contributing classes) must be feasible;
//   E6 — small-set instances       → SmallSet (§4.3, element sampling) must
//        be feasible.
// The table reports, per family × subroutine: feasibility rate over seeds,
// the mean estimate, and the oracle-level winner — showing both that the
// designated subroutine fires and that the max never overestimates.

#include <cstdio>

#include "bench_util.h"
#include "core/oracle.h"
#include "offline/greedy.h"
#include "runtime/feed_stream.h"
#include "setsys/generators.h"

namespace streamkc {
namespace {

struct CaseSpec {
  const char* experiment;
  const char* family;
  const char* designated;
  GeneratedInstance (*make)(uint64_t seed);
  uint64_t k;
};

GeneratedInstance MakeCommon(uint64_t seed) {
  return CommonElementFamily(1024, 2048, 8, 4.0, 1024, seed);
}
GeneratedInstance MakeLarge(uint64_t seed) {
  return LargeSetFamily(1024, 2048, 4, seed);
}
GeneratedInstance MakeSmall(uint64_t seed) {
  return SmallSetFamily(1024, 4096, 64, seed);
}

void RunCases() {
  const double alpha = 8;
  const int seeds = bench::SmallScale() ? 3 : 8;
  const CaseSpec cases[] = {
      {"E4", "common-element (case I)", "large-common", MakeCommon, 8},
      {"E5", "large-set (case II)", "large-set", MakeLarge, 8},
      {"E6", "small-set (case III)", "small-set", MakeSmall, 64},
  };
  bench::Banner("E4/E5/E6: oracle case analysis (Section 4)",
                "each structural case is served by its designated subroutine;"
                " estimates never exceed OPT");
  bench::Table table({"exp", "family", "subroutine", "feasible", "mean est",
                      "OPT(greedy)", "winner?"});
  for (const CaseSpec& cs : cases) {
    auto inst = cs.make(77);
    double opt = static_cast<double>(LazyGreedyMaxCover(inst.system, cs.k).coverage);
    struct Acc {
      int feasible = 0;
      double sum = 0;
      int winner = 0;
    } acc[3];
    const char* names[3] = {"large-common", "large-set", "small-set"};
    for (int t = 0; t < seeds; ++t) {
      Oracle::Config oc;
      oc.params = Params::Practical(inst.system.num_sets(),
                                    inst.system.num_elements(), cs.k, alpha);
      oc.universe_size = inst.system.num_elements();
      oc.seed = 3000 + t;
      Oracle oracle(oc);
      VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, t);
      FeedStream(stream, oracle);
      EstimateOutcome sub[3] = {oracle.large_common().Finalize(),
                                oracle.large_set().Finalize(),
                                oracle.has_small_set()
                                    ? oracle.small_set().Finalize()
                                    : EstimateOutcome{}};
      EstimateOutcome winner = oracle.Finalize();
      for (int i = 0; i < 3; ++i) {
        if (sub[i].feasible) {
          ++acc[i].feasible;
          acc[i].sum += sub[i].estimate;
        }
        if (winner.feasible && winner.source == names[i]) ++acc[i].winner;
      }
    }
    for (int i = 0; i < 3; ++i) {
      table.AddRow(
          {cs.experiment, cs.family, names[i],
           bench::Fmt("%d/%d", acc[i].feasible, seeds),
           acc[i].feasible ? bench::Fmt("%.0f", acc[i].sum / acc[i].feasible)
                           : "-",
           bench::Fmt("%.0f", opt), bench::Fmt("%d/%d", acc[i].winner, seeds)});
    }
  }
  table.Print();
  std::printf(
      "Reading: the designated subroutine is feasible on (nearly) every\n"
      "seed of its family. Other subroutines may also fire — the oracle\n"
      "takes the max — but none exceeds OPT(greedy)/0.63.\n");
}

}  // namespace
}  // namespace streamkc

int main() {
  streamkc::RunCases();
  return 0;
}
