// Experiment E10 (DESIGN.md): Table 1's qualitative landscape — the known
// algorithms' quality and space on the same instances, side by side.
//
// Rows reproduced:
//   * offline greedy            — 1/(1-1/e) factor, full memory;
//   * set-arrival sieve (2+ε)   — single pass, but REQUIRES set-contiguous
//                                 arrival [9, 34, 37];
//   * edge-arrival sketch (α)   — this paper: any order, Õ(m/α² + k) space.
//
// The table shows: on set-contiguous streams the sieve wins on quality; on
// the general order it cannot run at all (its defining limitation — the
// paper's motivation), while the sketch pipeline's quality is unchanged.

#include <cstdio>

#include "bench_util.h"
#include "core/report_max_cover.h"
#include "offline/baselines.h"
#include "offline/greedy.h"
#include "offline/set_arrival_streaming.h"
#include "offline/sketch_greedy.h"
#include "runtime/feed_stream.h"
#include "setsys/generators.h"
#include "util/stopwatch.h"

namespace streamkc {
namespace {

void CompareBaselines() {
  bench::Banner(
      "E10: Table 1 landscape — greedy vs set-arrival sieve vs this paper",
      "set-arrival algorithms need contiguous sets; the sketch works in any "
      "order at O~(m/alpha^2 + k) space");
  const uint64_t m = bench::SmallScale() ? 1024 : 2048;
  const uint64_t n = 2 * m;
  const uint64_t k = 32;
  const double alpha = 8;
  auto inst = PlantedCover(m, n, k, 0.5, 6, 13);

  bench::Table table({"algorithm", "arrival order", "coverage", "vs greedy",
                      "memory_KB", "sec"});

  Stopwatch sw;
  CoverSolution greedy = LazyGreedyMaxCover(inst.system, k);
  double greedy_sec = sw.ElapsedSeconds();
  size_t full_bytes = inst.system.TotalEdges() * sizeof(Edge);
  table.AddRow({"offline greedy (1/(1-1/e))", "any (stored)",
                bench::Fmt("%llu", (unsigned long long)greedy.coverage), "1.00",
                bench::Fmt("%zu", full_bytes >> 10),
                bench::Fmt("%.2f", greedy_sec)});

  {
    VectorEdgeStream stream =
        inst.system.MakeStream(ArrivalOrder::kSetContiguous, 0);
    SetArrivalSieve::Config sc;
    sc.k = k;
    sc.opt_upper_bound = n;
    size_t bytes = 0;
    sw.Restart();
    CoverSolution sieve = RunSetArrivalSieve(stream, sc, &bytes);
    table.AddRow({"set-arrival sieve (2+eps)", "set-contiguous ONLY",
                  bench::Fmt("%llu", (unsigned long long)sieve.coverage),
                  bench::Fmt("%.2f", static_cast<double>(greedy.coverage) /
                                         sieve.coverage),
                  bench::Fmt("%zu", bytes >> 10),
                  bench::Fmt("%.2f", sw.ElapsedSeconds())});
  }

  {
    // Table 1 row "Reporting / Edge Arrival / 1/(1-1/e-eps)" [12, 34]:
    // constant factor, any order, but Theta~(m) space.
    SketchGreedy sg({.k = k, .num_mins = 64, .seed = 17});
    VectorEdgeStream stream = inst.system.MakeStream(ArrivalOrder::kRandom, 4);
    sw.Restart();
    FeedStream(stream, sg);
    CoverSolution sol = sg.Finalize();
    uint64_t cov = inst.system.CoverageOf(sol.sets);
    table.AddRow({"edge-arrival sketch-greedy (1/(1-1/e-eps))", "any",
                  bench::Fmt("%llu", (unsigned long long)cov),
                  bench::Fmt("%.2f", static_cast<double>(greedy.coverage) /
                                         std::max<uint64_t>(cov, 1)),
                  bench::Fmt("%zu", sg.MemoryBytes() >> 10),
                  bench::Fmt("%.2f", sw.ElapsedSeconds())});
  }

  for (ArrivalOrder order :
       {ArrivalOrder::kSetContiguous, ArrivalOrder::kRandom,
        ArrivalOrder::kRoundRobin}) {
    ReportMaxCover::Config rc;
    rc.params = Params::Practical(m, n, k, alpha);
    rc.seed = 31;
    ReportMaxCover rep(rc);
    VectorEdgeStream stream = inst.system.MakeStream(order, 2);
    sw.Restart();
    FeedStream(stream, rep);
    MaxCoverSolution sol = rep.Finalize();
    double sec = sw.ElapsedSeconds();
    uint64_t cov = inst.system.CoverageOf(sol.sets);
    table.AddRow({bench::Fmt("edge-arrival sketch (alpha=%.0f)", alpha),
                  ArrivalOrderName(order),
                  bench::Fmt("%llu", (unsigned long long)cov),
                  bench::Fmt("%.2f", static_cast<double>(greedy.coverage) /
                                         std::max<uint64_t>(cov, 1)),
                  bench::Fmt("%zu", rep.MemoryBytes() >> 10),
                  bench::Fmt("%.2f", sec)});
  }

  CoverSolution random = RandomKBaseline(inst.system, k, 5);
  table.AddRow({"random-k baseline", "-",
                bench::Fmt("%llu", (unsigned long long)random.coverage),
                bench::Fmt("%.2f", static_cast<double>(greedy.coverage) /
                                       std::max<uint64_t>(random.coverage, 1)),
                "-", "-"});
  CoverSolution topk = TopKBySizeBaseline(inst.system, k);
  table.AddRow({"top-k-by-size baseline", "-",
                bench::Fmt("%llu", (unsigned long long)topk.coverage),
                bench::Fmt("%.2f", static_cast<double>(greedy.coverage) /
                                       std::max<uint64_t>(topk.coverage, 1)),
                "-", "-"});

  table.Print();
  std::printf(
      "Reading: the sieve is sharper (factor ~2) but only exists on\n"
      "set-contiguous input. Among order-robust algorithms the trade is\n"
      "space: sketch-greedy [12,34] pays Theta~(m) for a ~1.6 factor, this\n"
      "paper's pipeline pays O~(m/alpha^2 + k) for factor alpha — the two\n"
      "endpoints of the tight trade-off curve. (The sieve on a general-order\n"
      "stream aborts by contract — see offline_set_arrival_test.cc.)\n");
}

}  // namespace
}  // namespace streamkc

int main() {
  streamkc::CompareBaselines();
  return 0;
}
