// Experiment E11 (DESIGN.md): the reporting algorithm (Theorem 3.2) —
// an α-approximate k-cover, not just its value, in Õ(m/α² + k) space.
//
// For each instance family and α, the bench reports the returned solution's
// TRUE coverage (evaluated offline against the ground-truth set system), the
// achieved factor vs greedy, the number of sets returned (≤ k), which
// subroutine produced the witness, and the space used.

#include <cstdio>

#include "bench_util.h"
#include "core/report_max_cover.h"
#include "offline/greedy.h"
#include "runtime/feed_stream.h"
#include "setsys/generators.h"
#include "util/stopwatch.h"

namespace streamkc {
namespace {

void ReportingQuality() {
  bench::Banner("E11: solution reporting (Theorem 3.2)",
                "alpha-approximate k-cover in O~(m/alpha^2 + k) space");
  struct Workload {
    const char* name;
    GeneratedInstance inst;
    uint64_t k;
  };
  const uint64_t scale = bench::SmallScale() ? 1024 : 2048;
  Workload workloads[] = {
      {"planted", PlantedCover(scale, 2 * scale, 32, 0.5, 6, 5), 32},
      {"large-set", LargeSetFamily(scale, scale, 4, 6), 8},
      {"small-set", SmallSetFamily(scale, 2 * scale, 64, 7), 64},
      {"graph", GraphNeighborhoods(scale, 24.0, 8), 48},
  };
  bench::Table table({"family", "alpha", "k", "|sets|", "true cov",
                      "greedy", "factor", "ok(<=1.5a)", "source", "mem_KB",
                      "sec"});
  for (auto& w : workloads) {
    uint64_t greedy = LazyGreedyMaxCover(w.inst.system, w.k).coverage;
    for (double alpha : {4.0, 8.0, 16.0}) {
      ReportMaxCover::Config rc;
      rc.params = Params::Practical(w.inst.system.num_sets(),
                                    w.inst.system.num_elements(), w.k, alpha);
      rc.seed = 4000 + static_cast<uint64_t>(alpha);
      ReportMaxCover rep(rc);
      VectorEdgeStream stream = w.inst.system.MakeStream(ArrivalOrder::kRandom, 3);
      Stopwatch sw;
      FeedStream(stream, rep);
      MaxCoverSolution sol = rep.Finalize();
      double sec = sw.ElapsedSeconds();
      uint64_t cov = w.inst.system.CoverageOf(sol.sets);
      double factor = cov > 0 ? static_cast<double>(greedy) / cov : -1;
      table.AddRow({w.name, bench::Fmt("%.0f", alpha),
                    bench::Fmt("%llu", (unsigned long long)w.k),
                    bench::Fmt("%zu", sol.sets.size()),
                    bench::Fmt("%llu", (unsigned long long)cov),
                    bench::Fmt("%llu", (unsigned long long)greedy),
                    bench::Fmt("%.2f", factor),
                    (factor > 0 && factor <= 1.5 * alpha) ? "yes" : "NO",
                    sol.source.c_str(),
                    bench::Fmt("%zu", rep.MemoryBytes() >> 10),
                    bench::Fmt("%.2f", sec)});
    }
  }
  table.Print();
  std::printf(
      "Reading: every row returns <= k real set ids whose true coverage is\n"
      "within ~alpha of greedy, in every structural family; tighter alpha\n"
      "costs more space (see bench_tradeoff) but buys a better factor.\n");
}

}  // namespace
}  // namespace streamkc

int main() {
  streamkc::ReportingQuality();
  return 0;
}
