// Experiments E1 + E2 (DESIGN.md): the headline space/approximation
// trade-off of Theorems 3.1 / 3.3 — estimating Max k-Cover to factor α in
// Θ̃(m/α²) space, for α across (Õ(1), Ω̃(√m)].
//
// Part A sweeps α at fixed m and reports (i) the achieved approximation
// ratio OPT/estimate (must stay ≤ Õ(α) and ≥ 1) and (ii) the measured sketch
// footprint against the m/α² reference curve: the ratio bytes/(m/α²) should
// flatten to a constant (× polylog) as α grows, while bytes/m and
// bytes/(m/α) keep drifting — the α-exponent of the law is 2.
//
// Part B sweeps m at fixed α: footprint should grow ~linearly in m.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/estimate_max_cover.h"
#include "obs/space_accountant.h"
#include "offline/greedy.h"
#include "runtime/feed_stream.h"
#include "setsys/generators.h"
#include "util/stopwatch.h"

namespace streamkc {
namespace {

struct RunResult {
  double estimate = 0;
  size_t bytes = 0;
  size_t hh_bytes = 0;  // heavy-hitter component (carries the m/alpha^2 term)
  double seconds = 0;
  std::string source;
};

RunResult RunEstimator(const SetSystem& sys, uint64_t k, double alpha,
                       uint64_t seed) {
  EstimateMaxCover::Config c;
  c.params = Params::Practical(sys.num_sets(), sys.num_elements(), k, alpha);
  c.seed = seed;
  EstimateMaxCover est(c);
  VectorEdgeStream stream = sys.MakeStream(ArrivalOrder::kRandom, seed);
  Stopwatch sw;
  FeedStream(stream, est);
  // Publish the run's per-component space breakdown into the global
  // registry so --metrics-out captures the last configuration's footprint.
  SpaceAccountant acct(&MetricsRegistry::Global());
  acct.Sample(est);
  EstimateOutcome out = est.Finalize();
  return {out.estimate, est.MemoryBytes(),
          est.trivial_mode() ? 0 : est.HeavyHitterComponentBytes(),
          sw.ElapsedSeconds(), out.source};
}

void PartA_AlphaSweep() {
  bench::Banner(
      "E1/E2 part A: approximation vs space across alpha (fixed m)",
      "space Theta~(m/alpha^2); estimate within factor alpha of OPT "
      "(Table 1 row 'Estimation / Edge Arrival / alpha')");
  const uint64_t m = bench::SmallScale() ? 1024 : 4096;
  const uint64_t n = 2 * m;
  const uint64_t k = 32;
  auto inst = PlantedCover(m, n, k, 0.5, 6, /*seed=*/7);
  double opt = static_cast<double>(inst.planted_coverage);

  bench::Table table({"alpha", "estimate", "OPT", "ratio(OPT/est)", "ok(<=alpha)",
                      "total_KB", "HH_KB", "HH/(m/a^2)", "sec"});
  for (double alpha : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    if (alpha > std::sqrt(static_cast<double>(m)) + 1) break;
    RunResult r = RunEstimator(inst.system, k, alpha, 1000 + alpha);
    double ratio = r.estimate > 0 ? opt / r.estimate : -1;
    double ma2 = static_cast<double>(m) / (alpha * alpha);
    table.AddRow({bench::Fmt("%.0f", alpha), bench::Fmt("%.0f", r.estimate),
                  bench::Fmt("%.0f", opt), bench::Fmt("%.2f", ratio),
                  ratio <= alpha * 2.0 && ratio >= 0.8 ? "yes" : "NO",
                  bench::Fmt("%zu", r.bytes >> 10),
                  bench::Fmt("%zu", r.hh_bytes >> 10),
                  bench::Fmt("%.0f", static_cast<double>(r.hh_bytes) / ma2),
                  bench::Fmt("%.2f", r.seconds)});
  }
  table.Print();
  std::printf(
      "Reading: ratio stays within ~alpha (the guarantee). HH_KB (the\n"
      "heavy-hitter component) falls steeply with alpha — its width-Θ(m/a²)\n"
      "CountSketches shrink quadratically until the alpha-independent\n"
      "polylog floor (φ2 sketches + superset pool) takes over; the total\n"
      "additionally carries O~(k) state. At laptop-scale m the polylog\n"
      "floor is visible; bench_lower_bound part C isolates the pure m/a²\n"
      "sketch and shows bytes·a²/m ≈ const, the textbook-clean law.\n");
}

void PartB_MSweep() {
  bench::Banner("E1 part B: space vs m (fixed alpha = 8)",
                "space grows ~linearly in m at fixed alpha");
  const double alpha = 8;
  const uint64_t k = 32;
  bench::Table table({"m", "sketch_KB", "bytes/m", "ratio(est)", "sec"});
  uint64_t max_m = bench::SmallScale() ? 4096 : 16384;
  for (uint64_t m = 1024; m <= max_m; m *= 2) {
    auto inst = PlantedCover(m, 2 * m, k, 0.5, 6, /*seed=*/9);
    RunResult r = RunEstimator(inst.system, k, alpha, 2000 + m);
    double opt = static_cast<double>(inst.planted_coverage);
    table.AddRow({bench::Fmt("%llu", static_cast<unsigned long long>(m)),
                  bench::Fmt("%zu", r.bytes >> 10),
                  bench::Fmt("%.1f", static_cast<double>(r.bytes) /
                                         static_cast<double>(m)),
                  bench::Fmt("%.2f", r.estimate > 0 ? opt / r.estimate : -1),
                  bench::Fmt("%.2f", r.seconds)});
  }
  table.Print();
  std::printf(
      "Reading: bytes/m roughly stabilizes as m grows — the footprint is\n"
      "linear in m at fixed alpha, as Theta~(m/alpha^2) predicts.\n");
}

}  // namespace
}  // namespace streamkc

int main(int argc, char** argv) {
  // Resolve (and writability-probe) the metrics sink before the sweeps: an
  // unwritable path must fail before the experiment runs, not after.
  const std::string metrics_out = streamkc::bench::MetricsOutPath(argc, argv);
  streamkc::PartA_AlphaSweep();
  streamkc::PartB_MSweep();
  streamkc::bench::DumpMetricsJson(metrics_out);
  return 0;
}
