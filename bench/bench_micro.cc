// Experiment E12 (DESIGN.md): throughput micro-benchmarks (google-benchmark)
// for every sketch primitive and the full pipeline's per-edge cost, plus two
// tables emitted as BENCH_micro.json for compare_bench.py: the hash-kernel
// table (MapFoldedBatch keys/s for each dispatchable kernel, scalar and
// avx2, at representative degrees) and the LargeSet table (ns/edge of one
// LargeSetComplete at ρ = 1 on a Zipf and a planted stream). The tables run
// before the google-benchmark suite so `--benchmark_filter=^$` yields a
// fast tables-only pass for the tier-1 perf smoke.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/estimate_max_cover.h"
#include "core/large_set.h"
#include "core/oracle.h"
#include "hash/kernel_dispatch.h"
#include "hash/kwise_hash.h"
#include "hash/tabulation_hash.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"
#include "runtime/edge_batch.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/l0_estimator.h"
#include "util/random.h"

namespace streamkc {
namespace {

void BM_KWiseHash(benchmark::State& state) {
  KWiseHash h(static_cast<uint32_t>(state.range(0)), 1);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Map(++x));
  }
}
BENCHMARK(BM_KWiseHash)->Arg(2)->Arg(4)->Arg(8)->Arg(48);

// Batched Horner through the runtime-dispatched kernel (whatever
// kernel_dispatch resolves: forced > STREAMKC_HASH_KERNEL > CPUID auto).
// The committed-baseline numbers live in the hash-kernel table instead;
// this entry exists for ad-hoc `--benchmark_filter=FoldedBatch` runs.
void BM_KWiseHashFoldedBatch(benchmark::State& state) {
  const size_t kBatch = 8192;
  KWiseHash h(static_cast<uint32_t>(state.range(0)), 1);
  Rng rng(7);
  std::vector<uint64_t> in(kBatch), out(kBatch);
  for (auto& v : in) {
    v = rng.Next() & ((1ull << 61) - 1);
    if (v >= kMersennePrime61) v -= kMersennePrime61;
  }
  for (auto _ : state) {
    h.MapFoldedBatch(in.data(), out.data(), kBatch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_KWiseHashFoldedBatch)->Arg(2)->Arg(4)->Arg(48);

void BM_TabulationHash(benchmark::State& state) {
  TabulationHash h(1);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Map(++x));
  }
}
BENCHMARK(BM_TabulationHash);

void BM_L0Add(benchmark::State& state) {
  L0Estimator l0({.num_mins = 64, .seed = 1});
  uint64_t x = 0;
  for (auto _ : state) {
    l0.Add(++x);
  }
  benchmark::DoNotOptimize(l0.Estimate());
}
BENCHMARK(BM_L0Add);

void BM_AmsF2Add(benchmark::State& state) {
  AmsF2Sketch f2({.rows = 5, .cols = 16, .seed = 1});
  uint64_t x = 0;
  for (auto _ : state) {
    f2.Add(++x % 1000);
  }
  benchmark::DoNotOptimize(f2.Estimate());
}
BENCHMARK(BM_AmsF2Add);

void BM_CountSketchAdd(benchmark::State& state) {
  CountSketch cs({.depth = 5,
                  .width = static_cast<uint32_t>(state.range(0)),
                  .seed = 1});
  uint64_t x = 0;
  for (auto _ : state) {
    cs.Add(++x % 4096);
  }
  benchmark::DoNotOptimize(cs.PointQuery(7));
}
BENCHMARK(BM_CountSketchAdd)->Arg(64)->Arg(1024)->Arg(16384);

void BM_F2HeavyHittersAdd(benchmark::State& state) {
  const F2HeavyHitters::Config cfg{
      .phi = 1.0 / static_cast<double>(state.range(0)), .seed = 1};
  const CountSketchRows rows(cfg.depth, SplitMix64(cfg.seed));
  F2HeavyHitters hh(cfg);
  uint64_t x = 0;
  for (auto _ : state) {
    hh.Add(rows, ++x % 4096);
  }
  benchmark::DoNotOptimize(hh.EstimateF2());
}
BENCHMARK(BM_F2HeavyHittersAdd)->Arg(16)->Arg(256);

void BM_OracleProcess(benchmark::State& state) {
  Params p = Params::Practical(1 << 12, 1 << 12, 32, 8);
  Oracle::Config oc;
  oc.params = p;
  oc.universe_size = 1 << 12;
  oc.seed = 1;
  Oracle oracle(oc);
  uint64_t x = 0;
  for (auto _ : state) {
    oracle.Process(Edge{x % 4096, (x * 2654435761u) % 4096});
    ++x;
  }
  benchmark::DoNotOptimize(oracle.MemoryBytes());
}
BENCHMARK(BM_OracleProcess);

void BM_EstimateMaxCoverProcess(benchmark::State& state) {
  Params p = Params::Practical(1 << 12, 1 << 12, 32,
                               static_cast<double>(state.range(0)));
  EstimateMaxCover::Config c;
  c.params = p;
  c.seed = 1;
  EstimateMaxCover est(c);
  uint64_t x = 0;
  for (auto _ : state) {
    est.Process(Edge{x % 4096, (x * 2654435761u) % 4096});
    ++x;
  }
  benchmark::DoNotOptimize(est.MemoryBytes());
}
BENCHMARK(BM_EstimateMaxCoverProcess)->Arg(4)->Arg(16)->Arg(64);

void BM_EndToEndPlanted(benchmark::State& state) {
  auto inst = PlantedCover(1024, 2048, 16, 0.5, 5, 1);
  std::vector<Edge> edges = inst.system.MaterializeEdges();
  for (auto _ : state) {
    EstimateMaxCover::Config c;
    c.params = Params::Practical(1024, 2048, 16, 8);
    c.seed = 1;
    EstimateMaxCover est(c);
    for (const Edge& e : edges) est.Process(e);
    benchmark::DoNotOptimize(est.Finalize().estimate);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_EndToEndPlanted)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Hash-kernel table: scalar vs avx2 MapFoldedBatch throughput per degree,
// measured through the SHIPPED path (KWiseHash::MapFoldedBatch, batch
// precondition scan included) with the kernel pinned via ForceHashKernel.
//
// Gating contract (compare_bench.py): the per-kernel `_eps` rows warn on
// drift like every throughput metric; `hash_kernel_ok` is the self-judging
// verdict — when the avx2 kernel is dispatchable it must beat scalar by the
// committed floor (SIMD speedup is arithmetic, not thread scaling, so it
// holds even on one core); when avx2 is not dispatchable (non-x86, or the
// -mno-avx2 CI leg) the floor is vacuous and ok stays 1, with the `_eps`
// rows reported as 0 so the baseline shape still matches.
// ---------------------------------------------------------------------------

// Best-of-3 wall-clock of `rounds` full-buffer MapFoldedBatch calls.
double MeasureKeysPerSecond(const KWiseHash& h, const std::vector<uint64_t>& in,
                            std::vector<uint64_t>* out, size_t rounds) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < rounds; ++r) {
      h.MapFoldedBatch(in.data(), out->data(), in.size());
    }
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    double eps = static_cast<double>(rounds * in.size()) / std::max(secs, 1e-9);
    best = std::max(best, eps);
  }
  return best;
}

uint64_t Checksum(const std::vector<uint64_t>& v) {
  uint64_t x = 0;
  for (uint64_t e : v) x ^= e + (x << 1);
  return x;
}

int RunHashKernelTable(bench::BenchReport& report) {
  using bench::Fmt;
  const bool small = bench::SmallScale();
  const size_t kKeys = 8192;
  const uint64_t base_total = small ? 4'000'000ull : 40'000'000ull;
  const double kFloor = 1.5;
  const bool avx2 = HashKernelAvailable(HashKernel::kAvx2);

  bench::Banner(
      "E12a: Mersenne hash kernels (MapFoldedBatch, runtime dispatch)",
      "batched Horner over GF(2^61-1) is multiply-bound; the AVX2 limb "
      "kernel must be bit-identical to scalar and >= 1.5x faster");

  report.SetConfig("hash_keys", static_cast<double>(kKeys));
  report.SetConfig("hash_base_total", static_cast<double>(base_total));

  Rng rng(20260809);
  std::vector<uint64_t> in(kKeys), out(kKeys);
  for (auto& v : in) {
    v = rng.Next() & ((1ull << 61) - 1);
    if (v >= kMersennePrime61) v -= kMersennePrime61;
  }

  bench::Table table({"degree", "scalar keys/s", "avx2 keys/s", "speedup",
                      "bit-identical"});
  double max_speedup = 0;
  for (uint32_t d : {2u, 4u, 48u}) {
    KWiseHash h(d, 1234);
    // Fixed per-degree work: Horner cost is (d-1) multiplies per key, so
    // scale the key count by 2/d to keep each row's wall-clock comparable.
    const size_t target =
        std::max<uint64_t>(kKeys, base_total * 2 / std::max(d, 2u));
    const size_t rounds = std::max<size_t>(1, target / kKeys);

    ForceHashKernel(HashKernel::kScalar);
    h.MapFoldedBatch(in.data(), out.data(), kKeys);  // warm up
    double scalar_eps = MeasureKeysPerSecond(h, in, &out, rounds);
    const uint64_t scalar_sum = Checksum(out);

    double avx2_eps = 0;
    bool identical = true;
    if (avx2) {
      ForceHashKernel(HashKernel::kAvx2);
      h.MapFoldedBatch(in.data(), out.data(), kKeys);
      avx2_eps = MeasureKeysPerSecond(h, in, &out, rounds);
      identical = Checksum(out) == scalar_sum;
    }
    ResetHashKernel();

    const double speedup = scalar_eps > 0 ? avx2_eps / scalar_eps : 0;
    max_speedup = std::max(max_speedup, speedup);
    table.AddRow({Fmt("%u", d), Fmt("%.2fM", scalar_eps / 1e6),
                  avx2 ? Fmt("%.2fM", avx2_eps / 1e6) : "n/a",
                  avx2 ? Fmt("%.2fx", speedup) : "n/a",
                  identical ? "yes" : "NO"});
    report.SetMetric(Fmt("hash_d%u_scalar_eps", d), scalar_eps);
    report.SetMetric(Fmt("hash_d%u_avx2_eps", d), avx2_eps);
    report.SetMetric(Fmt("hash_d%u_speedup", d), speedup);
    if (!identical) {
      std::printf("BIT-IDENTITY VIOLATION at degree %u\n", d);
      return 1;
    }
  }
  table.Print();

  // Self-judging speedup gate, keyed on the best degree: low degrees are
  // load/store-bound so the SIMD win concentrates where Horner dominates.
  const bool ok = !avx2 || max_speedup >= kFloor;
  std::printf(
      "\nactive kernel (auto): %s; avx2 dispatchable: %s; best speedup "
      "%.2fx (floor %.1fx) -> %s\n",
      HashKernelName(ActiveHashKernel()), avx2 ? "yes" : "no", max_speedup,
      kFloor, ok ? "ok" : "REGRESSION");
  report.SetMetric("hash_kernel_avx2_available", avx2 ? 1 : 0);
  report.SetMetric("hash_kernel_speedup", max_speedup);
  report.SetMetric("hash_kernel_floor", kFloor);
  report.SetMetric("hash_kernel_ok", ok ? 1 : 0);
  if (!ok) {
    std::printf("HASH KERNEL SPEEDUP BELOW FLOOR\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// LargeSet table: one LargeSetComplete at the saturated guess z = 2^8 of the
// perfbench config (Params::Practical(4096, 2^20, 16, 8), ρ = 1, w = α), fed
// the first `edges` shuffled edges of a serve_fresh-like Zipf instance and
// of an ingest_bulk-like planted instance in 4096-edge ProcessBatch calls,
// elements reduced into [z] as universe reduction would. Best of 3 fresh
// repetitions; construction and Finalize are excluded. Informational rows,
// no gate.
// ---------------------------------------------------------------------------

double LargeSetNsPerEdge(const std::vector<Edge>& edges) {
  constexpr uint64_t kZ = 256;
  constexpr size_t kBatch = 4096;
  LargeSetComplete::Config cfg;
  cfg.params = Params::Practical(4096, 1 << 20, 16, 8);
  cfg.universe_size = kZ;
  cfg.w = 8;
  cfg.element_rate = 1.0;
  cfg.reporting = true;
  cfg.seed = 17;
  std::vector<EdgeBatch> batches;
  for (size_t i = 0; i < edges.size(); i += kBatch) {
    EdgeBatch batch;
    for (size_t j = i; j < std::min(edges.size(), i + kBatch); ++j) {
      batch.edges.push_back(Edge{edges[j].set, SplitMix64(edges[j].element) % kZ});
    }
    batch.Prefold();
    batches.push_back(std::move(batch));
  }
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    LargeSetComplete ls(cfg);
    auto t0 = std::chrono::steady_clock::now();
    for (const EdgeBatch& batch : batches) ls.ProcessBatch(batch.View());
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(ls.Finalize().estimate);
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(edges.size());
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

void RunLargeSetTable(bench::BenchReport& report) {
  using bench::Fmt;
  const size_t edges = bench::SmallScale() ? size_t{1} << 16 : size_t{1} << 18;
  bench::Banner("E12b: LargeSet ingest (one LargeSetComplete, rho = 1)",
                "per-superset counting with windowed heavy-hitter admission; "
                "ns/edge over the first edges of a Zipf and a planted stream");
  report.SetConfig("large_set_edges", static_cast<double>(edges));
  bench::Table table({"stream", "edges", "ns/edge"});
  const std::pair<const char*, GeneratedInstance> streams[] = {
      {"zipf", ZipfFrequency(4096, 1 << 20, 256, 1.0, 1)},
      {"planted", PlantedCover(4096, 1 << 20, 16, 0.5, 16, 1)},
  };
  for (const auto& [name, inst] : streams) {
    std::vector<Edge> all = inst.system.MaterializeEdges();
    ApplyArrivalOrder(all, ArrivalOrder::kRandom, 2);
    all.resize(std::min(all.size(), edges));
    const double ns = LargeSetNsPerEdge(all);
    table.AddRow({name, Fmt("%zu", all.size()), Fmt("%.1f", ns)});
    report.SetMetric(Fmt("large_set_%s_ns_per_edge", name), ns);
  }
  table.Print();
}

}  // namespace

int MicroMain(int argc, char** argv) {
  std::string bench_out = bench::BenchOutPath(argc, argv);
  bench::BenchReport report("micro", bench::SmallScale() ? "small" : "full");
  report.SetNote("hash-kernel and LargeSet tables; hash _eps rows are 0 when "
                 "avx2 is not dispatchable on the runner");
  int rc = RunHashKernelTable(report);
  if (rc != 0) return rc;
  RunLargeSetTable(report);
  report.Write(bench_out);

  // Strip the harness-local flag before handing argv to google-benchmark
  // (it rejects unrecognized flags).
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-out") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace streamkc

int main(int argc, char** argv) { return streamkc::MicroMain(argc, argv); }
