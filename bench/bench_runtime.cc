// Thread-scaling curve for the sharded ingestion runtime (src/runtime).
//
// Workload: CoverageSketchState (KMV + HLL + AMS per edge — the trivial-
// branch per-edge work profile) over a synthesized edge stream, at shard
// counts {1, 2, 4, 8}. Reports edges/s, speedup vs the in-line single-
// threaded pass, producer stall counts and sketch space (per-shard sum vs
// merged), and verifies the deterministic-merge contract on every row.
// A second table scales the multi-producer front-end the CLI's
// --producers runs (P∈{1,2,4,8} producers each parsing one segment of a
// text file the bench writes once, into 2 shards of a state cheap enough
// that parsing bounds the pass) and gates the speedup of the most
// producers the host runs at once against a hardware-aware floor
// (producer_scaling_ok). A third table
// scales the multi-PROCESS reduction tree (src/dist, W∈{1,2,4} forked
// workers; 8 at full scale) over the same edges, requires the merged
// state to serialize bit-identical to the in-line batched pass, and gates
// the top-W speedup the same way (worker_scaling_ok). The rows those two
// gates read are each the median of kGatedPasses passes, every pass
// checked for determinism: one pass on a shared host reads a slow moment
// as a regression.
//
// NOTE on reading the speedup column: shard workers are real OS threads, so
// the curve only rises on hardware with that many physical cores. On a
// single-core host every configuration time-slices one core and the pipeline
// overhead (queue hand-off, context switches) makes speedup ≈ 1 or below —
// the determinism and stall columns are still meaningful there. Record
// curves from multi-core hardware in EXPERIMENTS.md.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>
#include <filesystem>

#include "bench_util.h"
#include "core/estimate_max_cover.h"
#include "dist/process_tree.h"
#include "runtime/edge_batch.h"
#include "runtime/sharded_pipeline.h"
#include "runtime/sketch_states.h"
#include "stream/edge_stream.h"
#include "stream/text_stream.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace streamkc {
namespace {

using bench::Fmt;
using bench::Table;

// Passes per producer and worker row; the row reports their median.
constexpr int kGatedPasses = 3;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::vector<Edge> SynthesizeEdges(size_t count, uint64_t seed) {
  // Zipf-ish element skew via a double hash keeps the distinct structure
  // realistic without materializing a set system at this scale.
  std::vector<Edge> edges;
  edges.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = SplitMix64(seed + i);
    edges.push_back(
        Edge{h % (1u << 16), SplitMix64(h) % (1u << 22)});
  }
  return edges;
}

int Main(int argc, char** argv) {
  // Resolve (and writability-probe) the metrics sink up front: an
  // unwritable path must fail before the experiment runs, not after.
  const std::string metrics_out = bench::MetricsOutPath(argc, argv);
  const std::string bench_out = bench::BenchOutPath(argc, argv);
  const size_t num_edges = bench::SmallScale() ? 1'000'000 : 10'000'000;
  constexpr uint32_t kBatchSize = 8192;
  bench::BenchReport report("runtime", bench::SmallScale() ? "small" : "full");
  report.SetConfig("num_edges", static_cast<double>(num_edges));
  report.SetConfig("batch_size", kBatchSize);
  report.SetConfig("gated_row_passes", kGatedPasses);
  bench::Banner(
      "Runtime thread scaling: sharded ingestion + mergeable-sketch reduction",
      "mergeable sketches admit embarrassingly parallel ingestion; the "
      "merged state is deterministic and equals the 1-thread state");
  std::printf("edges: %zu, hardware threads: %u\n\n", num_edges,
              std::thread::hardware_concurrency());

  std::vector<Edge> edges = SynthesizeEdges(num_edges, 7);
  CoverageSketchState::Config cfg;

  // In-line single-threaded reference, per-edge Process() path (no pipeline
  // machinery, no batching): the pre-batching cost model.
  Stopwatch sw;
  CoverageSketchState reference(cfg);
  for (const Edge& e : edges) reference.Process(e);
  double base_s = sw.ElapsedSeconds();
  double base_eps = static_cast<double>(num_edges) / base_s;
  double ref_l0 = reference.covered_l0.Estimate();
  double ref_hll = reference.covered_hll.Estimate();
  std::printf("in-line per-edge reference: %.2fM edges/s (%.2fs)\n",
              base_eps / 1e6, base_s);
  report.SetMetric("inline_per_edge_eps", base_eps);

  // In-line single-threaded BATCHED pass: same state, fed through the
  // EdgeBatch prefold + ProcessBatch entry — isolates the hash-once +
  // interleaved-Horner win from any threading effect. The estimates must be
  // bit-identical to the per-edge pass (same seeds, same admission order).
  sw.Restart();
  CoverageSketchState batched(cfg);
  {
    EdgeBatch batch;
    for (size_t i = 0; i < num_edges; i += kBatchSize) {
      size_t m = std::min<size_t>(kBatchSize, num_edges - i);
      batch.Clear();
      batch.edges.assign(edges.begin() + i, edges.begin() + i + m);
      batch.Prefold();
      batched.ProcessBatch(batch.View());
    }
  }
  double batch_s = sw.ElapsedSeconds();
  double batch_eps = static_cast<double>(num_edges) / batch_s;
  bool batch_identical = batched.covered_l0.Estimate() == ref_l0 &&
                         batched.covered_hll.Estimate() == ref_hll;
  std::printf(
      "in-line batched:            %.2fM edges/s (%.2fs)  %.2fx vs per-edge  "
      "identical estimates: %s\n\n",
      batch_eps / 1e6, batch_s, batch_eps / base_eps,
      batch_identical ? "yes" : "NO");
  if (!batch_identical) {
    std::printf("BATCH/PER-EDGE DIVERGENCE in single-threaded pass\n");
    return 1;
  }
  report.SetMetric("inline_batched_eps", batch_eps);
  report.SetMetric("inline_batch_speedup", batch_eps / base_eps);

  Table table({"shards", "edges/s", "speedup", "stalls", "shard KiB",
               "merged KiB", "deterministic"});
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedPipelineOptions opts;
    opts.num_shards = shards;
    opts.batch_size = kBatchSize;
    ShardedPipeline<CoverageSketchState> pipe(
        opts, [&](uint32_t) { return CoverageSketchState(cfg); });
    VectorEdgeStream stream(edges);
    CoverageSketchState merged = pipe.Run(stream);
    const RuntimeMetrics& m = pipe.metrics();
    m.PublishTo(&MetricsRegistry::Global());  // last shard count wins
    double eps = m.EdgesPerSecond();
    // The contract every row must keep: merged estimates equal the in-line
    // single-threaded ones exactly (same seeds, union/linear reductions).
    bool deterministic = merged.covered_l0.Estimate() == ref_l0 &&
                         merged.covered_hll.Estimate() == ref_hll;
    table.AddRow({Fmt("%u", shards), Fmt("%.2fM", eps / 1e6),
                  Fmt("%.2fx", eps / base_eps),
                  Fmt("%llu", (unsigned long long)m.queue_full_stalls.load()),
                  Fmt("%llu", (unsigned long long)(m.TotalStateBytes() >> 10)),
                  Fmt("%llu",
                      (unsigned long long)(m.merged_state_bytes.load() >> 10)),
                  deterministic ? "yes" : "NO"});
    report.SetMetric(Fmt("sharded_%u_eps", shards), eps);
    report.SetMetric(Fmt("sharded_%u_speedup", shards), eps / base_eps);
    if (!deterministic) {
      std::printf("DETERMINISM VIOLATION at %u shards\n", shards);
      return 1;
    }
  }
  report.SetMetric("deterministic", 1);
  table.Print();
  std::printf(
      "\nSpeedup is bounded by physical cores; per-shard space is constant "
      "(seed-coordinated replicas), so total space grows linearly with "
      "shards until the fold collapses it back to one sketch.\n");

  // Producer scaling: the multi-producer front-end as CLI --producers runs
  // it. The edges go to a text file once; P producers each parse one
  // newline-aligned segment of it (SegmentedTextStream) into the P×2 ring
  // lattice. The state is Figure 1's trivial branch (kα ≥ m: one L0 per
  // shard), cheap enough that parsing bounds the pass, so the rows measure
  // the producers. Determinism must hold on every row: the merged estimate
  // is a multiset function, independent of P.
  std::printf("\n");
  constexpr uint32_t kProducerShards = 2;
  EstimateMaxCover::Config trivial_cfg;
  trivial_cfg.params = Params::Practical(1u << 16, 1u << 22, 256, 256);
  trivial_cfg.seed = 5;
  double trivial_ref = 0;
  {
    EstimateMaxCover st(trivial_cfg);
    if (!st.trivial_mode()) {
      std::printf("PRODUCER ROWS NEED THE TRIVIAL BRANCH\n");
      return 1;
    }
    EdgeBatch batch;
    for (size_t i = 0; i < num_edges; i += kBatchSize) {
      size_t m = std::min<size_t>(kBatchSize, num_edges - i);
      batch.Clear();
      batch.edges.assign(edges.begin() + i, edges.begin() + i + m);
      batch.Prefold();
      st.ProcessBatch(batch.View());
    }
    trivial_ref = st.Finalize().estimate;
  }
  const char* tmp = std::getenv("TMPDIR");
  std::string dir_template = std::string(tmp != nullptr && *tmp != '\0'
                                             ? tmp
                                             : "/tmp") +
                             "/bench_runtime_XXXXXX";
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::printf("cannot create a temporary directory\n");
    return 1;
  }
  const std::filesystem::path text_dir(dir_template);
  const std::string text_path = (text_dir / "edges.txt").string();
  WriteEdgesToFile(text_path, edges);
  Table ptable({"producers", "median edges/s", "speedup", "stalls (all)",
                "recycled (all)", "deterministic"});
  const uint32_t hc = std::thread::hardware_concurrency();
  // The gated row: the most producers this host runs at once, or all 8 on
  // one core (or an unknown count), where the gate checks that 8
  // time-sliced producers do not collapse the pass.
  const uint32_t gate_at = hc >= 2 ? hc : 8;
  uint32_t gated_producers = 1;
  double producers_1_eps = 0;
  double gated_eps = 0;
  for (uint32_t producers : {1u, 2u, 4u, 8u}) {
    std::vector<double> pass_eps;
    unsigned long long stalls = 0, recycled = 0;
    bool deterministic = true;
    for (int pass = 0; pass < kGatedPasses && deterministic; ++pass) {
      ShardedPipelineOptions opts;
      opts.num_shards = kProducerShards;
      opts.num_producers = producers;
      opts.batch_size = kBatchSize;
      ShardedPipeline<EstimateMaxCover> pipe(
          opts, [&](uint32_t) { return EstimateMaxCover(trivial_cfg); });
      SegmentedTextStream segments(text_path, producers);
      EstimateMaxCover merged = pipe.RunSegmented(
          [&](uint32_t p) { return segments.OpenSegment(p); });
      const RuntimeMetrics& m = pipe.metrics();
      pass_eps.push_back(m.EdgesPerSecond());
      stalls += m.queue_full_stalls.load();
      recycled += m.TotalBatchesRecycled();
      deterministic = merged.Finalize().estimate == trivial_ref &&
                      m.TotalShardEdges() == num_edges;
    }
    if (!deterministic) {
      std::filesystem::remove_all(text_dir);
      std::printf("DETERMINISM VIOLATION at %u producers\n", producers);
      return 1;
    }
    const double eps = Median(pass_eps);
    ptable.AddRow({Fmt("%ux%u", producers, kProducerShards),
                   Fmt("%.2fM", eps / 1e6), Fmt("%.2fx", eps / base_eps),
                   Fmt("%llu", stalls), Fmt("%llu", recycled), "yes"});
    report.SetMetric(Fmt("producers_%u_eps", producers), eps);
    if (producers == 1) producers_1_eps = eps;
    if (producers <= gate_at) {
      gated_producers = producers;
      gated_eps = eps;
    }
  }
  std::filesystem::remove_all(text_dir);
  ptable.Print();

  // Hardware-aware scaling gate on the most producers the host runs at
  // once (all 8 on 8+ hardware threads, 4 on 4, 2 on 2 or 3). Parsing
  // bounds these rows, so the speedup is there to see below 8 threads too.
  // One core time-slices every thread: there 8 producers against 1 keep
  // the 0.4x don't-collapse floor they always had. compare_bench.py
  // hard-fails any committed *_ok metric that is not 1.
  const double scaling_floor =
      hc >= 8 ? 4.0 : hc >= 4 ? 1.8 : hc >= 2 ? 0.8 : 0.4;
  const double producer_scaling =
      producers_1_eps > 0 ? gated_eps / producers_1_eps : 0.0;
  const bool scaling_ok = producer_scaling >= scaling_floor;
  std::printf(
      "\n%u-producer scaling vs 1-producer (%u shards): %.2fx "
      "(floor %.1fx on %u hardware threads) -> %s\n",
      gated_producers, kProducerShards, producer_scaling, scaling_floor, hc,
      scaling_ok ? "ok" : "REGRESSION");
  report.SetMetric("producer_scaling", producer_scaling);
  report.SetMetric("producer_scaling_floor", scaling_floor);
  report.SetMetric("producer_scaling_ok", scaling_ok ? 1 : 0);
  if (!scaling_ok) {
    std::printf("PRODUCER SCALING BELOW FLOOR\n");
    return 1;
  }

  // Worker-process scaling: the multi-process reduction tree (src/dist) at
  // W forked workers over a 16-segment span split of the same edges (the
  // in-memory analogue of the CLI's file split; segments are shared
  // copy-on-write after fork). The contract is stronger than the thread
  // rows': the merged state must serialize BIT-IDENTICAL to the
  // in-line batched pass, not just estimate-equal — states cross a process
  // boundary here, so representation drift would hide behind equal
  // estimates.
  std::printf("\n");
  std::string inline_blob;
  {
    std::ostringstream os;
    batched.Save(os);
    inline_blob = os.str();
  }
  constexpr uint32_t kDistSegments = 16;
  std::vector<uint32_t> worker_counts = {1, 2, 4};
  if (!bench::SmallScale()) worker_counts.push_back(8);
  Table wtable({"workers", "median edges/s", "speedup", "shipped KiB",
                "bit-identical"});
  double workers_1_eps = 0;
  double workers_max_eps = 0;
  uint32_t workers_max = 0;
  for (uint32_t workers : worker_counts) {
    std::vector<double> pass_eps;
    unsigned long long shipped = 0;
    for (int pass = 0; pass < kGatedPasses; ++pass) {
      DistOptions opts;
      opts.num_workers = workers;
      opts.batch_size = kBatchSize;
      ProcessReductionTree<CoverageSketchState> tree(
          opts, [&](uint32_t) { return CoverageSketchState(cfg); });
      CoverageSketchState merged = tree.Run(kDistSegments, [&](uint32_t s) {
        return MakeEdgeSpanSegment(edges, s, kDistSegments);
      });
      const DistMetrics& dm = tree.metrics();
      pass_eps.push_back(dm.EdgesPerSecond());
      shipped = dm.TotalBytesShipped();
      std::ostringstream os;
      merged.Save(os);
      if (os.str() != inline_blob) {
        std::printf("SERIALIZED-STATE DIVERGENCE at %u workers\n", workers);
        return 1;
      }
    }
    const double eps = Median(pass_eps);
    wtable.AddRow({Fmt("%u", workers), Fmt("%.2fM", eps / 1e6),
                   Fmt("%.2fx", eps / base_eps), Fmt("%llu", shipped >> 10),
                   "yes"});
    report.SetMetric(Fmt("workers_%u_eps", workers), eps);
    if (workers == 1) workers_1_eps = eps;
    if (workers >= workers_max) {
      workers_max = workers;
      workers_max_eps = eps;
    }
  }
  wtable.Print();
  report.SetMetric("dist_deterministic", 1);

  // Same hardware-aware gate shape as the producer table, with a lower
  // ceiling: each worker pays fork + full-state serialization + the merge
  // fold, so even on big hosts the curve sits under the thread curve. On
  // <4-core hosts the floor degrades to not-collapsed.
  const double worker_floor = hc >= 8 ? 2.5 : hc >= 4 ? 1.5 : hc >= 2 ? 0.8
                                                                      : 0.3;
  const double worker_scaling =
      workers_1_eps > 0 ? workers_max_eps / workers_1_eps : 0.0;
  const bool worker_ok = worker_scaling >= worker_floor;
  std::printf(
      "\n%u-worker scaling vs 1-worker (process tree): %.2fx "
      "(floor %.1fx on %u hardware threads) -> %s\n",
      workers_max, worker_scaling, worker_floor, hc,
      worker_ok ? "ok" : "REGRESSION");
  report.SetMetric("worker_scaling", worker_scaling);
  report.SetMetric("worker_scaling_floor", worker_floor);
  report.SetMetric("worker_scaling_ok", worker_ok ? 1 : 0);
  if (!worker_ok) {
    std::printf("WORKER SCALING BELOW FLOOR\n");
    return 1;
  }

  bench::DumpMetricsJson(metrics_out);
  report.Write(bench_out);
  return 0;
}

}  // namespace
}  // namespace streamkc

int main(int argc, char** argv) { return streamkc::Main(argc, argv); }
