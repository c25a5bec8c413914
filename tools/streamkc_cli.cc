// streamkc command-line tool: run the paper's algorithms on edge files.
//
//   streamkc_cli generate --family planted --m 2048 --n 4096 --k 32
//                --seed 1 --out edges.txt
//   streamkc_cli stats    edges.txt
//   streamkc_cli estimate edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//   streamkc_cli estimate edges.txt --m 2048 --n 4096 --k 32 --budget-kb 512
//   streamkc_cli estimate edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//                --threads 8 --metrics-out metrics.json
//   streamkc_cli report   edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//   streamkc_cli twopass  edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//
// Input format: one "set element" pair per line ('#' comments allowed), any
// order — the general edge-arrival model. `estimate`/`report` are single
// pass; `twopass` reads the file twice for a narrower sketch.
//
// --threads N runs estimate/report through the sharded runtime pipeline
// (src/runtime): N seed-coordinated replicas ingest disjoint substreams and
// are folded with Merge() at end of stream. The result is deterministic and
// matches the single-threaded answer on the same seed. --partition picks
// the routing key and so needs --threads. Inline passes read the file
// through FeedStream in --batch-size batches.
//
// --producers P (estimate/report with --threads >= 1) additionally splits
// the input file into P newline-aligned segments and parses/routes them
// from P producer threads (SegmentedTextStream + the pipeline's P×N ring
// lattice) — the fix for ingest being bound by a single parser thread. The
// merged answer is unchanged: routing is a pure per-edge function, so each
// shard sees the same multiset regardless of P.
//
// --metrics-out FILE|- dumps the run's observability snapshot (runtime
// counters, space breakdown, metrics registry); --metrics-format json
// (default, a superset of the original RuntimeMetrics schema) or
// prometheus (text exposition format). Works with and without --threads.
//
// --fault-plan=SPEC (estimate/report with --threads >= 1) runs the pass
// under deterministic fault injection (src/fault): transient read errors,
// duplicate/garbage/reordered edges, push delays, shard slowdowns, worker
// death and merge corruption, per the spec grammar in fault_plan.h. The
// pipeline degrades per its policy (bounded retry, shard quarantine) and
// the quarantined fraction is reported with the estimate; --fault-strict
// turns any degradation into a hard failure. Same SPEC = same faults =
// same answer — failures replay from the printed spec.
//
// `serve` is the long-running mode (src/serve): the pass ingests the file
// in segments of --snapshot-every edges, publishing an immutable coverage
// snapshot into a one-slot store at every boundary, while --query-threads
// reader threads answer EstimateMaxCover / ReportMaxCover / per-set
// coverage queries against the current snapshot the whole time. Every
// answer carries staleness metadata (epoch, edges ingested, snapshot age).
// --threads T >= 2 runs the estimator's (guess, repetition) levels on T
// threads, the ingest thread plus T - 1 helpers; every level still reads
// every edge in order, so the answers are the inline ones. --fault-plan
// takes stream faults only (read-error, dup, reorder, garbage), at any
// --threads: a stream that spends its retry budget prints "fault: stream
// truncated", or exits 1 under --fault-strict. --partition does not apply.
// --metrics-out gains a "serving" section.
//
// `sketch` is the multi-process mode (src/dist): --workers W forks W
// worker processes, each ingesting a disjoint block of the file's
// newline-aligned segments into a CoverageSketchState and shipping its
// serialized state over a pipe (CRC-framed); the coordinator folds the
// states in worker order. The merged result is byte-identical to
// --workers 0 (the inline pass). --checkpoint-every N
// (with --checkpoint-dir) makes workers checkpoint every N committed
// segments, so a worker killed mid-stream (crash or kill-shard fault)
// respawns and resumes instead of re-ingesting its block. --fault-plan
// gains kill-shard/corrupt-merge/corrupt-frame semantics at process scope;
// --metrics-out gains a "dist" section.
//
// Malformed input lines stop the run with a file:line error by default;
// --lenient skips and counts them instead.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/estimate_max_cover.h"
#include "core/report_max_cover.h"
#include "core/two_pass.h"
#include "dist/process_tree.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_stream.h"
#include "hash/kernel_dispatch.h"
#include "obs/metrics.h"
#include "obs/space_accountant.h"
#include "runtime/edge_batch.h"
#include "runtime/feed_stream.h"
#include "runtime/metrics_export.h"
#include "runtime/sharded_pipeline.h"
#include "runtime/sketch_states.h"
#include "serve/query_engine.h"
#include "serve/serving_runtime.h"
#include "serve/snapshot_store.h"
#include "setsys/generators.h"
#include "stream/stream_stats.h"
#include "stream/text_stream.h"
#include "util/stopwatch.h"

namespace streamkc {
namespace {

struct Args {
  std::string command;
  std::string file;
  uint64_t m = 0, n = 0, k = 0, seed = 1;
  double alpha = 8;
  size_t budget_kb = 0;
  std::string family = "planted";
  std::string out;
  // 0 = in-line pass; N ≥ 1 = sharded runtime (serve: N ≥ 2 ingest threads)
  uint64_t threads = 0;
  uint64_t producers = 1;  // parallel ingest front-end width (needs --threads)
  bool producers_set = false;
  size_t batch_size = 4096;
  std::string partition = "element";  // routing key: element | set
  bool partition_set = false;
  std::string metrics_out;            // metrics dump sink ("-" = stdout)
  std::string metrics_format = "json";  // json | prometheus
  bool lenient = false;  // skip+count malformed input lines instead of failing
  std::string fault_plan;     // fault_plan.h spec; empty = no injection
  bool fault_strict = false;  // degradation aborts instead of quarantining
  std::string hash_kernel;    // scalar | avx2; empty = env/CPUID dispatch
  // Serve-mode knobs (rejected outside the serve command).
  uint64_t snapshot_every = 65536;  // edges per snapshot segment
  uint64_t query_threads = 2;       // concurrent reader threads
  bool snapshot_every_set = false;
  bool query_threads_set = false;
  bool metrics_format_set = false;
  // Sketch-mode (multi-process) knobs; rejected outside the sketch command.
  uint64_t workers = 0;          // 0 = inline pass, W >= 1 = W processes
  uint64_t checkpoint_every = 0; // committed segments per checkpoint; 0 = off
  std::string checkpoint_dir;
  uint64_t segments = 0;         // file segments; 0 = 4 per worker
  bool workers_set = false;
  bool checkpoint_every_set = false;
  bool segments_set = false;
};

[[noreturn]] void Usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  streamkc_cli generate --family planted|random|zipf|graph"
               " --m M --n N --k K [--seed S] --out FILE\n"
               "  streamkc_cli stats FILE [--lenient]\n"
               "  streamkc_cli estimate FILE --m M --n N --k K"
               " (--alpha A | --budget-kb B) [--seed S]\n"
               "           [--threads T] [--producers P] [--batch-size B]"
               " [--partition element|set] [--lenient]\n"
               "           [--metrics-out FILE|-]"
               " [--metrics-format json|prometheus]\n"
               "           [--fault-plan SPEC] [--fault-strict]"
               "   (fault injection; needs --threads >= 1)\n"
               "           [--hash-kernel scalar|avx2]"
               "   (pin the field-hash kernel; default: CPUID dispatch,\n"
               "            overridable via STREAMKC_HASH_KERNEL)\n"
               "  streamkc_cli report  FILE --m M --n N --k K --alpha A"
               " [--seed S] [--batch-size B] [--threads T ...]\n"
               "  streamkc_cli twopass FILE --m M --n N --k K --alpha A"
               " [--seed S] [--batch-size B]\n"
               "  streamkc_cli serve   FILE --m M --n N --k K"
               " (--alpha A | --budget-kb B) [--seed S]\n"
               "           [--snapshot-every E] [--query-threads Q]"
               " [--threads T] [--batch-size B]\n"
               "           [--lenient] [--metrics-out FILE|-]"
               " [--metrics-format json|prometheus]\n"
               "           [--fault-plan SPEC] [--fault-strict]"
               "   (stream faults only)\n"
               "  streamkc_cli sketch  FILE [--seed S] [--workers W]"
               " [--segments G]\n"
               "           [--checkpoint-every N --checkpoint-dir DIR]"
               " [--batch-size B] [--lenient]\n"
               "           [--metrics-out FILE|-]"
               " [--metrics-format json|prometheus]\n"
               "           [--fault-plan SPEC] [--fault-strict]"
               "   (multi-process reduction tree; --workers 0 = inline)\n");
  std::exit(2);
}

uint64_t ParseU64(const char* s) {
  char* end = nullptr;
  uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') Usage("bad integer argument");
  return v;
}

Args Parse(int argc, char** argv) {
  if (argc < 2) Usage(nullptr);
  Args a;
  a.command = argv[1];
  int i = 2;
  if (a.command != "generate" && i < argc && argv[i][0] != '-') {
    a.file = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage("missing flag value");
      return argv[++i];
    };
    if (flag == "--m") {
      a.m = ParseU64(next());
    } else if (flag == "--n") {
      a.n = ParseU64(next());
    } else if (flag == "--k") {
      a.k = ParseU64(next());
    } else if (flag == "--seed") {
      a.seed = ParseU64(next());
    } else if (flag == "--alpha") {
      a.alpha = static_cast<double>(ParseU64(next()));
    } else if (flag == "--budget-kb") {
      a.budget_kb = ParseU64(next());
    } else if (flag == "--family") {
      a.family = next();
    } else if (flag == "--out") {
      a.out = next();
    } else if (flag == "--threads") {
      a.threads = ParseU64(next());
    } else if (flag == "--producers") {
      a.producers = ParseU64(next());
      a.producers_set = true;
      if (a.producers == 0) Usage("--producers must be >= 1");
    } else if (flag == "--batch-size") {
      a.batch_size = ParseU64(next());
      if (a.batch_size == 0) Usage("--batch-size must be >= 1");
    } else if (flag == "--partition") {
      a.partition = next();
      a.partition_set = true;
      if (a.partition != "element" && a.partition != "set") {
        Usage("--partition must be element or set");
      }
    } else if (flag == "--metrics-out") {
      a.metrics_out = next();
    } else if (flag == "--metrics-format") {
      a.metrics_format = next();
      a.metrics_format_set = true;
      if (a.metrics_format != "json" && a.metrics_format != "prometheus") {
        Usage("--metrics-format must be json or prometheus");
      }
    } else if (flag == "--snapshot-every") {
      a.snapshot_every = ParseU64(next());
      a.snapshot_every_set = true;
    } else if (flag == "--query-threads") {
      a.query_threads = ParseU64(next());
      a.query_threads_set = true;
    } else if (flag == "--workers") {
      a.workers = ParseU64(next());
      a.workers_set = true;
    } else if (flag == "--checkpoint-every") {
      a.checkpoint_every = ParseU64(next());
      a.checkpoint_every_set = true;
    } else if (flag == "--checkpoint-dir") {
      a.checkpoint_dir = next();
    } else if (flag == "--segments") {
      a.segments = ParseU64(next());
      a.segments_set = true;
      if (a.segments == 0) Usage("--segments must be >= 1");
    } else if (flag == "--lenient") {
      a.lenient = true;
    } else if (flag == "--fault-plan") {
      a.fault_plan = next();
    } else if (flag.rfind("--fault-plan=", 0) == 0) {
      a.fault_plan = flag.substr(std::strlen("--fault-plan="));
    } else if (flag == "--fault-strict") {
      a.fault_strict = true;
    } else if (flag == "--hash-kernel") {
      a.hash_kernel = next();
      HashKernel k;
      if (!ParseHashKernel(a.hash_kernel.c_str(), &k)) {
        Usage("--hash-kernel must be scalar or avx2");
      }
      if (!HashKernelAvailable(k)) {
        Usage("--hash-kernel avx2 is not available (CPU lacks AVX2 or the "
              "kernel was compiled out)");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

// Cross-flag validation, run once after Parse: a mode must reject knobs it
// cannot honor with a specific error instead of silently ignoring them.
void ValidateFlags(const Args& a) {
  if (a.command == "serve") {
    if (a.snapshot_every == 0) Usage("--snapshot-every must be >= 1");
    if (a.query_threads == 0) Usage("--query-threads must be >= 1");
    // Serving threads split the estimator's guesses, not the edges: there
    // is no routing key, and no shard to slow, kill or corrupt.
    if (a.partition_set) Usage("--partition does not apply to serve");
    if (!a.fault_plan.empty()) {
      FaultPlan plan;
      std::string err;
      if (!FaultPlan::Parse(a.fault_plan, &plan, &err)) Usage(err.c_str());
      if (plan.HasRuntimeFaults()) {
        Usage("serve takes stream faults only (read-error, dup, reorder, "
              "garbage)");
      }
    }
  } else {
    if (a.snapshot_every_set) {
      Usage("--snapshot-every only applies to the serve command");
    }
    if (a.query_threads_set) {
      Usage("--query-threads only applies to the serve command");
    }
  }
  if (a.command == "sketch") {
    if (a.threads != 0) Usage("sketch parallelizes with --workers, not --threads");
    if (a.producers_set) {
      Usage("sketch parallelizes with --workers, not --producers");
    }
    if (a.checkpoint_every > 0 && a.checkpoint_dir.empty()) {
      Usage("--checkpoint-every needs --checkpoint-dir");
    }
    if (!a.checkpoint_dir.empty() && a.checkpoint_every == 0) {
      Usage("--checkpoint-dir needs --checkpoint-every >= 1");
    }
    if (!a.fault_plan.empty() && a.workers == 0) {
      Usage("--fault-plan needs --workers >= 1 in sketch mode");
    }
    if (a.segments_set && a.workers > 0 && a.segments < a.workers) {
      Usage("--segments must be >= --workers");
    }
  } else {
    if (a.workers_set) Usage("--workers only applies to the sketch command");
    if (a.checkpoint_every_set || !a.checkpoint_dir.empty()) {
      Usage("--checkpoint-every/--checkpoint-dir only apply to sketch");
    }
    if (a.segments_set) Usage("--segments only applies to the sketch command");
  }
  if (a.metrics_format_set && a.metrics_out.empty()) {
    Usage("--metrics-format needs --metrics-out");
  }
  if (a.fault_strict && a.fault_plan.empty()) {
    Usage("--fault-strict needs --fault-plan");
  }
  if (!a.fault_plan.empty() && a.threads == 0 && a.command != "sketch" &&
      a.command != "serve") {
    Usage("--fault-plan needs --threads >= 1");
  }
  if (a.producers_set) {
    if (a.command != "estimate" && a.command != "report") {
      Usage("--producers only applies to estimate and report");
    }
    if (a.producers > 1 && a.threads == 0) {
      Usage("--producers > 1 needs --threads >= 1");
    }
  }
  if (a.partition_set && a.threads == 0) {
    Usage("--partition needs --threads >= 1 (it routes edges to shards)");
  }
}

TextEdgeStream::Config StreamConfig(const Args& a);
void CheckStream(const TextEdgeStream& stream);

int CmdGenerate(const Args& a) {
  if (a.out.empty() || a.m == 0 || a.n == 0) Usage("generate needs --m --n --out");
  GeneratedInstance inst;
  uint64_t k = a.k ? a.k : 16;
  if (a.family == "planted") {
    inst = PlantedCover(a.m, a.n, k, 0.5, 6, a.seed);
  } else if (a.family == "random") {
    inst = RandomUniform(a.m, a.n, 12, a.seed);
  } else if (a.family == "zipf") {
    inst = ZipfFrequency(a.m, a.n, 12, 1.1, a.seed);
  } else if (a.family == "graph") {
    inst = GraphNeighborhoods(a.n, 16.0, a.seed);
  } else {
    Usage("unknown --family");
  }
  auto edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, a.seed);
  WriteEdgesToFile(a.out, edges);
  std::printf("wrote %zu edges (%s family, m=%llu n=%llu) to %s\n",
              edges.size(), inst.family.c_str(),
              (unsigned long long)inst.system.num_sets(),
              (unsigned long long)inst.system.num_elements(), a.out.c_str());
  if (inst.planted_coverage > 0) {
    std::printf("planted %zu-set cover with coverage %llu\n",
                inst.planted_solution.size(),
                (unsigned long long)inst.planted_coverage);
  }
  return 0;
}

int CmdStats(const Args& a) {
  if (a.file.empty()) Usage("stats needs a FILE");
  TextEdgeStream stream(a.file, StreamConfig(a));
  StreamStats stats = ComputeStreamStats(stream);
  CheckStream(stream);
  std::printf("edges              : %llu (%llu distinct)\n",
              (unsigned long long)stats.num_edges,
              (unsigned long long)stats.num_distinct_edges);
  std::printf("sets (m)           : %llu\n",
              (unsigned long long)stats.num_distinct_sets);
  std::printf("elements (n)       : %llu\n",
              (unsigned long long)stats.num_distinct_elements);
  std::printf("max set size       : %llu\n",
              (unsigned long long)stats.MaxSetSize());
  std::printf("max element freq   : %llu\n",
              (unsigned long long)stats.MaxElementFrequency());
  return 0;
}

Params MakeParams(const Args& a) {
  if (a.m == 0 || a.n == 0 || a.k == 0) Usage("need --m --n --k");
  double alpha = a.alpha;
  if (a.budget_kb != 0) {
    alpha = Params::AlphaForBudget(a.m, a.n, a.k, a.budget_kb << 10);
    std::printf("budget %zu KiB -> alpha %.1f\n", a.budget_kb, alpha);
  }
  return Params::Practical(a.m, a.n, a.k, alpha);
}

ShardedPipelineOptions PipelineOptions(const Args& a) {
  ShardedPipelineOptions po;
  po.num_shards = static_cast<uint32_t>(a.threads);
  po.batch_size = a.batch_size;
  po.policy = a.partition == "set" ? PartitionPolicy::kBySet
                                   : PartitionPolicy::kByElement;
  return po;
}

TextEdgeStream::Config StreamConfig(const Args& a) {
  TextEdgeStream::Config c;
  c.lenient = a.lenient;
  return c;
}

// Exits with the stream's file:line parse error (strict mode); reports the
// skipped-line count in lenient mode.
void CheckStream(const TextEdgeStream& stream) {
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.StatusMessage().c_str());
    std::exit(1);
  }
  if (stream.malformed_lines() > 0) {
    std::printf("malformed lines    : %llu skipped (--lenient)\n",
                (unsigned long long)stream.malformed_lines());
  }
}

void WriteDump(const std::string& content, const std::string& path) {
  if (path == "-") {
    std::printf("%s\n", content.c_str());
    return;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "%s\n", content.c_str());
  std::fclose(f);
}

// Renders the selected --metrics-format and writes it to --metrics-out.
// `runtime` is nullptr for in-line (threads == 0) passes; `extra_json`,
// when non-empty, becomes the dump's `extra_name` section ("serving" for
// serve mode, "dist" for multi-process sketch runs).
void DumpMetrics(const Args& a, const RuntimeMetrics* runtime,
                 const SpaceAccountant* space,
                 const std::string& extra_name = std::string(),
                 const std::string& extra_json = std::string()) {
  if (a.metrics_out.empty()) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::string content =
      a.metrics_format == "prometheus"
          ? ComposeMetricsPrometheus(runtime, reg)
          : ComposeMetricsJson(runtime, space, reg,
                               extra_json.empty() ? "" : extra_name.c_str(),
                               extra_json);
  WriteDump(content, a.metrics_out);
}

// The --fault-plan injector (nullptr without one), its plan line printed.
std::unique_ptr<FaultInjector> MakeFaultInjector(const Args& a) {
  if (a.fault_plan.empty()) return nullptr;
  FaultPlan plan;
  std::string err;
  if (!FaultPlan::Parse(a.fault_plan, &plan, &err)) Usage(err.c_str());
  std::printf("fault plan         : %s%s\n", plan.ToSpec().c_str(),
              a.fault_strict ? " (strict)" : "");
  return std::make_unique<FaultInjector>(plan, &MetricsRegistry::Global());
}

// What a pass reports back to its command besides the estimator state.
struct PassStats {
  uint64_t edges = 0;     // edges ingested by an inline pass
  size_t peak_bytes = 0;  // peak sketch footprint (SpaceAccountant)
  // Degradation verdicts from a faulted sharded pass (0 / 0.0 when clean).
  uint32_t shards_quarantined = 0;
  double quarantined_fraction = 0.0;
};

// One pass over `a.file` with a fresh `make()` state: in-line through
// FeedStream when --threads is absent, through the sharded runtime
// otherwise. Peak sketch footprint comes from the SpaceAccountant: sampled
// in-line whenever the ingested edges pass a multiple of 64Ki (rescaling
// subroutines can shrink, so the final footprint is not the peak), and the
// sum of simultaneous shard replica peaks when sharded.
// With --fault-plan, the stream is wrapped in a FaultInjectingStream and
// the pipeline runs under the plan's runtime faults + degradation policy.
template <typename State, typename MakeFn>
State RunPass(const Args& a, MakeFn make, PassStats* stats) {
  TextEdgeStream stream(a.file, StreamConfig(a));
  if (a.threads == 0) {
    State st = make();
    SpaceAccountant acct(&MetricsRegistry::Global());
    EdgeBatch batch(a.batch_size);
    uint64_t sampled_marks = 0;
    stats->edges =
        FeedStream(stream, st, batch, a.batch_size, DegradationPolicy(),
                   nullptr, [&](const FeedCounts& done) {
                     if ((done.edges >> 16) == sampled_marks) return;
                     sampled_marks = done.edges >> 16;
                     acct.Sample(st);
                   })
            .edges;
    CheckStream(stream);
    acct.Sample(st);
    stats->peak_bytes = acct.peak_total_bytes();
    DumpMetrics(a, nullptr, &acct);
    return st;
  }
  ShardedPipelineOptions po = PipelineOptions(a);
  std::unique_ptr<FaultInjector> injector = MakeFaultInjector(a);
  po.fault_injector = injector.get();
  po.degradation.strict = a.fault_strict;
  // With multiple producers the fault wrapping happens per segment below;
  // here only the single whole-file stream is wrapped.
  std::unique_ptr<FaultInjectingStream> faulted;
  EdgeStream* src = &stream;
  if (injector && injector->plan().HasStreamFaults() && a.producers <= 1) {
    faulted = std::make_unique<FaultInjectingStream>(&stream, injector.get());
    src = faulted.get();
  }
  po.num_producers = static_cast<uint32_t>(a.producers);
  ShardedPipeline<State> pipe(po, [&](uint32_t) { return make(); });
  State st = [&] {
    if (po.num_producers <= 1) return pipe.Run(*src);
    // Multi-producer front-end: split the file into newline-aligned
    // segments, one independently-owned stream per producer thread. Fault
    // wrapping is per segment, so injected stream faults stay deterministic
    // for a given (file, P, plan).
    SegmentedTextStream seg(a.file, po.num_producers, StreamConfig(a));
    const FaultInjector* inj = injector.get();
    return pipe.RunSegmented([&](uint32_t p) -> std::unique_ptr<EdgeStream> {
      std::unique_ptr<EdgeStream> s = seg.OpenSegment(p);
      if (inj != nullptr && inj->plan().HasStreamFaults()) {
        s = WrapWithFaults(std::move(s), inj);
      }
      return s;
    });
  }();
  if (po.num_producers <= 1) {
    CheckStream(stream);
  } else {
    // Per-producer stream health: a parse error in any segment fails the
    // run exactly like the single-producer CheckStream; an exhausted
    // transient budget is a degradation (reported below), not an error.
    for (const auto& ps : pipe.producer_status()) {
      if (!ps.ok && !ps.transient) {
        std::fprintf(stderr, "error: %s\n", ps.message.c_str());
        std::exit(1);
      }
      if (!ps.ok && ps.transient && injector != nullptr) {
        std::printf("fault: segment truncated: %s\n", ps.message.c_str());
      }
    }
  }
  const RuntimeMetrics& m = pipe.metrics();
  stats->peak_bytes = std::max<size_t>(
      std::max<size_t>(m.TotalStateBytes(),
                       m.merged_state_bytes.load(std::memory_order_relaxed)),
      pipe.space().peak_total_bytes());
  stats->shards_quarantined =
      static_cast<uint32_t>(m.shards_quarantined.load(
          std::memory_order_relaxed));
  stats->quarantined_fraction = m.QuarantinedFraction();
  std::printf("runtime            : %u producers -> %u shards "
              "(%s-partitioned), %.2fM edges/s, %llu queue stalls, "
              "%llu batches recycled\n",
              m.num_producers(), m.num_shards(), a.partition.c_str(),
              m.EdgesPerSecond() / 1e6,
              (unsigned long long)m.queue_full_stalls.load(
                  std::memory_order_relaxed),
              (unsigned long long)m.TotalBatchesRecycled());
  if (injector != nullptr) {
    if (faulted != nullptr && !faulted->ok()) {
      // Transient budget exhausted: the pass was truncated, which is a
      // degradation (reported), not a driver error.
      std::printf("fault: stream truncated: %s\n",
                  faulted->StatusMessage().c_str());
    }
    std::printf(
        "faults             : retries %llu, worker deaths %llu, "
        "merge corruptions %llu, edges discarded %llu\n",
        (unsigned long long)m.stream_retries.load(std::memory_order_relaxed),
        (unsigned long long)m.worker_deaths.load(std::memory_order_relaxed),
        (unsigned long long)m.merge_corruptions_detected.load(
            std::memory_order_relaxed),
        (unsigned long long)m.TotalEdgesDiscarded());
    if (faulted != nullptr) {
      std::printf(
          "stream faults      : %llu transient errors, %llu dups, "
          "%llu garbage, %llu windows reordered\n",
          (unsigned long long)faulted->transient_errors(),
          (unsigned long long)faulted->duplicates_injected(),
          (unsigned long long)faulted->garbage_injected(),
          (unsigned long long)faulted->windows_reordered());
    }
    std::printf("quarantine         : %u/%u shards (%.1f%% of fleet)\n",
                stats->shards_quarantined, m.num_shards(),
                stats->quarantined_fraction * 100.0);
  }
  DumpMetrics(a, &m, &pipe.space());
  return st;
}

// Not an answer line: each replica retires guesses on its own sub-stream,
// so R differs between drivers. The check says whether the answer is the
// one the estimator gives with no guess retired.
void PrintRetirement(const EstimateMaxCover& est, double estimate) {
  std::printf("retired guesses    : %u of %u (answer exact: %s)\n",
              est.num_retired(), est.num_oracles(),
              est.AnswerExact(estimate) ? "yes" : "no");
}

int CmdEstimate(const Args& a) {
  if (a.file.empty()) Usage("estimate needs a FILE");
  EstimateMaxCover::Config c;
  c.params = MakeParams(a);
  c.seed = a.seed;
  Stopwatch sw;
  PassStats stats;
  EstimateMaxCover est = RunPass<EstimateMaxCover>(
      a, [&] { return EstimateMaxCover(c); }, &stats);
  EstimateOutcome out = est.Finalize();
  std::printf("coverage estimate  : %.0f\n", out.estimate);
  std::printf("winning subroutine : %s\n", out.source.c_str());
  PrintRetirement(est, out.estimate);
  if (stats.shards_quarantined > 0) {
    std::printf("confidence         : degraded — %u shards quarantined "
                "(%.1f%% of substreams unseen)\n",
                stats.shards_quarantined, stats.quarantined_fraction * 100.0);
  }
  std::printf("sketch memory      : %zu KiB (peak %zu KiB)\n",
              est.MemoryBytes() >> 10, stats.peak_bytes >> 10);
  std::printf("pass time          : %.2fs\n", sw.ElapsedSeconds());
  return 0;
}

int CmdReport(const Args& a) {
  if (a.file.empty()) Usage("report needs a FILE");
  ReportMaxCover::Config c;
  c.params = MakeParams(a);
  c.seed = a.seed;
  Stopwatch sw;
  PassStats stats;
  ReportMaxCover rep = RunPass<ReportMaxCover>(
      a, [&] { return ReportMaxCover(c); }, &stats);
  MaxCoverSolution sol = rep.Finalize();
  std::printf("coverage estimate  : %.0f (%s)\n", sol.estimate,
              sol.source.c_str());
  PrintRetirement(rep.estimator(), sol.estimate);
  if (stats.shards_quarantined > 0) {
    std::printf("confidence         : degraded — %u shards quarantined "
                "(%.1f%% of substreams unseen)\n",
                stats.shards_quarantined, stats.quarantined_fraction * 100.0);
  }
  std::printf("selected sets (%zu): ", sol.sets.size());
  for (SetId s : sol.sets) std::printf("%llu ", (unsigned long long)s);
  std::printf("\nsketch memory      : %zu KiB (peak %zu KiB), "
              "pass time %.2fs\n",
              rep.MemoryBytes() >> 10, stats.peak_bytes >> 10,
              sw.ElapsedSeconds());
  return 0;
}

int CmdTwoPass(const Args& a) {
  if (a.file.empty()) Usage("twopass needs a FILE");
  TwoPassMaxCover::Config c;
  c.params = MakeParams(a);
  c.seed = a.seed;
  TextEdgeStream stream(a.file, StreamConfig(a));
  TwoPassMaxCover tp(c);
  Stopwatch sw;
  EstimateOutcome out = RunTwoPass(stream, c, &tp, a.batch_size);
  CheckStream(stream);
  std::printf("coverage estimate  : %.0f (%s)\n", out.estimate,
              out.source.c_str());
  std::printf("OPT bracket        : [%llu, %llu] -> %u oracles\n",
              (unsigned long long)tp.guess_lo(),
              (unsigned long long)tp.guess_hi(), tp.num_oracles());
  std::printf("peak memory        : %zu KiB, total time %.2fs\n",
              tp.peak_memory_bytes() >> 10, sw.ElapsedSeconds());
  return 0;
}

// Long-running serving mode: ingest publishes snapshots at the
// --snapshot-every cadence while --query-threads readers answer queries
// against the current snapshot the whole time. The reported query counts
// split served/rejected — readers that start before the first publish see
// explicit "no snapshot published yet" rejections, not blocking.
int CmdServe(const Args& a) {
  if (a.file.empty()) Usage("serve needs a FILE");
  ServingState::Config sc;
  sc.params = MakeParams(a);
  sc.seed = a.seed;

  SnapshotStore store("cli");
  ServingRuntimeOptions opts;
  opts.snapshot_every_edges = a.snapshot_every;
  opts.threads = static_cast<uint32_t>(a.threads);
  opts.batch_size = a.batch_size;

  TextEdgeStream stream(a.file, StreamConfig(a));
  std::unique_ptr<FaultInjector> injector = MakeFaultInjector(a);
  std::unique_ptr<FaultInjectingStream> faulted;
  EdgeStream* src = &stream;
  if (injector && injector->plan().HasStreamFaults()) {
    faulted = std::make_unique<FaultInjectingStream>(&stream, injector.get());
    src = faulted.get();
  }

  ServingRuntime runtime(sc, opts, &store);
  QueryEngine engine(&store);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> readers;
  readers.reserve(a.query_threads);
  for (uint64_t q = 0; q < a.query_threads; ++q) {
    readers.emplace_back([&, q] {
      uint64_t ok = 0, rej = 0;
      uint64_t i = q;  // stagger the set-coverage probes across readers
      while (!stop.load(std::memory_order_relaxed)) {
        EstimateAnswer est = engine.Estimate();
        est.ok ? ++ok : ++rej;
        SetCoverageAnswer cov =
            engine.SetCoverage(static_cast<SetId>(i++ % a.m));
        cov.ok ? ++ok : ++rej;
        if ((i & 0xF) == 0) {
          ReportAnswer rep = engine.Report();
          rep.ok ? ++ok : ++rej;
        }
      }
      served.fetch_add(ok, std::memory_order_relaxed);
      rejected.fetch_add(rej, std::memory_order_relaxed);
    });
  }

  Stopwatch sw;
  IngestSummary sum = runtime.Ingest(*src);
  double seconds = sw.ElapsedSeconds();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  CheckStream(stream);
  // The file itself read cleanly, so a failed ingest is an injected read
  // error that outlasted the retry budget: the last snapshot covers only
  // the edges read before it.
  if (!sum.stream_ok) {
    if (a.fault_strict) {
      std::fprintf(stderr,
                   "[streamkc] strict: stream error persisted after %u "
                   "retries: %s\n",
                   opts.degradation.max_stream_retries,
                   sum.stream_error.c_str());
      std::exit(1);
    }
    std::printf("fault: stream truncated: %s\n", sum.stream_error.c_str());
  }

  std::printf("serving            : %llu snapshots over %llu segments "
              "(cadence %llu edges",
              (unsigned long long)sum.snapshots_published,
              (unsigned long long)sum.segments,
              (unsigned long long)a.snapshot_every);
  if (a.threads >= 2) {
    std::printf(", %llu ingest threads", (unsigned long long)a.threads);
  }
  std::printf(")\n");
  // The summary query below goes through the same engine, so tally it too:
  // the metrics dump's serving section must equal the registry counters.
  ReportAnswer final_ans = engine.Report();
  uint64_t total_served =
      served.load(std::memory_order_relaxed) + (final_ans.ok ? 1 : 0);
  uint64_t total_rejected =
      rejected.load(std::memory_order_relaxed) + (final_ans.ok ? 0 : 1);
  std::printf("queries            : %llu served, %llu rejected, "
              "%.0f q/s across %llu readers\n",
              (unsigned long long)total_served,
              (unsigned long long)total_rejected,
              seconds > 0 ? static_cast<double>(total_served) / seconds : 0.0,
              (unsigned long long)a.query_threads);
  std::printf("ingest             : %.2fM edges/s with queries attached\n",
              seconds > 0 ? static_cast<double>(sum.edges) / seconds / 1e6
                          : 0.0);
  if (final_ans.ok) {
    std::printf("coverage estimate  : %.0f (%s) @ epoch %llu, %llu edges\n",
                final_ans.estimate, final_ans.source.c_str(),
                (unsigned long long)final_ans.staleness.epoch,
                (unsigned long long)final_ans.staleness.edges_ingested);
    std::printf("selected sets (%zu): ", final_ans.sets.size());
    for (SetId s : final_ans.sets) std::printf("%llu ", (unsigned long long)s);
    std::printf("\n");
  } else {
    std::printf("coverage estimate  : unavailable (%s)\n",
                final_ans.error.c_str());
  }

  char serving_json[512];
  std::snprintf(
      serving_json, sizeof(serving_json),
      "{\"store\": \"%s\", \"epoch\": %llu, \"snapshots_published\": %llu, "
      "\"segments\": %llu, \"edges_ingested\": %llu, "
      "\"queries_served\": %llu, \"queries_rejected\": %llu, "
      "\"query_threads\": %llu}",
      store.name().c_str(), (unsigned long long)store.epoch(),
      (unsigned long long)sum.snapshots_published,
      (unsigned long long)sum.segments, (unsigned long long)sum.edges,
      (unsigned long long)total_served,
      (unsigned long long)total_rejected, (unsigned long long)a.query_threads);
  DumpMetrics(a, nullptr, nullptr, "serving", serving_json);
  return final_ans.ok ? 0 : 1;
}

// The state lines both sketch drivers print.
void PrintSketch(const CoverageSketchState& state) {
  std::printf("distinct covered   : %.0f (L0), %.0f (HLL)\n",
              state.covered_l0.Estimate(), state.covered_hll.Estimate());
  std::printf("element F2         : %.0f\n", state.element_f2.Estimate());
  std::printf("merge fingerprint  : %016llx\n",
              (unsigned long long)state.MergeFingerprint());
  std::printf("sketch memory      : %zu KiB\n", state.MemoryBytes() >> 10);
}

// Multi-process coverage-sketch pass: forks --workers processes over the
// file's segment split and folds their serialized states. With
// --workers 0 the same state ingests inline — the differential reference
// (identical bytes, printed as the same fingerprint + estimates).
int CmdSketch(const Args& a) {
  if (a.file.empty()) Usage("sketch needs a FILE");
  CoverageSketchState::Config config;
  config.seed = a.seed;

  if (a.workers == 0) {
    Stopwatch sw;
    PassStats stats;
    CoverageSketchState state = RunPass<CoverageSketchState>(
        a, [&] { return CoverageSketchState(config); }, &stats);
    std::printf("sketch             : inline pass, %llu edges in %.2fs\n",
                (unsigned long long)stats.edges, sw.ElapsedSeconds());
    PrintSketch(state);
    return 0;
  }

  const uint32_t num_segments = static_cast<uint32_t>(
      a.segments != 0 ? a.segments : a.workers * 4);
  SegmentedTextStream seg(a.file, num_segments, StreamConfig(a));

  DistOptions opt;
  opt.num_workers = static_cast<uint32_t>(a.workers);
  opt.batch_size = a.batch_size;
  opt.checkpoint_every = static_cast<uint32_t>(a.checkpoint_every);
  opt.checkpoint_dir = a.checkpoint_dir;
  opt.degradation.strict = a.fault_strict;
  std::unique_ptr<FaultInjector> injector = MakeFaultInjector(a);
  opt.fault_injector = injector.get();

  ProcessReductionTree<CoverageSketchState> tree(
      opt, [config](uint32_t) { return CoverageSketchState(config); });
  const FaultInjector* inj = injector.get();
  Stopwatch sw;
  CoverageSketchState state =
      tree.Run(num_segments, [&](uint32_t s) -> std::unique_ptr<EdgeStream> {
        std::unique_ptr<EdgeStream> stream = seg.OpenSegment(s);
        if (inj != nullptr && inj->plan().HasStreamFaults()) {
          stream = WrapWithFaults(std::move(stream), inj);
        }
        return stream;
      });
  const DistMetrics& dm = tree.metrics();
  std::printf("sketch             : %u workers -> %u segments, "
              "%.2fM edges/s\n",
              dm.num_workers, dm.num_segments, dm.EdgesPerSecond() / 1e6);
  std::printf("dist               : %llu edges across %llu frames, "
              "%llu bytes shipped in %.2fs\n",
              (unsigned long long)dm.TotalEdgesProcessed(),
              (unsigned long long)dm.frames_received,
              (unsigned long long)dm.TotalBytesShipped(), sw.ElapsedSeconds());
  if (opt.checkpoint_every > 0) {
    std::printf("checkpoints        : %llu written, %llu loaded "
                "(every %u segments in %s)\n",
                (unsigned long long)dm.TotalCheckpointsWritten(),
                (unsigned long long)dm.TotalCheckpointsLoaded(),
                opt.checkpoint_every, opt.checkpoint_dir.c_str());
  }
  if (injector != nullptr || dm.TotalRespawns() > 0 ||
      dm.WorkersQuarantined() > 0) {
    std::printf("recovery           : %u respawns, %u crc rejections, "
                "%u fingerprint corruptions, %u/%u workers quarantined\n",
                dm.TotalRespawns(), dm.TotalCrcRejections(),
                dm.FingerprintCorruptions(), dm.WorkersQuarantined(),
                dm.num_workers);
  }
  PrintSketch(state);
  dm.PublishTo(&MetricsRegistry::Global());
  DumpMetrics(a, nullptr, nullptr, "dist", dm.ToJson());
  return 0;
}

// Resolves the hash kernel before any estimator is built (precedence:
// --hash-kernel > STREAMKC_HASH_KERNEL > CPUID auto), reports which kernel
// the run will use — runs on different machines are only comparable if the
// row matches — and publishes hash_kernel_avx2 (0/1) so metrics dumps
// carry the same fact.
void SetupHashKernel(const Args& a) {
  if (!a.hash_kernel.empty()) {
    HashKernel k;
    if (ParseHashKernel(a.hash_kernel.c_str(), &k)) ForceHashKernel(k);
  }
  const HashKernel active = ActiveHashKernel();
  std::printf("hash kernel        : %s (%s)\n", HashKernelName(active),
              HashKernelSource());
  MetricsRegistry::Global()
      .GetGauge("hash_kernel_avx2")
      ->Set(active == HashKernel::kAvx2 ? 1 : 0);
}

int Main(int argc, char** argv) {
  Args a = Parse(argc, argv);
  ValidateFlags(a);
  if (a.command == "estimate" || a.command == "report" ||
      a.command == "twopass" || a.command == "serve" ||
      a.command == "sketch") {
    SetupHashKernel(a);
  }
  if (a.command == "generate") return CmdGenerate(a);
  if (a.command == "stats") return CmdStats(a);
  if (a.command == "estimate") return CmdEstimate(a);
  if (a.command == "report") return CmdReport(a);
  if (a.command == "twopass") return CmdTwoPass(a);
  if (a.command == "serve") return CmdServe(a);
  if (a.command == "sketch") return CmdSketch(a);
  Usage(("unknown command " + a.command).c_str());
}

}  // namespace
}  // namespace streamkc

int main(int argc, char** argv) { return streamkc::Main(argc, argv); }
