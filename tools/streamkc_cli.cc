// streamkc command-line tool: run the paper's algorithms on edge files.
//
//   streamkc_cli generate --family planted --m 2048 --n 4096 --k 32
//                --seed 1 --out edges.txt
//   streamkc_cli stats    edges.txt
//   streamkc_cli estimate edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//   streamkc_cli estimate edges.txt --m 2048 --n 4096 --k 32 --budget-kb 2048
//   streamkc_cli estimate edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//                --threads 8 --metrics-out metrics.json
//   streamkc_cli report   edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//   streamkc_cli twopass  edges.txt --m 2048 --n 4096 --k 32 --alpha 8
//
// Input format: one "set element" pair per line ('#' comments allowed), any
// order — the general edge-arrival model. `estimate`/`report` are single
// pass; `twopass` reads the file twice for a narrower sketch.
//
// Each flag is declared with the commands that read it (kFlags below); any
// other command refuses it with a usage error (exit 2) instead of running
// without it. --alpha is a real number >= 1. --budget-kb B derives α from
// the space law (Params::AlphaForBudget) and is refused below the
// instance's floor, the predicted footprint at α = √m (~889 KiB for the
// m = 2048, n = 4096, k = 32 example above): no admissible α fits there.
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
#include <cerrno>
#include <cmath>
#include <cstdint>
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
  double alpha = 0;  // 0 = unset: 8, or derived from --budget-kb
  size_t budget_kb = 0;
  std::string family = "planted";
  std::string out;
  // 0 = in-line pass; N ≥ 1 = sharded runtime (serve: N ≥ 2 ingest threads)
  uint32_t threads = 0;
  uint32_t producers = 1;  // parallel ingest front-end width (needs --threads)
  size_t batch_size = 4096;
  std::string partition;  // routing key: element | set; empty = element
  std::string metrics_out;     // metrics dump sink ("-" = stdout)
  std::string metrics_format;  // json | prometheus; empty = json
  bool lenient = false;  // skip+count malformed input lines instead of failing
  std::string fault_plan;     // fault_plan.h spec; empty = no injection
  bool fault_strict = false;  // degradation aborts instead of quarantining
  std::string hash_kernel;    // scalar | avx2; empty = env/CPUID dispatch
  // Serve-mode knobs.
  uint64_t snapshot_every = 65536;  // edges per snapshot segment
  uint64_t query_threads = 2;       // concurrent reader threads
  // Sketch-mode (multi-process) knobs.
  uint32_t workers = 0;           // 0 = inline pass, W >= 1 = W processes
  uint32_t checkpoint_every = 0;  // committed segments per checkpoint; 0 = off
  std::string checkpoint_dir;
  uint32_t segments = 0;          // file segments; 0 = 4 per worker
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
               "  streamkc_cli report  FILE (same flags as estimate)\n"
               "  streamkc_cli twopass FILE --m M --n N --k K"
               " (--alpha A | --budget-kb B) [--seed S]\n"
               "           [--batch-size B] [--lenient] [--hash-kernel K]\n"
               "  streamkc_cli serve   FILE --m M --n N --k K"
               " (--alpha A | --budget-kb B) [--seed S]\n"
               "           [--snapshot-every E] [--query-threads Q]"
               " [--threads T] [--batch-size B]\n"
               "           [--lenient] [--metrics-out FILE|-]"
               " [--metrics-format json|prometheus]\n"
               "           [--fault-plan SPEC] [--fault-strict]"
               "   (stream faults only) [--hash-kernel K]\n"
               "  streamkc_cli sketch  FILE [--seed S] [--workers W]"
               " [--segments G]\n"
               "           [--checkpoint-every N --checkpoint-dir DIR]"
               " [--batch-size B] [--lenient]\n"
               "           [--metrics-out FILE|-]"
               " [--metrics-format json|prometheus]\n"
               "           [--fault-plan SPEC] [--fault-strict]"
               " [--hash-kernel K]\n"
               "           (multi-process reduction tree; --workers 0 ="
               " inline)\n"
               "A flag outside its command's list is a usage error.\n");
  std::exit(2);
}

[[noreturn]] void Usage(const std::string& msg) { Usage(msg.c_str()); }

uint64_t ParseU64(const char* s) {
  char* end = nullptr;
  errno = 0;
  uint64_t v = std::strtoull(s, &end, 10);
  // strtoull would take "-1" as 2^64 - 1 and saturate on overflow.
  if (s[0] < '0' || s[0] > '9' || *end != '\0' || errno == ERANGE) {
    Usage("bad integer argument");
  }
  return v;
}

// A thread, process or segment count: the runtime options hold 32 bits.
uint32_t ParseCount(const char* flag, const char* s) {
  uint64_t v = ParseU64(s);
  if (v > UINT32_MAX) {
    Usage(std::string(flag) + " must be <= " + std::to_string(UINT32_MAX));
  }
  return static_cast<uint32_t>(v);
}

double ParseAlpha(const char* s) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 1.0) {
    Usage("--alpha must be a real number >= 1");
  }
  return v;
}

// Command bits, for declaring which commands read a flag; bit i is
// kCommandNames[i].
const char* const kCommandNames[] = {"generate", "stats",  "estimate",
                                     "report",   "twopass", "serve",
                                     "sketch"};
enum : unsigned {
  kGenerate = 1u << 0,
  kStats = 1u << 1,
  kEstimate = 1u << 2,
  kReport = 1u << 3,
  kTwoPass = 1u << 4,
  kServe = 1u << 5,
  kSketch = 1u << 6,
};
// The commands that run the paper's estimator (MakeParams).
constexpr unsigned kSolvers = kEstimate | kReport | kTwoPass | kServe;
// The commands that run through RunPass's sharded runtime.
constexpr unsigned kSharded = kEstimate | kReport;
// The commands that dump metrics and take fault plans.
constexpr unsigned kRuntimes = kSharded | kServe | kSketch;

// Every flag and the commands that read it. Parse refuses a flag outside
// its commands, so no command runs with a knob it would silently ignore.
// `set` stores the flag's value (nullptr for a switch).
struct FlagSpec {
  const char* name;
  unsigned commands;
  void (*set)(Args& a, const char* value);
  bool takes_value = true;
};
const FlagSpec kFlags[] = {
    {"--m", kGenerate | kSolvers,
     [](Args& a, const char* v) { a.m = ParseU64(v); }},
    {"--n", kGenerate | kSolvers,
     [](Args& a, const char* v) { a.n = ParseU64(v); }},
    {"--k", kGenerate | kSolvers,
     [](Args& a, const char* v) { a.k = ParseU64(v); }},
    {"--seed", kGenerate | kSolvers | kSketch,
     [](Args& a, const char* v) { a.seed = ParseU64(v); }},
    {"--alpha", kSolvers,
     [](Args& a, const char* v) { a.alpha = ParseAlpha(v); }},
    {"--budget-kb", kSolvers,
     [](Args& a, const char* v) {
       a.budget_kb = ParseU64(v);
       if (a.budget_kb == 0) Usage("--budget-kb must be >= 1");
     }},
    {"--family", kGenerate, [](Args& a, const char* v) { a.family = v; }},
    {"--out", kGenerate, [](Args& a, const char* v) { a.out = v; }},
    {"--threads", kSharded | kServe,
     [](Args& a, const char* v) { a.threads = ParseCount("--threads", v); }},
    {"--producers", kSharded,
     [](Args& a, const char* v) {
       a.producers = ParseCount("--producers", v);
       if (a.producers == 0) Usage("--producers must be >= 1");
     }},
    {"--batch-size", kSolvers | kSketch,
     [](Args& a, const char* v) {
       a.batch_size = ParseU64(v);
       if (a.batch_size == 0) Usage("--batch-size must be >= 1");
     }},
    {"--partition", kSharded,
     [](Args& a, const char* v) {
       a.partition = v;
       if (a.partition != "element" && a.partition != "set") {
         Usage("--partition must be element or set");
       }
     }},
    {"--metrics-out", kRuntimes,
     [](Args& a, const char* v) { a.metrics_out = v; }},
    {"--metrics-format", kRuntimes,
     [](Args& a, const char* v) {
       a.metrics_format = v;
       if (a.metrics_format != "json" && a.metrics_format != "prometheus") {
         Usage("--metrics-format must be json or prometheus");
       }
     }},
    {"--snapshot-every", kServe,
     [](Args& a, const char* v) { a.snapshot_every = ParseU64(v); }},
    {"--query-threads", kServe,
     [](Args& a, const char* v) { a.query_threads = ParseU64(v); }},
    {"--workers", kSketch,
     [](Args& a, const char* v) { a.workers = ParseCount("--workers", v); }},
    {"--checkpoint-every", kSketch,
     [](Args& a, const char* v) {
       a.checkpoint_every = ParseCount("--checkpoint-every", v);
     }},
    {"--checkpoint-dir", kSketch,
     [](Args& a, const char* v) { a.checkpoint_dir = v; }},
    {"--segments", kSketch,
     [](Args& a, const char* v) {
       a.segments = ParseCount("--segments", v);
       if (a.segments == 0) Usage("--segments must be >= 1");
     }},
    {"--lenient", kStats | kSolvers | kSketch,
     [](Args& a, const char*) { a.lenient = true; }, false},
    {"--fault-plan", kRuntimes,
     [](Args& a, const char* v) { a.fault_plan = v; }},
    {"--fault-strict", kRuntimes,
     [](Args& a, const char*) { a.fault_strict = true; }, false},
    {"--hash-kernel", kSolvers | kSketch,
     [](Args& a, const char* v) {
       a.hash_kernel = v;
       HashKernel k;
       if (!ParseHashKernel(v, &k)) {
         Usage("--hash-kernel must be scalar or avx2");
       }
       if (!HashKernelAvailable(k)) {
         Usage("--hash-kernel avx2 is not available (CPU lacks AVX2 or the "
               "kernel was compiled out)");
       }
     }},
};

Args Parse(int argc, char** argv) {
  if (argc < 2) Usage(nullptr);
  Args a;
  a.command = argv[1];
  unsigned command = 0;
  for (unsigned c = 0; c < std::size(kCommandNames); ++c) {
    if (a.command == kCommandNames[c]) command = 1u << c;
  }
  if (command == 0) Usage("unknown command " + a.command);
  int i = 2;
  if (command != kGenerate && i < argc && argv[i][0] != '-') {
    a.file = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string flag = argv[i];
    const char* value = nullptr;
    // --fault-plan=SPEC is the one inline-value form.
    if (flag.rfind("--fault-plan=", 0) == 0) {
      value = argv[i] + std::strlen("--fault-plan=");
      flag = "--fault-plan";
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (flag == f.name) spec = &f;
    }
    if (spec == nullptr) Usage("unknown flag " + flag);
    if ((spec->commands & command) == 0) {
      Usage(flag + " does not apply to " + a.command);
    }
    if (spec->takes_value && value == nullptr) {
      if (i + 1 >= argc) Usage("missing flag value");
      value = argv[++i];
    }
    spec->set(a, value);
  }
  return a;
}

// Value rules, run once after Parse: combinations of flags the command
// reads that it cannot honor together.
void ValidateFlags(const Args& a) {
  if (a.command == "serve") {
    if (a.snapshot_every == 0) Usage("--snapshot-every must be >= 1");
    if (a.query_threads == 0) Usage("--query-threads must be >= 1");
    // Serving threads split the estimator's guesses, not the edges: there
    // is no shard to slow, kill or corrupt.
    if (!a.fault_plan.empty()) {
      FaultPlan plan;
      std::string err;
      if (!FaultPlan::Parse(a.fault_plan, &plan, &err)) Usage(err);
      if (plan.HasRuntimeFaults()) {
        Usage("serve takes stream faults only (read-error, dup, reorder, "
              "garbage)");
      }
    }
  }
  if (a.command == "sketch") {
    if (a.checkpoint_every > 0 && a.checkpoint_dir.empty()) {
      Usage("--checkpoint-every needs --checkpoint-dir");
    }
    if (!a.checkpoint_dir.empty() && a.checkpoint_every == 0) {
      Usage("--checkpoint-dir needs --checkpoint-every >= 1");
    }
    if (!a.fault_plan.empty() && a.workers == 0) {
      Usage("--fault-plan needs --workers >= 1 in sketch mode");
    }
    if (a.segments != 0 && a.workers > 0 && a.segments < a.workers) {
      Usage("--segments must be >= --workers");
    }
  }
  if (!a.metrics_format.empty() && a.metrics_out.empty()) {
    Usage("--metrics-format needs --metrics-out");
  }
  if (a.fault_strict && a.fault_plan.empty()) {
    Usage("--fault-strict needs --fault-plan");
  }
  if (!a.fault_plan.empty() && a.threads == 0 && a.command != "sketch" &&
      a.command != "serve") {
    Usage("--fault-plan needs --threads >= 1");
  }
  if (a.producers > 1 && a.threads == 0) {
    Usage("--producers > 1 needs --threads >= 1");
  }
  if (!a.partition.empty() && a.threads == 0) {
    Usage("--partition needs --threads >= 1 (it routes edges to shards)");
  }
  if (a.alpha != 0 && a.budget_kb != 0) {
    Usage("--alpha and --budget-kb are alternatives");
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

// --budget-kb is refused below the space law's floor, where no admissible
// α is predicted to fit, rather than run over budget at α = √m.
Params MakeParams(const Args& a) {
  if (a.m == 0 || a.n == 0 || a.k == 0) Usage("need --m --n --k");
  double alpha = a.alpha != 0 ? a.alpha : 8;
  if (a.budget_kb != 0) {
    const size_t budget_bytes =
        std::min<size_t>(a.budget_kb, SIZE_MAX >> 10) << 10;
    const size_t floor_bytes = Params::BudgetFloorBytes(a.m, a.n, a.k);
    if (budget_bytes < floor_bytes) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "--budget-kb %zu is below this instance's space floor "
                    "of ~%.1f KiB (the predicted footprint at alpha = "
                    "sqrt(m))",
                    a.budget_kb, static_cast<double>(floor_bytes) / 1024.0);
      Usage(msg);
    }
    alpha = Params::AlphaForBudget(a.m, a.n, a.k, budget_bytes);
    std::printf("budget %zu KiB -> alpha %.1f\n", a.budget_kb, alpha);
  }
  return Params::Practical(a.m, a.n, a.k, alpha);
}

ShardedPipelineOptions PipelineOptions(const Args& a) {
  ShardedPipelineOptions po;
  po.num_shards = a.threads;
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
  if (!FaultPlan::Parse(a.fault_plan, &plan, &err)) Usage(err);
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
  po.num_producers = a.producers;
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
              m.num_producers(), m.num_shards(),
              a.partition.empty() ? "element" : a.partition.c_str(),
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
  opts.threads = a.threads;
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
    std::printf(", %u ingest threads", a.threads);
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

  // 4 per worker, saturating rather than wrapping to a 32-bit count.
  const uint32_t num_segments =
      a.segments != 0 ? a.segments
                      : static_cast<uint32_t>(std::min<uint64_t>(
                            uint64_t{a.workers} * 4, UINT32_MAX));
  SegmentedTextStream seg(a.file, num_segments, StreamConfig(a));

  DistOptions opt;
  opt.num_workers = a.workers;
  opt.batch_size = a.batch_size;
  opt.checkpoint_every = a.checkpoint_every;
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
  Usage("unknown command " + a.command);
}

}  // namespace
}  // namespace streamkc

int main(int argc, char** argv) { return streamkc::Main(argc, argv); }
