// perfbench: the serving-stack benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--out-dir DIR]
//
// Generates the workload's instance from the seed, then drives the real
// serving stack (ServingRuntime → ServingState → ReportMaxCover →
// EstimateMaxCover → the per-guess oracles) over it. With --trace 0 it
// repeats untraced trials for S seconds and prints the end-to-end metrics;
// with --trace 1 it runs one untraced and one traced trial and prints the
// per-layer metrics, writing the spans to DIR. Every run checks the served
// answers against a fresh inline ServingState pass over the same edges.
// The last line of stdout is the JSON result.
//
// Exit codes: 0 success (the result's "correct" may still be false),
// 2 usage, 3 the workload needs more threads than this host has.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "drive.h"
#include "hash/kernel_dispatch.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) Usage("bad --seed " + v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--scale") {
      if (v != "full" && v != "tiny") Usage("bad --scale " + v);
      a.tiny = v == "tiny";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

uint32_t AvailableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// p99, or below 1000 samples the highest percentile with at least ten
// samples beyond it (the median below 20 samples). Further out than p99 a
// single stall of the shared host decides the value.
double TailQuantile(size_t samples) {
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.5, 0.99);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Compares every kept snapshot with the reference; returns mismatches.
uint64_t CheckAnswers(const char* what, const CheckedSnapshots& got,
                      const CheckedSnapshots& want, uint64_t num_sets) {
  uint64_t failed = 0;
  for (const auto& [epoch, ref] : want) {
    auto it = got.find(epoch);
    std::string why;
    if (it == got.end()) {
      why = "not published";
    } else if (AnswersMatch(*it->second, *ref, num_sets, &why)) {
      continue;
    }
    ++failed;
    std::fprintf(stderr, "answer check failed (%s, epoch %llu): %s\n", what,
                 (unsigned long long)epoch, why.c_str());
  }
  return failed;
}

class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}

  int Main() {
    std::fprintf(stderr, "perfbench: generating %s (seed %llu)\n",
                 spec_.name.c_str(), (unsigned long long)args_.seed);
    instance_ = MakeInstance(spec_, args_.seed);
    checks_ = CheckEpochs(instance_.edges.size(), spec_.cadence);
    reference_ = ReferencePass(spec_, instance_.edges, checks_);
    const double final_estimate =
        reference_.rbegin()->second->solution().estimate;
    if (!(final_estimate > 0)) {
      std::fprintf(stderr, "reference estimate is %g\n", final_estimate);
      ++failed_;
    }
    approx_ratio_ = instance_.reference_coverage / final_estimate;
    return args_.trace ? Traced() : Untraced();
  }

 private:
  void CheckTrial(const char* what, const CheckedSnapshots& got) {
    checks_run_ += reference_.size();
    failed_ += CheckAnswers(what, got, reference_, spec_.m);
  }

  void PrintConfig(const std::string& extra) {
    std::printf(
        "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"holdout_seed\": %llu, \"scale\": \"%s\", \"nproc\": %u, "
        "\"hash_kernel\": \"%s\", \"build_type\": \"%s\", \"m\": %llu, "
        "\"n\": %llu, \"k\": %llu, \"alpha\": %g, \"family\": \"%s\", "
        "\"edges\": %zu, \"cadence\": %llu, \"threads\": %u, "
        "\"readers\": %u, \"probe_readers\": %u, \"probe_seconds\": %g, "
        "\"qps_per_reader\": %g, \"state_seed\": %llu, "
        "\"instance_seed\": %llu, \"shuffle_seed\": %llu, "
        "\"reference\": \"%s\", \"reference_coverage\": %.17g%s}}\n",
        spec_.name.c_str(), (unsigned long long)args_.seed,
        (unsigned long long)kHoldoutSeed, args_.tiny ? "tiny" : "full",
        AvailableCpus(), streamkc::HashKernelName(streamkc::ActiveHashKernel()),
        PERFBENCH_BUILD_TYPE, (unsigned long long)spec_.m,
        (unsigned long long)spec_.n, (unsigned long long)kK, kAlpha,
        spec_.family.c_str(), instance_.edges.size(),
        (unsigned long long)spec_.cadence, spec_.threads, spec_.readers,
        spec_.probe_readers, spec_.probe_seconds, kQpsPerReader,
        (unsigned long long)kStateSeed,
        (unsigned long long)instance_.instance_seed,
        (unsigned long long)instance_.shuffle_seed,
        instance_.reference_kind.c_str(), instance_.reference_coverage,
        extra.c_str());
  }

  // Each trial is a whole server lifetime over the workload stream; a run
  // repeats trials for --seconds. A shared host has slow periods lasting
  // seconds, so every timing is taken per trial and the run reports its
  // fastest quartile of trials: the 75th percentile of throughput, the 25th
  // of latencies. The publish-lag tail pools every publish of the run.
  int Untraced() {
    std::vector<double> eps, setups, lags;
    std::vector<double> lag_p50, stale_p50, stale_p99, query_p50;
    uint64_t queries = 0, queries_failed = 0, answered = 0;
    size_t state_bytes = 0;
    uint64_t edges = 0;
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(args_.seconds * 1e9);
    uint64_t trial_ns = 0;
    do {
      const uint64_t t0 = NowNs();
      TrialResult t = RunTrial(spec_, instance_.edges, checks_);
      trial_ns = NowNs() - t0;
      eps.push_back(static_cast<double>(t.edges) / t.ingest_s);
      setups.push_back(t.setup_s);
      lags.insert(lags.end(), t.publish_lag_ns.begin(),
                  t.publish_lag_ns.end());
      lag_p50.push_back(Quantile(t.publish_lag_ns, 0.5));
      const ReaderStats& q = t.readers;
      stale_p50.push_back(q.staleness_ns.Quantile(0.5));
      stale_p99.push_back(q.staleness_ns.Quantile(0.99));
      query_p50.push_back(q.latency_ns.Quantile(0.5));
      queries += q.attempted;
      queries_failed += q.failed;
      answered += q.latency_ns.count();
      state_bytes = t.state_bytes;
      edges += t.edges;
      CheckTrial("trial", t.checked);
    } while (NowNs() + trial_ns <= deadline);
    const size_t trials = eps.size();
    for (int i = 0; i < 21; ++i) {
      setups.push_back(MeasureSetup(spec_, instance_.edges.size()));
    }

    const double tail_q = TailQuantile(lags.size());
    PrintConfig(
        ",\"trials\": " + std::to_string(trials) +
        ", \"setup_samples\": " + std::to_string(setups.size()) +
        ", \"publish_lag_samples\": " + std::to_string(lags.size()) +
        ", \"publish_lag_tail_quantile\": " + JsonNumber(tail_q) +
        ", \"queries\": " + std::to_string(queries) +
        ", \"query_fail_frac\": " +
        JsonNumber(queries == 0 ? 0.0
                                : static_cast<double>(queries_failed) /
                                      static_cast<double>(queries)) +
        ", \"ingest_eps_trials\": " + JsonList(eps));
    std::vector<Metric> m = {
        {"ingest_eps", Quantile(eps, 0.75), "edges/s"},
        {"setup_s", Quantile(setups, 0.25), "s"},
        {"publish_lag_p50_ms", Quantile(lag_p50, 0.25) * 1e-6, "ms"},
        {"publish_lag_tail_ms", Quantile(lags, tail_q) * 1e-6, "ms"},
        {"staleness_p50_ms", Quantile(stale_p50, 0.25) * 1e-6, "ms"},
        {"staleness_p99_ms", Quantile(stale_p99, 0.25) * 1e-6, "ms"},
        {"query_p50_us", Quantile(query_p50, 0.25) * 1e-3, "us"},
        {"state_bytes", static_cast<double>(state_bytes), "B"},
    };
    failed_ += queries_failed;
    if (answered == 0) {
      std::fprintf(stderr, "no query was answered\n");
      ++failed_;
    }
    PrintResult(failed_ == 0, edges + queries + checks_run_, failed_, m);
    return 0;
  }

  int Traced() {
    // Untraced baseline for the tracer's overhead.
    TrialResult base = RunTrial(spec_, instance_.edges, checks_);
    CheckTrial("untraced baseline", base.checked);
    const double untraced_eps = static_cast<double>(base.edges) / base.ingest_s;

    Tracer tracer;
    TracedResult tr =
        RunTracedTrial(spec_, instance_.edges, checks_, &tracer);
    CheckTrial("traced", tr.checked);
    failed_ += base.readers.failed + tr.readers.failed + tr.shadow_mismatches;

    std::map<std::string, SpanTotals> totals = tracer.Totals();
    auto total = [&](const std::string& name) {
      auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    const double edges = static_cast<double>(tr.edges);
    const double publishes =
        std::max<double>(1, static_cast<double>(total("serve.publish").count));
    auto per_edge = [&](const std::string& name) {
      return static_cast<double>(total(name).total_ns) / edges;
    };
    auto per_publish_ms = [&](const std::string& name) {
      return static_cast<double>(total(name).total_ns) / publishes * 1e-6;
    };
    auto segment_mean = [&](auto field) {
      double sum = 0;
      for (const RuntimeSegmentStats& s : tr.segments) sum += field(s);
      return tr.segments.empty() ? 0.0 : sum / tr.segments.size();
    };
    double busy = 0, capacity = 0, stalled = 0, wall = 0;
    for (const RuntimeSegmentStats& s : tr.segments) {
      busy += static_cast<double>(s.busy_ns);
      capacity += static_cast<double>(s.wall_ns) * s.shards;
      stalled += static_cast<double>(s.stalled_ns);
      wall += static_cast<double>(s.wall_ns);
    }
    double mirror_ns = 0;
    for (const std::string& name : tr.mirror_spans) {
      mirror_ns += static_cast<double>(total(name).total_ns);
    }
    // Sharded workers prefold inside their timed ProcessBatch call.
    if (spec_.threads > 0) {
      mirror_ns += static_cast<double>(total("runtime.prefold").total_ns);
    }
    const double traced_eps =
        edges / (static_cast<double>(tr.wall_ns - tr.offpath_ns) * 1e-9);
    const ReaderStats& q = tr.readers;
    auto mean = [](uint64_t sum, uint64_t n) {
      return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
    };

    std::vector<Metric> m = {
        {"stream.next_batch.ns_per_edge", per_edge("stream.next_batch"), "ns"},
        {"runtime.prefold.ns_per_edge", per_edge("runtime.prefold"), "ns"},
        {"runtime.pipeline_setup_ms",
         segment_mean([](const RuntimeSegmentStats& s) {
           return static_cast<double>(s.setup_ns);
         }) * 1e-6,
         "ms"},
        {"runtime.segment_run_ms",
         segment_mean([](const RuntimeSegmentStats& s) {
           return static_cast<double>(s.run_ns);
         }) * 1e-6,
         "ms"},
        {"runtime.merge_ms",
         segment_mean([](const RuntimeSegmentStats& s) {
           return static_cast<double>(s.merge_ns);
         }) * 1e-6,
         "ms"},
        {"runtime.shard_busy_frac", capacity > 0 ? busy / capacity : 0,
         "ratio"},
        {"runtime.ring_stalled_frac", wall > 0 ? stalled / wall : 0, "ratio"},
        {"runtime.shard_skew",
         segment_mean([](const RuntimeSegmentStats& s) { return s.skew; }),
         "ratio"},
        {"hash.fourwise.ns_per_key", per_edge("hash.fourwise"), "ns"},
        {"hash.logwise.ns_per_key", per_edge("hash.logwise"), "ns"},
        {"sketch.set_coverage.ns_per_edge", per_edge("sketch.set_coverage"),
         "ns"},
        {"sketch.l0.ns_per_edge", per_edge("sketch.l0"), "ns"},
    };
    for (const char* component :
         {"core.reduce", "core.large_common", "core.large_set",
          "core.small_set"}) {
      for (uint32_t j = 20; j >= 4; j -= 2) {
        const std::string name =
            std::string(component) + ".z" + std::to_string(j);
        m.push_back({name + ".ns_per_edge", per_edge(name), "ns"});
      }
    }
    auto bytes_at = [](const std::vector<std::pair<uint32_t, size_t>>& v,
                       uint32_t j) {
      for (const auto& [level, bytes] : v) {
        if (level == j) return static_cast<double>(bytes);
      }
      return 0.0;
    };
    for (uint32_t j = 20; j >= 4; j -= 2) {
      m.push_back({"core.large_set.z" + std::to_string(j) + ".bytes",
                   bytes_at(tr.large_set_bytes, j), "B"});
    }
    for (uint32_t j = 20; j >= 4; j -= 2) {
      m.push_back({"core.small_set.z" + std::to_string(j) + ".bytes",
                   bytes_at(tr.small_set_bytes, j), "B"});
    }
    std::vector<Metric> rest = {
        {"core.large_common.finalize_ms",
         per_publish_ms("core.large_common.finalize"), "ms"},
        {"core.large_set.finalize_ms",
         per_publish_ms("core.large_set.finalize"), "ms"},
        {"core.small_set.finalize_ms",
         per_publish_ms("core.small_set.finalize"), "ms"},
        {"core.estimate.finalize_ms", per_publish_ms("core.estimate.finalize"),
         "ms"},
        {"core.estimate.extract_ms", per_publish_ms("core.estimate.extract"),
         "ms"},
        {"core.levels_passing", static_cast<double>(tr.levels_passing),
         "count"},
        {"serve.ingest.ns_per_edge",
         static_cast<double>(tr.serve_ingest_ns) / edges, "ns"},
        {"serve.finalize_ms", per_publish_ms("serve.finalize"), "ms"},
        // Build's own work besides finalize, replayed call by call.
        {"serve.snapshot_build_ms",
         per_publish_ms("serve.snapshot_build.serialize") +
             per_publish_ms("serve.snapshot_build.checksum") +
             per_publish_ms("serve.snapshot_build.from_blob"),
         "ms"},
        {"serve.store_publish_us", per_publish_ms("serve.store_publish") * 1e3,
         "us"},
        {"serve.merge_ms",
         total("serve.merge").count == 0
             ? 0.0
             : static_cast<double>(total("serve.merge").total_ns) /
                   static_cast<double>(total("serve.merge").count) * 1e-6,
         "ms"},
        {"serve.snapshot_bytes", static_cast<double>(tr.snapshot_bytes), "B"},
        {"serve.query.estimate_ns", mean(q.estimate_ns, q.estimate_calls),
         "ns"},
        {"serve.query.set_coverage_ns",
         mean(q.set_coverage_ns, q.set_coverage_calls), "ns"},
        {"serve.query.report_ns", mean(q.report_ns, q.report_calls), "ns"},
        {"bench.generator_late_p99_us", q.late_ns.Quantile(0.99) * 1e-3,
         "us"},
        {"trace.attributed_frac",
         tr.serve_ingest_ns == 0
             ? 0.0
             : mirror_ns / static_cast<double>(tr.serve_ingest_ns),
         "ratio"},
        {"trace.overhead_frac", untraced_eps / traced_eps - 1.0, "ratio"},
        {"approx_ratio", approx_ratio_, "ratio"},
        {"query_p99_us", q.latency_ns.Quantile(0.99) * 1e-3, "us"},
    };
    m.insert(m.end(), rest.begin(), rest.end());

    const std::string path = args_.out_dir + "/trace-" + spec_.name +
                             "-seed" + std::to_string(args_.seed) + ".tsv";
    const bool wrote = tracer.Write(path);
    if (!wrote) std::fprintf(stderr, "could not write %s\n", path.c_str());
    PrintConfig(",\"trace_file\": \"" + (wrote ? path : std::string()) +
                "\", \"spans_per_name\": " + std::to_string(totals.size()) +
                ", \"untraced_eps\": " + JsonNumber(untraced_eps) +
                ", \"traced_eps\": " + JsonNumber(traced_eps));
    for (const auto& [name, t] : totals) {
      std::printf("span %-34s count %8llu  total %12.3f ms  self %12.3f ms\n",
                  name.c_str(), (unsigned long long)t.count,
                  static_cast<double>(t.total_ns) * 1e-6,
                  static_cast<double>(t.self_ns) * 1e-6);
    }
    PrintResult(failed_ == 0,
                base.edges + tr.edges + q.attempted + base.readers.attempted +
                    checks_run_,
                failed_, m);
    return 0;
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  Instance instance_;
  std::vector<uint64_t> checks_;
  CheckedSnapshots reference_;
  double approx_ratio_ = 0;
  uint64_t checks_run_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const std::optional<WorkloadSpec> spec =
      FindWorkload(args.workload, args.tiny);
  if (!spec) Usage("unknown workload " + args.workload);
  // Ingest thread (or the sharded pipeline's producer) + shard workers +
  // readers, all at once; the quiet probe runs after ingest has stopped.
  const uint32_t needed = std::max(1 + spec->threads + spec->readers,
                                   1 + spec->probe_readers);
  const uint32_t nproc = AvailableCpus();
  if (needed > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u threads at once, host has %u\n",
                 spec->name.c_str(), needed, nproc);
    return 3;
  }
  return Run(args, *spec).Main();
}
