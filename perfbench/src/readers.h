// Open-loop query load against a SnapshotStore.
//
// Each reader thread sends on a fixed schedule (one query every
// 1/kQpsPerReader seconds), whether or not earlier queries were slow, and
// times each query from its scheduled send time, so a stall shows up in the
// latency of every query queued behind it. Readers start at the first
// publish. The mix is Estimate : SetCoverage : Report = 8 : 8 : 1.

#ifndef PERFBENCH_READERS_H_
#define PERFBENCH_READERS_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/snapshot_store.h"
#include "timed_stream.h"
#include "trace.h"

namespace perfbench {

// Log-linear histogram of nanosecond values: 64 linear buckets per power
// of two, so recording never allocates on the query path and quantiles read
// back within 1/64 of the recorded values (interpolated inside a bucket).
class LogHistogram {
 public:
  void Record(uint64_t v) { ++counts_[Bucket(v)]; }
  void Merge(const LogHistogram& other);
  uint64_t count() const;
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  static size_t Bucket(uint64_t v);
  static double BucketLow(size_t b);
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
};

struct ReaderStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // rejected answers
  LogHistogram latency_ns;    // completion - scheduled send
  LogHistogram staleness_ns;  // completion - handout of last edge
  LogHistogram late_ns;       // actual send - scheduled send
  // Time inside each QueryEngine call, summed, and the call counts.
  uint64_t estimate_ns = 0, estimate_calls = 0;
  uint64_t set_coverage_ns = 0, set_coverage_calls = 0;
  uint64_t report_ns = 0, report_calls = 0;

  void Absorb(const ReaderStats& other);
};

class OpenLoopReaders {
 public:
  // `tracer` may be null. With a tracer, one query in kSpanSample is also
  // recorded as a span (every query still feeds the stats).
  OpenLoopReaders(const streamkc::SnapshotStore* store,
                  streamkc::MetricsRegistry* registry,
                  const Handouts* handouts, uint32_t threads,
                  uint64_t num_sets, Tracer* tracer = nullptr);
  ~OpenLoopReaders();
  OpenLoopReaders(const OpenLoopReaders&) = delete;
  OpenLoopReaders& operator=(const OpenLoopReaders&) = delete;

  // Spawns the reader threads; each waits for the first publish.
  void Start();
  // Queries scheduled before now still run; then the threads are joined.
  ReaderStats Stop();

  static constexpr uint64_t kSpanSample = 32;

 private:
  void Loop(uint32_t index);

  const streamkc::SnapshotStore* store_;
  streamkc::MetricsRegistry* registry_;
  const Handouts* handouts_;
  uint32_t num_threads_;
  uint64_t interval_ns_;
  uint64_t num_sets_;
  Tracer* tracer_;
  uint32_t span_names_[3] = {0, 0, 0};
  std::atomic<uint64_t> stop_ns_{UINT64_MAX};
  std::vector<ReaderStats> stats_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_READERS_H_
