#include "readers.h"

#include <chrono>
#include <cmath>

#include "cpus.h"
#include "serve/query_engine.h"
#include "workloads.h"

namespace perfbench {

using namespace streamkc;

size_t LogHistogram::Bucket(uint64_t v) {
  if (v < (1u << kSubBits)) return static_cast<size_t>(v);
  const int exp = 63 - __builtin_clzll(v);  // >= kSubBits
  const int shift = exp - kSubBits;
  const size_t sub = static_cast<size_t>(v >> shift) & ((1u << kSubBits) - 1);
  return (static_cast<size_t>(shift + 1) << kSubBits) + sub;
}

double LogHistogram::BucketLow(size_t b) {
  const size_t group = b >> kSubBits;
  const size_t sub = b & ((1u << kSubBits) - 1);
  if (group == 0) return static_cast<double>(sub);
  return std::ldexp(static_cast<double>((1u << kSubBits) + sub),
                    static_cast<int>(group) - 1);
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
}

uint64_t LogHistogram::count() const {
  uint64_t n = 0;
  for (uint64_t c : counts_) n += c;
  return n;
}

double LogHistogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  // Rank q·(n-1), spread uniformly across the bucket that holds it.
  const double rank = q * static_cast<double>(n - 1);
  double before = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c == 0 || before + c <= rank) {
      before += c;
      continue;
    }
    const double low = BucketLow(b);
    const double width = BucketLow(b + 1) - low;
    return low + width * (rank - before + 0.5) / c;
  }
  return BucketLow(kBuckets - 1);
}

void ReaderStats::Absorb(const ReaderStats& other) {
  attempted += other.attempted;
  failed += other.failed;
  latency_ns.Merge(other.latency_ns);
  staleness_ns.Merge(other.staleness_ns);
  late_ns.Merge(other.late_ns);
  estimate_ns += other.estimate_ns;
  estimate_calls += other.estimate_calls;
  set_coverage_ns += other.set_coverage_ns;
  set_coverage_calls += other.set_coverage_calls;
  report_ns += other.report_ns;
  report_calls += other.report_calls;
}

OpenLoopReaders::OpenLoopReaders(const SnapshotStore* store,
                                 MetricsRegistry* registry,
                                 const Handouts* handouts, uint32_t threads,
                                 uint64_t num_sets, Tracer* tracer)
    : store_(store),
      registry_(registry),
      handouts_(handouts),
      num_threads_(threads),
      interval_ns_(static_cast<uint64_t>(1e9 / kQpsPerReader)),
      num_sets_(num_sets),
      tracer_(tracer),
      stats_(threads) {
  if (tracer_ != nullptr) {
    span_names_[0] = tracer_->Intern("serve.query.estimate");
    span_names_[1] = tracer_->Intern("serve.query.set_coverage");
    span_names_[2] = tracer_->Intern("serve.query.report");
  }
}

OpenLoopReaders::~OpenLoopReaders() { Stop(); }

void OpenLoopReaders::Start() {
  threads_.reserve(num_threads_);
  for (uint32_t r = 0; r < num_threads_; ++r) {
    threads_.emplace_back([this, r] { Loop(r); });
  }
}

ReaderStats OpenLoopReaders::Stop() {
  uint64_t expected = UINT64_MAX;
  stop_ns_.compare_exchange_strong(expected, NowNs());
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  ReaderStats all;
  for (const ReaderStats& s : stats_) all.Absorb(s);
  stats_.assign(num_threads_, ReaderStats{});
  return all;
}

void OpenLoopReaders::Loop(uint32_t index) {
  ScopedPin pin(1 + index);  // CPU 0 is the ingest thread's
  QueryEngine engine(store_, registry_);
  ReaderStats& stats = stats_[index];
  // Wait for a readable snapshot, not for epoch(): SnapshotStore::Publish
  // advances the epoch before it installs the snapshot, so a reader that
  // trusted epoch() could be rejected by its very first query.
  while (store_->Current() == nullptr) {
    if (stop_ns_.load(std::memory_order_acquire) != UINT64_MAX) return;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  // Readers interleave their schedules evenly inside one interval.
  const uint64_t start = NowNs() + interval_ns_ * index / num_threads_;
  for (uint64_t i = 0;; ++i) {
    const uint64_t sched = start + i * interval_ns_;
    uint64_t now = NowNs();
    while (now < sched) {
      if (sched >= stop_ns_.load(std::memory_order_acquire)) return;
      if (sched - now > 200'000) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      now = NowNs();
    }
    if (sched >= stop_ns_.load(std::memory_order_acquire)) return;
    const uint64_t kind = i % 17;  // 8 estimate : 8 set coverage : 1 report
    bool ok = false;
    uint64_t epoch_edges = 0;
    const uint64_t sent = NowNs();
    if (kind < 8) {
      EstimateAnswer a = engine.Estimate();
      ok = a.ok;
      epoch_edges = a.staleness.edges_ingested;
    } else if (kind < 16) {
      SetCoverageAnswer a =
          engine.SetCoverage((i * 0x9e3779b97f4a7c15ull) % num_sets_);
      ok = a.ok;
      epoch_edges = a.staleness.edges_ingested;
    } else {
      ReportAnswer a = engine.Report();
      ok = a.ok;
      epoch_edges = a.staleness.edges_ingested;
    }
    const uint64_t done = NowNs();
    ++stats.attempted;
    const uint64_t call_ns = done - sent;
    if (kind < 8) {
      stats.estimate_ns += call_ns;
      ++stats.estimate_calls;
    } else if (kind < 16) {
      stats.set_coverage_ns += call_ns;
      ++stats.set_coverage_calls;
    } else {
      stats.report_ns += call_ns;
      ++stats.report_calls;
    }
    if (!ok) {
      ++stats.failed;
      continue;
    }
    stats.latency_ns.Record(done - sched);
    const uint64_t handed_out = handouts_->ForEdges(epoch_edges);
    stats.staleness_ns.Record(done > handed_out ? done - handed_out : 0);
    stats.late_ns.Record(sent - sched);
    if (tracer_ != nullptr) {
      if (i % kSpanSample == 0) {
        uint32_t name = span_names_[kind < 8 ? 0 : kind < 16 ? 1 : 2];
        tracer_->Add(name, i * num_threads_ + index, 0, sent, done);
      }
    }
  }
}

}  // namespace perfbench
