// Degradation policy: how every ingest driver answers a flaky source and a
// replica that disagrees with its peers (DESIGN.md §9).
//
// The policy lives here once, for every driver:
//   * Backoff — the retry budget and its saturating sleeps.
//   * BatchReader — batched reads that retry transient stream errors
//     through a Backoff. ShardedPipeline producers read through it, and so
//     does FeedStream (runtime/feed_stream.h), the loop every other driver
//     ingests through.
//   * MajorityFingerprint — the vote both coordinators (ShardedPipeline,
//     ProcessReductionTree) use to keep a disagreeing replica out of the
//     fold.

#ifndef STREAMKC_RUNTIME_DEGRADATION_H_
#define STREAMKC_RUNTIME_DEGRADATION_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "stream/edge.h"
#include "stream/edge_stream.h"

namespace streamkc {

// How the runtime responds to faults (injected or real).
struct DegradationPolicy {
  // Consecutive transient-read retries before a reader gives up and
  // truncates its pass (the stream's error then surfaces through ok()).
  // The budget resets after every successful read.
  uint32_t max_stream_retries = 5;
  // First retry backoff; doubles per consecutive retry.
  uint64_t initial_backoff_ns = 100'000;  // 100 µs
  // Backoff ceiling: the doubling SATURATES here instead of growing
  // unboundedly (an uncapped uint64 doubling wraps after ~47 consecutive
  // failures and turns the next sleep into a near-eternal one). The first
  // sleep honours it too.
  uint64_t max_backoff_ns = 100'000'000;  // 100 ms
  // Hard-fail mode: abort the process on any degradation (exhausted
  // retries, worker death, merge corruption) instead of quarantining —
  // for runs where a partial answer is worse than no answer. Strict exits
  // always run after rings are closed and workers joined.
  bool strict = false;
};

// The backoff after one that slept `current_ns`: double it, saturating at
// policy.max_backoff_ns. Exact for any cap — the doubling is skipped, not
// wrapped, once it would pass the cap.
inline uint64_t NextBackoffNs(uint64_t current_ns,
                              const DegradationPolicy& policy) {
  return current_ns > policy.max_backoff_ns / 2 ? policy.max_backoff_ns
                                               : current_ns * 2;
}

// A budget of policy.max_stream_retries consecutive retries. The first
// sleep is min(initial_backoff_ns, max_backoff_ns), and each next one
// doubles up to the cap. Reset() after a success restores both the budget
// and the first sleep.
class Backoff {
 public:
  // `hist`, when given, observes every sleep before it happens.
  explicit Backoff(const DegradationPolicy& policy, Histogram* hist = nullptr)
      : policy_(policy), hist_(hist) {
    Reset();
  }

  // Sleeps the next backoff and returns true, or returns false without
  // sleeping once the budget is spent.
  bool Wait() {
    if (used_ >= policy_.max_stream_retries) return false;
    ++used_;
    if (hist_ != nullptr) hist_->Observe(next_ns_);
    std::this_thread::sleep_for(std::chrono::nanoseconds(next_ns_));
    next_ns_ = NextBackoffNs(next_ns_, policy_);
    return true;
  }

  void Reset() {
    used_ = 0;
    next_ns_ = std::min(policy_.initial_backoff_ns, policy_.max_backoff_ns);
  }

  // Waits since the last Reset().
  uint32_t used() const { return used_; }

 private:
  DegradationPolicy policy_;
  Histogram* hist_;
  uint32_t used_ = 0;
  uint64_t next_ns_ = 0;
};

// EdgeStream::NextBatch plus the retry half of the policy. A transient
// error costs one Backoff wait, after which the read keeps filling the same
// batch, so a batch ends only when it is full or the reading stops: the
// batches are those of a clean read of the same tokens.
class BatchReader {
 public:
  // `stream` must outlive the reader; `backoff_hist` as for Backoff.
  BatchReader(EdgeStream& stream, const DegradationPolicy& policy,
              Histogram* backoff_hist = nullptr)
      : stream_(stream), backoff_(policy, backoff_hist) {}

  // Replaces *out with the next up to `max_edges` edges and returns how
  // many. Returns 0 once the stream has ended, failed (!ok(), not
  // transient) or spent its retry budget (!ok(), transient), and from then
  // on returns 0 without calling the stream again: a stream retries on its
  // next call, so one more read would resume past the spent budget.
  size_t Next(std::vector<Edge>* out, size_t max_edges) {
    out->clear();
    // The first read fills `out` itself; reads after a retry or a short
    // read land in tail_ and are appended.
    std::vector<Edge>* into = out;
    while (!done_ && out->size() < max_edges) {
      const size_t got = stream_.NextBatch(into, max_edges - out->size());
      if (into != out) out->insert(out->end(), into->begin(), into->end());
      into = &tail_;
      if (got > 0) backoff_.Reset();
      if (stream_.ok()) {
        done_ = got == 0;
      } else if (stream_.transient() && backoff_.Wait()) {
        ++retries_;
      } else {
        done_ = true;
      }
    }
    return out->size();
  }

  // Retries taken in all.
  uint64_t retries() const { return retries_; }
  // Retries since the last successful read: the whole budget when the
  // stream's transient error outlasted it.
  uint32_t consecutive_retries() const { return backoff_.used(); }

 private:
  EdgeStream& stream_;
  Backoff backoff_;
  std::vector<Edge> tail_;
  uint64_t retries_ = 0;
  bool done_ = false;
};

// The merge fingerprint most `votes` agree on; a tie goes to the value that
// appears first. Seed-coordinated replicas must all report the same value,
// so a coordinator quarantines every voter that differs from the majority
// (which survives a corrupt first replica, where trusting replica 0 would
// not). Returns 0 for no votes.
inline uint64_t MajorityFingerprint(const std::vector<uint64_t>& votes) {
  uint64_t majority = 0;
  ptrdiff_t best = 0;
  for (uint64_t v : votes) {
    const ptrdiff_t n = std::count(votes.begin(), votes.end(), v);
    if (n > best) {
      best = n;
      majority = v;
    }
  }
  return majority;
}

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_DEGRADATION_H_
