// ShardedPipeline: multi-threaded ingestion over any EdgeStream + any
// mergeable estimator state.
//
// Topology (one run, P producers × N shards):
//
//   producer 0 ──┐                 ┌─ lane(0,s) ─┐
//   producer 1 ──┼─ parse + route ─┼─ lane(1,s) ─┼─▶ worker s: replica s ─┐
//   producer P-1─┘  + prefold      └─ lane(P-1,s)┘      (round-robins its │
//                                                        P input lanes)   │
//                                                     join ─▶ merge ◀─────┘
//                                                     coordinator (fold in
//                                                     shard order 0←1←2…)
//
// Each (producer, shard) pair owns one SpscRing lane, so the whole P×N
// lattice preserves the single-producer/single-consumer invariant without
// any new locking. Run() is the single-producer entry (P = 1, the calling
// stream); RunSegmented() spawns options.num_producers producer threads,
// each draining its own substream from a SegmentOpener — the sender/receiver
// decoupling that breaks the one-thread parse/route/flush bottleneck.
//
// `State` is a PipelineState (runtime/feed_stream.h): ProcessBatch, Merge
// of a same-seed replica, MergeFingerprint and SpaceMetered — which
// EstimateMaxCover, ReportMaxCover, ServingState and CoverageSketchState
// meet. Replicas are produced by a factory called once per shard; handing
// every shard THE SAME seeds is what makes the shard states
// Merge()-compatible (seed-coordinated replicas, the same contract as the
// distributed_coverage example).
//
// Determinism: the router is a pure function of the edge, so the MULTISET
// each shard observes is fixed by (stream, segmentation, options),
// independent of thread timing. With one producer each shard's substream is
// additionally a fixed subsequence of the input; with P producers the
// per-shard interleaving of the P lanes is scheduling-dependent, so the
// P-producer guarantee is the shard_router.h contract: every merged state
// is a function of the observed multiset, hence bit-identical (for
// union/linear sketch states) to the single-threaded pass on the same seeds
// (tests/parallel_pipeline_test.cc asserts this across the P×N grid).
//
// Backpressure: rings are bounded; a slow shard blocks its producers
// (metrics.queue_full_stalls counts the events) instead of buffering the
// stream, preserving the streaming space discipline. Consumers never block
// on one specific lane — a worker parked on an empty lane while two
// producers stall on each other's full lanes would deadlock the lattice —
// they poll all P lanes (SpscRing::TryPop) and only sleep when every lane
// is momentarily empty.
//
// Allocation discipline: every data lane has a recycle lane running the
// other way. Workers hand drained batches back (Clear() keeps the vector
// capacities) and producers prefer a recycled buffer over a fresh
// EdgeBatch, so the steady-state flush path performs zero allocations
// (metrics.batches_recycled tracks the recycle hit rate).
//
// Degradation policy (runtime/degradation.h): a production pipeline must
// degrade predictably, not assume a clean world. Three failure classes are
// handled (and injectable via src/fault for testing):
//   * transient stream errors — each producer reads through a BatchReader,
//     which retries with bounded, SATURATING exponential backoff
//     (DegradationPolicy::max_stream_retries / max_backoff_ns,
//     retries_total metric);
//   * worker death mid-stream — the dead shard's lanes keep draining (so
//     backpressure cannot deadlock) but its edges are discarded and the
//     shard is QUARANTINED out of the merge;
//   * merge corruption — before folding, shard fingerprints
//     (State::MergeFingerprint()) are compared and the minority view is
//     quarantined rather than folded into garbage.
// Quarantine counts are reported in RuntimeMetrics (shards_quarantined,
// QuarantinedFraction()) so drivers can attach a confidence discount to the
// final estimate. strict mode turns every degradation into a hard failure —
// and every strict exit happens AFTER the rings are closed and all worker
// threads joined, so process teardown never races live workers.

#ifndef STREAMKC_RUNTIME_SHARDED_PIPELINE_H_
#define STREAMKC_RUNTIME_SHARDED_PIPELINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/space_accountant.h"
#include "runtime/degradation.h"
#include "runtime/edge_batch.h"
#include "runtime/feed_stream.h"
#include "runtime/runtime_metrics.h"
#include "runtime/shard_router.h"
#include "runtime/spsc_ring.h"
#include "stream/edge_stream.h"
#include "util/check.h"

namespace streamkc {

struct ShardedPipelineOptions {
  uint32_t num_shards = 1;
  // Producer threads for RunSegmented(); Run() always uses exactly one.
  // Each producer parses, routes and flushes its own substream through its
  // own row of the P×N ring lattice.
  uint32_t num_producers = 1;
  // Edges per hand-off batch (amortizes ring synchronization).
  size_t batch_size = 4096;
  // In-flight batches per (producer, shard) lane; small on purpose —
  // bounded queues are the backpressure mechanism.
  size_t queue_capacity = 16;
  PartitionPolicy policy = PartitionPolicy::kByElement;
  // Registry receiving the run's counters and histograms (batch busy-time,
  // batch sizes); nullptr = the process-wide registry.
  MetricsRegistry* registry = nullptr;
  // Worker-side space sampling cadence, in batches (0 disables sampling
  // between batches; end-of-stream footprints are always recorded).
  // Sampling walks the whole estimator tree, so per-batch cost is
  // O(tree size) — 16 amortizes it to noise at the default batch_size.
  uint32_t space_sample_every_batches = 16;
  // Fault-injection hooks (nullptr = no injected faults). The injector must
  // outlive Run(); it is shared by every producer, every worker, and the
  // coordinator, which is safe because its decisions are stateless.
  const FaultInjector* fault_injector = nullptr;
  DegradationPolicy degradation;
};

template <PipelineState State>
class ShardedPipeline {
 public:
  using Factory = std::function<State(uint32_t shard)>;
  // Opens producer p's substream (p < num_producers); called on the
  // producer's own thread. The union of the substreams' multisets must be
  // the full stream's multiset (SegmentedTextStream and
  // MakeEdgeSpanSegment guarantee this by construction).
  using SegmentOpener =
      std::function<std::unique_ptr<EdgeStream>(uint32_t producer)>;

  // End-of-run health of one producer's stream, readable after Run()/
  // RunSegmented() returns. `ok` mirrors the stream's ok(); a non-ok
  // transient status means that producer exhausted its retry budget and
  // truncated its pass.
  struct ProducerStatus {
    bool ok = true;
    bool transient = false;
    uint32_t retries_used = 0;
    std::string message;
  };

  // `factory(s)` must build shard s's replica with the SAME seeds for every
  // shard, so that the replicas are Merge()-compatible.
  ShardedPipeline(ShardedPipelineOptions options, Factory factory)
      : options_(options), factory_(std::move(factory)) {
    CHECK_GE(options_.num_shards, 1u);
    CHECK_GE(options_.num_producers, 1u);
    CHECK_GE(options_.batch_size, 1u);
    CHECK_GE(options_.queue_capacity, 1u);
  }

  // Drains `stream` with a single producer thread and returns the merged
  // state; num_shards worker threads are spawned and joined before
  // returning. Equivalent to RunSegmented with one segment.
  State Run(EdgeStream& stream) {
    return RunLattice(1, [&stream](uint32_t) -> EdgeStream* {
      return &stream;
    });
  }

  // Multi-producer entry: num_producers producer threads each drain their
  // own `open(p)` substream through the P×N lattice. Per-producer stream
  // health is available from producer_status() afterwards.
  State RunSegmented(const SegmentOpener& open) {
    const uint32_t P = options_.num_producers;
    std::vector<std::unique_ptr<EdgeStream>> owned(P);
    return RunLattice(P, [&](uint32_t p) -> EdgeStream* {
      owned[p] = open(p);
      CHECK(owned[p] != nullptr);
      return owned[p].get();
    });
  }

  const RuntimeMetrics& metrics() const { return metrics_; }

  // One entry per producer of the last run.
  const std::vector<ProducerStatus>& producer_status() const {
    return producer_status_;
  }

  // Space breakdown of the last Run(): peak = sum of simultaneous per-shard
  // peaks, current = merged state.
  const SpaceAccountant& space() const { return accountant_; }

 private:
  using Ring = SpscRing<EdgeBatch>;

  // The P×N lattice plus the reverse recycle lanes. ring(p, s) is pushed
  // only by producer p and popped only by worker s; recycle(p, s) runs the
  // other way (pushed by worker s, popped by producer p) — both stay SPSC.
  struct Lattice {
    uint32_t num_producers = 0;
    uint32_t num_shards = 0;
    std::vector<std::unique_ptr<Ring>> data;
    std::vector<std::unique_ptr<Ring>> recycle;

    Lattice(uint32_t P, uint32_t N, size_t capacity)
        : num_producers(P), num_shards(N) {
      data.reserve(static_cast<size_t>(P) * N);
      recycle.reserve(static_cast<size_t>(P) * N);
      for (size_t i = 0; i < static_cast<size_t>(P) * N; ++i) {
        data.push_back(std::make_unique<Ring>(capacity));
        // The recycle lane must hold a lane's whole circulating set — data
        // ring (≤ capacity) + producer accumulator + worker hand — or
        // returns get dropped under bursts and the producer keeps
        // allocating fresh batches to replace them.
        recycle.push_back(std::make_unique<Ring>(capacity + 2));
      }
    }
    Ring& ring(uint32_t p, uint32_t s) {
      return *data[static_cast<size_t>(p) * num_shards + s];
    }
    Ring& recycle_ring(uint32_t p, uint32_t s) {
      return *recycle[static_cast<size_t>(p) * num_shards + s];
    }
  };

  // Producer p's parse/route/flush loop over its own substream. Writes only
  // its own PerProducer row, its own lattice row, and the shared relaxed
  // aggregates; returns its end-of-stream status.
  ProducerStatus ProducerLoop(uint32_t p, EdgeStream& stream, Lattice& lat,
                              const ShardRouter& router,
                              Histogram* retry_backoff_hist) {
    const uint32_t n = options_.num_shards;
    const FaultInjector* injector = options_.fault_injector;
    RuntimeMetrics::PerProducer& pm = metrics_.producer(p);
    std::vector<EdgeBatch> accum(n);
    for (EdgeBatch& b : accum) b.edges.reserve(options_.batch_size);
    // Per-(producer, shard) flush sequence numbers: deterministic (routing
    // is a pure function of the edge and segmentation is fixed), so
    // injected push delays are replayable.
    std::vector<uint64_t> flush_seq(n, 0);
    auto flush = [&](uint32_t s) {
      metrics_.batches_enqueued.fetch_add(1, std::memory_order_relaxed);
      pm.batches.fetch_add(1, std::memory_order_relaxed);
      if (injector != nullptr) {
        uint64_t delay_ns = injector->PushDelayNs(s, flush_seq[s]);
        if (delay_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns));
        }
      }
      ++flush_seq[s];
      // Prefer a buffer the worker handed back over a fresh allocation: in
      // steady state the same EdgeBatch objects cycle producer → worker →
      // producer and the flush path allocates nothing.
      EdgeBatch next;
      if (lat.recycle_ring(p, s).TryPop(&next) == Ring::PopResult::kItem) {
        pm.batches_recycled.fetch_add(1, std::memory_order_relaxed);
      } else {
        next = EdgeBatch(options_.batch_size);
      }
      lat.ring(p, s).Push(std::move(accum[s]));
      accum[s] = std::move(next);
    };
    BatchReader reader(stream, options_.degradation, retry_backoff_hist);
    std::vector<Edge> read_buf;
    while (const size_t got = reader.Next(&read_buf, options_.batch_size)) {
      metrics_.edges_ingested.fetch_add(got, std::memory_order_relaxed);
      pm.edges.fetch_add(got, std::memory_order_relaxed);
      for (const Edge& e : read_buf) {
        uint32_t s = router.ShardOf(e);
        accum[s].edges.push_back(e);
        if (accum[s].edges.size() >= options_.batch_size) flush(s);
      }
    }
    // A truncated pass (parse error, or a spent retry budget) surfaces to
    // the driver through the stream and producer_status(). Strict handling
    // happens on the coordinator AFTER rings close and workers join.
    metrics_.stream_retries.fetch_add(reader.retries(),
                                      std::memory_order_relaxed);
    pm.stream_retries.fetch_add(reader.retries(), std::memory_order_relaxed);
    for (uint32_t s = 0; s < n; ++s) {
      if (!accum[s].empty()) flush(s);
    }
    for (uint32_t s = 0; s < n; ++s) lat.ring(p, s).Close();
    ProducerStatus status;
    status.ok = stream.ok();
    status.transient = stream.transient();
    status.retries_used = reader.consecutive_retries();
    status.message = stream.StatusMessage();
    return status;
  }

  // Shared engine behind Run()/RunSegmented(): `acquire(p)` hands producer
  // p its stream (borrowed; the caller keeps it alive past the joins).
  State RunLattice(uint32_t P,
                   const std::function<EdgeStream*(uint32_t)>& acquire) {
    const uint32_t n = options_.num_shards;
    metrics_.Reset(n, P);
    producer_status_.assign(P, ProducerStatus{});
    MetricsRegistry* registry =
        options_.registry ? options_.registry : &MetricsRegistry::Global();
    // Histograms are thread-safe (relaxed atomic buckets); all are shared
    // by every worker/producer.
    Histogram* batch_busy_hist = registry->GetHistogram("runtime_batch_busy_ns");
    Histogram* batch_edges_hist = registry->GetHistogram("runtime_batch_edges");
    Histogram* retry_backoff_hist =
        registry->GetHistogram("runtime_retry_backoff_ns");
    accountant_ = SpaceAccountant(registry);
    auto run_start = std::chrono::steady_clock::now();

    // Replicas are constructed in shard order on the coordinator thread,
    // then each is handed to its worker (the thread start is the
    // happens-before edge; the join hands it back for merging).
    std::vector<State> states;
    states.reserve(n);
    for (uint32_t s = 0; s < n; ++s) states.push_back(factory_(s));

    Lattice lat(P, n, options_.queue_capacity);

    // Per-shard space accountants (registry-less; folded into accountant_
    // after the join). Each is touched only by its own worker thread until
    // the join hands it back.
    std::vector<SpaceAccountant> shard_accts(n);

    const FaultInjector* injector = options_.fault_injector;
    // Worker-death flags; each worker writes only its own slot before the
    // join, the coordinator reads after it.
    std::vector<uint8_t> worker_died(n, 0);

    std::vector<std::thread> workers;
    workers.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      workers.emplace_back([this, s, P, &lat, &states, &shard_accts, injector,
                            &worker_died, batch_busy_hist, batch_edges_hist] {
        RuntimeMetrics::PerShard& ps = metrics_.shard(s);
        State& state = states[s];
        SpaceAccountant& acct = shard_accts[s];
        const uint32_t sample_every = options_.space_sample_every_batches;
        uint32_t batches_since_sample = 0;
        uint64_t batches_popped = 0;
        uint64_t idle_rounds = 0;
        bool dead = false;
        EdgeBatch batch;
        uint32_t lane = s % P;  // stagger starting lanes across workers
        for (;;) {
          // Round-robin the P input lanes without ever blocking on one:
          // take the first lane with a batch, remember the next lane for
          // fairness, and only sleep when every lane is momentarily empty.
          bool popped = false;
          bool all_closed = true;
          uint32_t from = 0;
          for (uint32_t i = 0; i < P; ++i) {
            uint32_t p = (lane + i) % P;
            Ring::PopResult r = lat.ring(p, s).TryPop(&batch);
            if (r == Ring::PopResult::kItem) {
              popped = true;
              from = p;
              lane = (p + 1) % P;
              break;
            }
            if (r != Ring::PopResult::kClosed) all_closed = false;
          }
          if (!popped) {
            if (all_closed) break;  // every lane closed and drained
            ++idle_rounds;
            if (idle_rounds < 64) {
              std::this_thread::yield();
            } else {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            continue;
          }
          idle_rounds = 0;
          if (!dead && injector != nullptr &&
              injector->WorkerDiesAt(s, batches_popped)) {
            // Simulated worker death: the state stops advancing, but the
            // lanes MUST keep draining — a dead shard that stopped popping
            // would wedge its producers behind full rings forever.
            dead = true;
            worker_died[s] = 1;
            injector->Count(FaultInjector::kFaultWorkerDeath);
          }
          ++batches_popped;
          if (dead) {
            ps.edges_discarded.fetch_add(batch.edges.size(),
                                         std::memory_order_relaxed);
            batch.Clear();
            lat.recycle_ring(from, s).TryPush(batch);
            continue;
          }
          auto t0 = std::chrono::steady_clock::now();
          // The worker prefolds the ids, so the fold parallelizes with the
          // shard fan-out.
          batch.Prefold();
          state.ProcessBatch(batch.View());
          auto t1 = std::chrono::steady_clock::now();
          uint64_t busy = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
          ps.busy_ns.fetch_add(busy, std::memory_order_relaxed);
          ps.edges.fetch_add(batch.edges.size(), std::memory_order_relaxed);
          ps.batches.fetch_add(1, std::memory_order_relaxed);
          batch_busy_hist->Observe(busy);
          batch_edges_hist->Observe(batch.edges.size());
          // Hand the drained buffer back to its producer (capacity intact);
          // if the recycle lane is full the buffer is simply dropped.
          batch.Clear();
          lat.recycle_ring(from, s).TryPush(batch);
          if (injector != nullptr) {
            uint64_t slow_ns = injector->ShardSlowdownNs(s);
            if (slow_ns > 0) {
              std::this_thread::sleep_for(std::chrono::nanoseconds(slow_ns));
            }
          }
          if (sample_every > 0 && ++batches_since_sample >= sample_every) {
            batches_since_sample = 0;
            acct.Sample(state);
          }
        }
        // End-of-substream footprint, so peaks are recorded even for runs
        // shorter than the sampling cadence.
        acct.Sample(state);
      });
    }

    // Producers: one thread per segment, each with its own accumulators,
    // retry budget and row of lanes. The router is shared and const.
    ShardRouter router(n, options_.policy);
    std::vector<std::thread> producers;
    producers.reserve(P);
    for (uint32_t p = 0; p < P; ++p) {
      producers.emplace_back([this, p, &acquire, &lat, &router,
                              retry_backoff_hist] {
        EdgeStream* stream = acquire(p);
        producer_status_[p] =
            ProducerLoop(p, *stream, lat, router, retry_backoff_hist);
      });
    }
    for (std::thread& pt : producers) pt.join();
    // Every producer has closed its row; workers drain and exit.
    for (std::thread& w : workers) w.join();

    // The joins are the happens-before edges: ring stall counters, shard
    // accountants and producer statuses are now quiescent. Stall statistics
    // live in the lanes (one Push side each); each shard's row aggregates
    // its P lanes.
    for (uint32_t s = 0; s < n; ++s) {
      RuntimeMetrics::PerShard& ps = metrics_.shard(s);
      uint64_t stalls = 0, rounds = 0, stalled_ns = 0;
      for (uint32_t p = 0; p < P; ++p) {
        stalls += lat.ring(p, s).push_stalls();
        rounds += lat.ring(p, s).push_stall_rounds();
        stalled_ns += lat.ring(p, s).push_stalled_ns();
      }
      ps.ring_stalls.store(stalls, std::memory_order_relaxed);
      ps.ring_stall_rounds.store(rounds, std::memory_order_relaxed);
      ps.ring_stalled_ns.store(stalled_ns, std::memory_order_relaxed);
      metrics_.queue_full_stalls.fetch_add(stalls, std::memory_order_relaxed);
    }

    const DegradationPolicy& deg = options_.degradation;
    // Strict-mode stream failure: decided HERE, after the close+join
    // sequence above, so registry/atexit teardown can never race live
    // worker threads (the old mid-stream exit left all workers running).
    if (deg.strict) {
      for (uint32_t p = 0; p < P; ++p) {
        const ProducerStatus& st = producer_status_[p];
        if (!st.ok && st.transient) {
          std::fprintf(stderr,
                       "[streamkc] strict: stream error persisted after %u "
                       "retries: %s\n",
                       st.retries_used, st.message.c_str());
          std::exit(1);
        }
      }
    }

    // End-of-stream space accounting: per-shard sketch footprints BEFORE the
    // fold — their sum is the pipeline's peak sketch space.
    for (uint32_t s = 0; s < n; ++s) {
      metrics_.shard(s).state_bytes.store(states[s].MemoryBytes(),
                                          std::memory_order_relaxed);
      accountant_.Absorb(shard_accts[s]);
    }

    // Quarantine verdicts, decided single-threaded after the join.
    // (1) Dead workers: their replicas stopped mid-substream and must not
    // be folded — the merged state would silently under-count.
    std::vector<uint8_t> quarantined(n, 0);
    for (uint32_t s = 0; s < n; ++s) {
      if (worker_died[s]) {
        quarantined[s] = 1;
        metrics_.worker_deaths.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // (2) Merge corruption: the healthy replicas vote on their
    // fingerprints, and the minority view is quarantined.
    std::vector<uint64_t> fps(n), votes;
    for (uint32_t s = 0; s < n; ++s) {
      fps[s] = states[s].MergeFingerprint();
      if (injector != nullptr && injector->CorruptsMergeFingerprint(s)) {
        fps[s] ^= 0xD1E7C0DEDEADBEEFull;  // injected corruption
        injector->Count(FaultInjector::kFaultMergeCorruption);
      }
      if (!quarantined[s]) votes.push_back(fps[s]);
    }
    const uint64_t majority = MajorityFingerprint(votes);
    for (uint32_t s = 0; s < n; ++s) {
      if (quarantined[s] || fps[s] == majority) continue;
      quarantined[s] = 1;
      metrics_.merge_corruptions_detected.fetch_add(1,
                                                    std::memory_order_relaxed);
    }
    uint32_t num_quarantined = 0;
    for (uint32_t s = 0; s < n; ++s) {
      if (!quarantined[s]) continue;
      ++num_quarantined;
      metrics_.shard(s).quarantined.store(1, std::memory_order_relaxed);
    }
    metrics_.shards_quarantined.store(num_quarantined,
                                      std::memory_order_relaxed);
    if (num_quarantined > 0 && deg.strict) {
      std::fprintf(stderr, "[streamkc] strict: %u/%u shards quarantined\n",
                   num_quarantined, n);
      std::exit(1);
    }
    if (num_quarantined == n) {
      // No healthy replica survives; a fabricated answer would be worse
      // than none, strict mode or not.
      std::fprintf(stderr, "[streamkc] all %u shards quarantined\n", n);
      std::exit(1);
    }

    // Merge coordinator: fold the healthy shards in fixed shard order (root
    // = lowest healthy shard) for determinism.
    uint32_t root = 0;
    while (quarantined[root]) ++root;
    auto merge_start = std::chrono::steady_clock::now();
    for (uint32_t s = root + 1; s < n; ++s) {
      if (quarantined[s]) continue;
      states[root].Merge(states[s]);
      metrics_.merges.fetch_add(1, std::memory_order_relaxed);
    }
    metrics_.merge_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count(),
        std::memory_order_relaxed);
    metrics_.merged_state_bytes.store(states[root].MemoryBytes(),
                                      std::memory_order_relaxed);
    // Current footprint after the fold = the merged state alone; the peak
    // (sum of simultaneous shard peaks, absorbed above) is retained.
    accountant_.Sample(states[root]);
    metrics_.wall_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count(),
        std::memory_order_relaxed);
    return std::move(states[root]);
  }

  ShardedPipelineOptions options_;
  Factory factory_;
  RuntimeMetrics metrics_;
  SpaceAccountant accountant_;
  std::vector<ProducerStatus> producer_status_;
};

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_SHARDED_PIPELINE_H_
