#include "drive.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "cpus.h"
#include "obs/metrics.h"
#include "runtime/edge_batch.h"
#include "runtime/sharded_pipeline.h"
#include "serve/serving_runtime.h"
#include "serve/snapshot_store.h"
#include "shadow.h"
#include "timed_stream.h"

namespace perfbench {

using namespace streamkc;

namespace {

constexpr size_t kBatchSize = 4096;  // ServingRuntimeOptions' default

// Queries the final snapshot with the workload's probe readers, for
// workloads that have no readers while ingesting.
ReaderStats QuietProbe(const WorkloadSpec& spec, const SnapshotStore& store,
                       MetricsRegistry* registry, const Handouts& handouts,
                       Tracer* tracer) {
  OpenLoopReaders probe(&store, registry, &handouts, spec.probe_readers,
                        spec.m, tracer);
  probe.Start();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(spec.probe_seconds));
  return probe.Stop();
}

std::unique_ptr<OpenLoopReaders> StartReaders(const WorkloadSpec& spec,
                                              const SnapshotStore& store,
                                              MetricsRegistry* registry,
                                              const Handouts& handouts,
                                              Tracer* tracer) {
  if (spec.readers == 0) return nullptr;
  auto readers = std::make_unique<OpenLoopReaders>(
      &store, registry, &handouts, spec.readers, spec.m, tracer);
  readers->Start();
  return readers;
}

// A serving instance set up as a deployment would: store, runtime and, for
// workloads that have them, readers waiting for the first publish.
struct Server {
  Server(const WorkloadSpec& spec, MetricsRegistry* registry,
         const Handouts& handouts,
         std::function<void(const SnapshotPtr&)> on_publish)
      : store("perfbench", registry),
        runtime(StateConfig(spec),
                Options(spec, registry, std::move(on_publish)), &store),
        readers(StartReaders(spec, store, registry, handouts, nullptr)) {}

  static ServingRuntimeOptions Options(
      const WorkloadSpec& spec, MetricsRegistry* registry,
      std::function<void(const SnapshotPtr&)> on_publish) {
    ServingRuntimeOptions opts;
    opts.snapshot_every_edges = spec.cadence;
    opts.threads = spec.threads;
    opts.batch_size = kBatchSize;
    opts.registry = registry;
    opts.on_publish = std::move(on_publish);
    return opts;
  }

  SnapshotStore store;
  ServingRuntime runtime;
  std::unique_ptr<OpenLoopReaders> readers;  // joined first on destruction
};

// Publishes the way ServingRuntime::PublishSnapshot does, with spans, then
// has the shadow reproduce the published answer.
class TracedPublisher {
 public:
  TracedPublisher(Tracer* tracer, SnapshotStore* store, ShadowStack* shadow,
                  const std::vector<uint64_t>& check_epochs,
                  TracedResult* out)
      : tracer_(tracer),
        store_(store),
        shadow_(shadow),
        check_(check_epochs.begin(), check_epochs.end()),
        out_(out),
        publish_span_(tracer->Intern("serve.publish")),
        finalize_span_(tracer->Intern("serve.finalize")),
        serialize_span_(tracer->Intern("serve.snapshot_build.serialize")),
        checksum_span_(tracer->Intern("serve.snapshot_build.checksum")),
        restore_span_(tracer->Intern("serve.snapshot_build.from_blob")),
        build_span_(tracer->Intern("serve.snapshot_build")),
        store_span_(tracer->Intern("serve.store_publish")) {}

  void Publish(const ServingState& state, uint64_t edges, uint32_t shards) {
    ++epoch_;
    SnapshotMeta meta;
    meta.epoch = epoch_;
    meta.edges_ingested = edges;
    meta.batches_ingested = epoch_;
    meta.shards = shards;
    meta.publish_steady_ns = NowNs();
    Tracer::Scope publish(tracer_, publish_span_, epoch_);
    // Build() finalizes the state, then serializes, checksums and restores
    // the snapshot. The finalize is timed on its own (an extra call, not on
    // the serving path) ...
    Tracer::Scope finalize(tracer_, finalize_span_, epoch_, publish.id());
    state.FinalizeSolution();
    out_->offpath_ns += finalize.End();
    Tracer::Scope build(tracer_, build_span_, epoch_, publish.id());
    SnapshotPtr snap = CoverageSnapshot::Build(state, meta);
    build.End();
    Tracer::Scope swap(tracer_, store_span_, epoch_, publish.id());
    store_->Publish(snap);
    swap.End();
    publish.End();
    // ... and Build's own work is replayed through the same public calls:
    // the payload's set sketch, the checksum and the restore.
    const uint64_t r0 = NowNs();
    std::stringstream payload;
    state.set_coverage().Save(payload);
    const uint64_t r1 = NowNs();
    SnapshotChecksum(snap->blob());
    const uint64_t r2 = NowNs();
    CoverageSnapshot::FromBlob(snap->blob());
    const uint64_t r3 = NowNs();
    tracer_->Add(serialize_span_, epoch_, build.id(), r0, r1);
    tracer_->Add(checksum_span_, epoch_, build.id(), r1, r2);
    tracer_->Add(restore_span_, epoch_, build.id(), r2, r3);
    out_->offpath_ns += r3 - r0;
    if (check_.count(epoch_) != 0) out_->checked[epoch_] = snap;
    out_->snapshot_bytes = snap->blob().size();

    const uint64_t t0 = NowNs();
    MaxCoverSolution sol = shadow_->Finalize(epoch_, &out_->levels_passing);
    const MaxCoverSolution& want = snap->solution();
    if (sol.estimate != want.estimate || sol.source != want.source ||
        (!shadow_->trivial() && sol.sets != want.sets)) {
      ++out_->shadow_mismatches;
      std::fprintf(stderr,
                   "shadow mismatch at epoch %llu: %.6f %s vs served %.6f %s\n",
                   (unsigned long long)epoch_, sol.estimate,
                   sol.source.c_str(), want.estimate, want.source.c_str());
    }
    out_->offpath_ns += NowNs() - t0;
  }

 private:
  Tracer* tracer_;
  SnapshotStore* store_;
  ShadowStack* shadow_;
  std::set<uint64_t> check_;
  TracedResult* out_;
  uint32_t publish_span_, finalize_span_, serialize_span_, checksum_span_,
      restore_span_, build_span_, store_span_;
  uint64_t epoch_ = 0;
};

// ServingRuntime::IngestInline's loop, with spans.
void TracedInline(const WorkloadSpec& spec, ServingState& state,
                  TimedEdgeStream& stream, ShadowStack& shadow,
                  TracedPublisher& publisher, Tracer* tracer,
                  TracedResult* out) {
  const uint32_t prefold_span = tracer->Intern("runtime.prefold");
  const uint32_t ingest_span = tracer->Intern("serve.ingest");
  EdgeBatch batch(kBatchSize);
  uint64_t segment_edges = 0;
  for (uint64_t batch_id = 0;; ++batch_id) {
    const uint64_t room = spec.cadence - segment_edges;
    const size_t want = std::min<uint64_t>(kBatchSize, room);
    const size_t got = stream.NextBatch(&batch.edges, want);
    if (got == 0) break;
    const uint64_t t0 = NowNs();
    batch.Prefold();
    const uint64_t t1 = NowNs();
    tracer->Add(prefold_span, batch_id, 0, t0, t1);
    state.ProcessBatch(batch.View());
    const uint64_t t2 = NowNs();
    const uint64_t parent = tracer->Add(ingest_span, batch_id, 0, t1, t2);
    out->serve_ingest_ns += t2 - t1;
    shadow.ProcessBatch(batch.View(), batch_id, parent);
    out->offpath_ns += NowNs() - t2;
    out->edges += got;
    segment_edges += got;
    if (segment_edges >= spec.cadence) {
      segment_edges = 0;
      publisher.Publish(state, out->edges, 0);
    }
  }
  if (segment_edges > 0) publisher.Publish(state, out->edges, 0);
}

// ServingRuntime::IngestSharded's loop, with spans: one ShardedPipeline per
// segment, its replicas built through a timed factory. The shadow is fed
// each segment's edges after the segment, while the workers are idle.
void TracedSharded(const WorkloadSpec& spec, const std::vector<Edge>& edges,
                   ServingState& state, TimedEdgeStream& stream,
                   ShadowStack& shadow, TracedPublisher& publisher,
                   Tracer* tracer, TracedResult* out) {
  const uint32_t run_span = tracer->Intern("runtime.segment_run");
  const uint32_t setup_span = tracer->Intern("runtime.pipeline_setup");
  const uint32_t prefold_span = tracer->Intern("runtime.prefold");
  const uint32_t merge_span = tracer->Intern("serve.merge");
  const ServingState::Config config = StateConfig(spec);
  ShardedPipelineOptions popts;
  popts.num_shards = spec.threads;
  popts.batch_size = kBatchSize;
  popts.policy = PartitionPolicy::kByElement;
  MetricsRegistry registry;
  popts.registry = &registry;
  BoundedEdgeStream bounded(&stream, spec.cadence);
  EdgeBatch batch(kBatchSize);
  uint64_t shadow_batch = 0;
  for (uint64_t segment = 1;; ++segment) {
    bounded.Rearm();
    RuntimeSegmentStats seg;
    Tracer::Scope run(tracer, run_span, segment);
    ShardedPipeline<ServingState>::Factory factory = [&](uint32_t) {
      const uint64_t t0 = NowNs();
      ServingState replica(config);
      const uint64_t t1 = NowNs();
      tracer->Add(setup_span, segment, run.id(), t0, t1);
      seg.setup_ns += t1 - t0;
      return replica;
    };
    ShardedPipeline<ServingState> pipeline(popts, factory);
    ServingState merged = pipeline.Run(bounded);
    seg.run_ns = run.End();
    const RuntimeMetrics& rm = pipeline.metrics();
    const uint64_t got = rm.edges_ingested.load();
    if (got == 0) break;
    seg.merge_ns = rm.merge_ns.load();
    seg.wall_ns = rm.wall_ns.load();
    seg.stalled_ns = rm.TotalRingStalledNs();
    seg.shards = rm.num_shards();
    uint64_t max_edges = 0;
    for (uint32_t s = 0; s < rm.num_shards(); ++s) {
      seg.busy_ns += rm.shard(s).busy_ns.load();
      max_edges = std::max<uint64_t>(max_edges, rm.shard(s).edges.load());
    }
    seg.skew = static_cast<double>(max_edges) * rm.num_shards() /
               static_cast<double>(got);
    out->serve_ingest_ns += seg.busy_ns;
    {
      Tracer::Scope m(tracer, merge_span, segment);
      state.Merge(merged);
    }
    const uint64_t begin = out->edges;
    out->edges += got;
    // The shadow catches up on this segment before the publish checks it.
    const uint64_t t0 = NowNs();
    for (uint64_t pos = begin; pos < out->edges; pos += kBatchSize) {
      const uint64_t end = std::min<uint64_t>(pos + kBatchSize, out->edges);
      batch.edges.assign(edges.begin() + static_cast<ptrdiff_t>(pos),
                         edges.begin() + static_cast<ptrdiff_t>(end));
      const uint64_t p0 = NowNs();
      batch.Prefold();
      tracer->Add(prefold_span, shadow_batch, 0, p0, NowNs());
      shadow.ProcessBatch(batch.View(), shadow_batch++, 0);
    }
    out->offpath_ns += NowNs() - t0;
    publisher.Publish(state, out->edges, spec.threads);
    out->segments.push_back(seg);
    if (!stream.ok()) break;
  }
}

}  // namespace

std::vector<uint64_t> CheckEpochs(uint64_t edges, uint64_t cadence) {
  const uint64_t last = (edges + cadence - 1) / cadence;
  std::vector<uint64_t> out = {1, (last + 1) / 2, last};
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TrialResult RunTrial(const WorkloadSpec& spec, const std::vector<Edge>& edges,
                     const std::vector<uint64_t>& check_epochs) {
  TrialResult r;
  MetricsRegistry registry;
  Handouts handouts(edges.size(), spec.cadence);
  const std::set<uint64_t> check(check_epochs.begin(), check_epochs.end());

  const uint64_t t0 = NowNs();
  Server server(spec, &registry, handouts, [&](const SnapshotPtr& snap) {
    const uint64_t now = NowNs();
    r.publish_lag_ns.push_back(static_cast<double>(
        now - handouts.ForEdges(snap->meta().edges_ingested)));
    if (check.count(snap->meta().epoch) != 0) {
      r.checked[snap->meta().epoch] = snap;
    }
  });
  r.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;

  TimedEdgeStream stream(edges, &handouts);
  IngestSummary sum;
  if (spec.threads == 0) {
    ScopedPin pin(0);
    sum = server.runtime.Ingest(stream);
  } else {
    sum = server.runtime.Ingest(stream);
  }
  if (server.readers != nullptr) r.readers = server.readers->Stop();
  r.ingest_s = static_cast<double>(sum.ingest_ns) * 1e-9;
  r.edges = sum.edges;
  r.state_bytes = server.runtime.state().MemoryBytes();
  if (spec.probe_readers > 0) {
    r.readers = QuietProbe(spec, server.store, &registry, handouts, nullptr);
  }
  return r;
}

double MeasureSetup(const WorkloadSpec& spec, uint64_t edges) {
  MetricsRegistry registry;
  Handouts handouts(edges, spec.cadence);
  const uint64_t t0 = NowNs();
  Server server(spec, &registry, handouts, nullptr);
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

TracedResult RunTracedTrial(const WorkloadSpec& spec,
                            const std::vector<Edge>& edges,
                            const std::vector<uint64_t>& check_epochs,
                            Tracer* tracer) {
  TracedResult out;
  const ServingState::Config config = StateConfig(spec);
  MetricsRegistry registry;
  Handouts handouts(edges.size(), spec.cadence);
  SnapshotStore store("perfbench", &registry);
  ServingState state(config);
  ShadowStack shadow(config, tracer);
  TracedPublisher publisher(tracer, &store, &shadow, check_epochs, &out);
  std::unique_ptr<OpenLoopReaders> readers =
      StartReaders(spec, store, &registry, handouts, tracer);
  TimedEdgeStream stream(edges, &handouts, tracer,
                         tracer->Intern("stream.next_batch"));

  const uint64_t t0 = NowNs();
  if (spec.threads == 0) {
    TracedInline(spec, state, stream, shadow, publisher, tracer, &out);
  } else {
    TracedSharded(spec, edges, state, stream, shadow, publisher, tracer, &out);
  }
  out.wall_ns = NowNs() - t0;
  if (readers != nullptr) out.readers = readers->Stop();
  if (spec.probe_readers > 0) {
    out.readers = QuietProbe(spec, store, &registry, handouts, tracer);
  }
  for (uint32_t j : shadow.GuessExponents()) {
    out.large_set_bytes.emplace_back(j, shadow.LargeSetBytes(j));
    out.small_set_bytes.emplace_back(j, shadow.SmallSetBytes(j));
  }
  out.mirror_spans = shadow.mirror_spans();
  return out;
}

CheckedSnapshots ReferencePass(const WorkloadSpec& spec,
                               const std::vector<Edge>& edges,
                               const std::vector<uint64_t>& check_epochs) {
  CheckedSnapshots out;
  ServingState state(StateConfig(spec));
  EdgeBatch batch(kBatchSize);
  uint64_t pos = 0;
  for (uint64_t epoch : check_epochs) {
    const uint64_t end = std::min<uint64_t>(epoch * spec.cadence, edges.size());
    while (pos < end) {
      const uint64_t take = std::min<uint64_t>(kBatchSize, end - pos);
      batch.edges.assign(edges.begin() + static_cast<ptrdiff_t>(pos),
                         edges.begin() + static_cast<ptrdiff_t>(pos + take));
      batch.Prefold();
      state.ProcessBatch(batch.View());
      pos += take;
    }
    SnapshotMeta meta;
    meta.epoch = epoch;
    meta.edges_ingested = pos;
    out[epoch] = CoverageSnapshot::Build(state, meta);
  }
  return out;
}

bool AnswersMatch(const CoverageSnapshot& got, const CoverageSnapshot& want,
                  uint64_t num_sets, std::string* why) {
  bool ok = true;
  auto fail = [&](const std::string& what) {
    ok = false;
    if (!why->empty()) *why += ", ";
    *why += what;
  };
  if (got.meta().edges_ingested != want.meta().edges_ingested) {
    fail("edges_ingested");
  }
  if (got.solution().estimate != want.solution().estimate) fail("estimate");
  if (got.solution().source != want.solution().source) fail("source");
  if (got.solution().sets != want.solution().sets) fail("sets");
  for (uint64_t i = 0; i < 64; ++i) {
    const SetId s = i * num_sets / 64;
    if (got.SetCoverage(s) != want.SetCoverage(s)) {
      fail("set_coverage(" + std::to_string(s) + ")");
      break;
    }
  }
  return ok;
}

}  // namespace perfbench
