#include "dist/dist_metrics.h"

#include <cinttypes>
#include <cstdio>

namespace streamkc {

uint64_t DistMetrics::TotalEdgesIngested() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.edges_ingested;
  return total;
}

uint64_t DistMetrics::TotalEdgesProcessed() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.edges_processed;
  return total;
}

uint64_t DistMetrics::TotalEdgesDiscarded() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.edges_discarded;
  return total;
}

uint64_t DistMetrics::TotalStreamRetries() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.stream_retries;
  return total;
}

uint64_t DistMetrics::TotalBytesShipped() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.bytes_shipped;
  return total;
}

uint64_t DistMetrics::TotalCheckpointsWritten() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.checkpoints_written;
  return total;
}

uint64_t DistMetrics::TotalCheckpointsLoaded() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.checkpoints_loaded;
  return total;
}

uint64_t DistMetrics::TotalCheckpointsRejected() const {
  uint64_t total = 0;
  for (const auto& w : workers) total += w.counters.checkpoints_rejected;
  return total;
}

uint32_t DistMetrics::TotalRespawns() const {
  uint32_t total = 0;
  for (const auto& w : workers) total += w.respawns;
  return total;
}

uint32_t DistMetrics::TotalCrcRejections() const {
  uint32_t total = 0;
  for (const auto& w : workers) total += w.crc_rejections;
  return total;
}

uint32_t DistMetrics::WorkersQuarantined() const {
  uint32_t total = 0;
  for (const auto& w : workers) total += w.quarantined ? 1 : 0;
  return total;
}

uint32_t DistMetrics::FingerprintCorruptions() const {
  uint32_t total = 0;
  for (const auto& w : workers) total += w.fingerprint_corrupted ? 1 : 0;
  return total;
}

std::string DistMetrics::ToJson() const {
  char buf[2048];
  std::string out;
  out.reserve(1024 + 512 * workers.size());
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "    \"num_workers\": %u,\n"
      "    \"num_segments\": %u,\n"
      "    \"poll_wakeups\": %" PRIu64 ",\n"
      "    \"edges_ingested\": %" PRIu64 ",\n"
      "    \"edges_processed\": %" PRIu64 ",\n"
      "    \"edges_discarded\": %" PRIu64 ",\n"
      "    \"stream_retries\": %" PRIu64 ",\n"
      "    \"bytes_shipped\": %" PRIu64 ",\n"
      "    \"frames_received\": %" PRIu64 ",\n"
      "    \"crc_rejections\": %u,\n"
      "    \"fingerprint_corruptions_detected\": %u,\n"
      "    \"workers_respawned\": %u,\n"
      "    \"workers_quarantined\": %u,\n"
      "    \"checkpoints_written\": %" PRIu64 ",\n"
      "    \"checkpoints_loaded\": %" PRIu64 ",\n"
      "    \"checkpoints_rejected\": %" PRIu64 ",\n"
      "    \"merges\": %" PRIu64 ",\n"
      "    \"merge_ns\": %" PRIu64 ",\n"
      "    \"wall_ns\": %" PRIu64 ",\n"
      "    \"edges_per_second\": %.0f,\n"
      "    \"workers\": [",
      num_workers, num_segments, poll_wakeups, TotalEdgesIngested(),
      TotalEdgesProcessed(), TotalEdgesDiscarded(), TotalStreamRetries(),
      TotalBytesShipped(), frames_received, TotalCrcRejections(),
      FingerprintCorruptions(), TotalRespawns(), WorkersQuarantined(),
      TotalCheckpointsWritten(), TotalCheckpointsLoaded(),
      TotalCheckpointsRejected(), merge.merges, merge.merge_ns, wall_ns,
      EdgesPerSecond());
  out += buf;
  for (size_t i = 0; i < workers.size(); ++i) {
    const DistWorkerRow& w = workers[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n      {\"worker\": %u, \"edges_ingested\": %" PRIu64
        ", \"edges_processed\": %" PRIu64 ", \"edges_discarded\": %" PRIu64
        ", \"batches\": %" PRIu64 ", \"stream_retries\": %" PRIu64
        ", \"truncated_segments\": %" PRIu64
        ", \"segments_assigned\": %u, \"segments_done\": %" PRIu64
        ", \"checkpoints_written\": %" PRIu64
        ", \"checkpoints_loaded\": %" PRIu64
        ", \"checkpoints_rejected\": %" PRIu64
        ", \"bytes_shipped\": %" PRIu64
        ", \"respawns\": %u, \"crc_rejections\": %u, \"quarantined\": %d"
        ", \"fingerprint_corrupted\": %d}",
        i == 0 ? "" : ",", w.worker, w.counters.edges_ingested,
        w.counters.edges_processed, w.counters.edges_discarded,
        w.counters.batches, w.counters.stream_retries,
        w.counters.truncated_segments, w.segments_assigned,
        w.counters.segments_done, w.counters.checkpoints_written,
        w.counters.checkpoints_loaded, w.counters.checkpoints_rejected,
        w.bytes_shipped, w.respawns,
        w.crc_rejections, w.quarantined ? 1 : 0,
        w.fingerprint_corrupted ? 1 : 0);
    out += buf;
  }
  out += "\n    ]\n  }";
  return out;
}

void DistMetrics::PublishTo(MetricsRegistry* registry) const {
  auto set = [&](const char* name, uint64_t v) {
    registry->GetGauge(name)->Set(v);
  };
  set("dist_num_workers", num_workers);
  set("dist_num_segments", num_segments);
  set("dist_edges_ingested_total", TotalEdgesIngested());
  set("dist_edges_processed_total", TotalEdgesProcessed());
  set("dist_edges_discarded_total", TotalEdgesDiscarded());
  set("dist_stream_retries_total", TotalStreamRetries());
  set("dist_bytes_shipped_total", TotalBytesShipped());
  set("dist_frames_received_total", frames_received);
  set("dist_crc_rejections_total", TotalCrcRejections());
  set("dist_fingerprint_corruptions_detected", FingerprintCorruptions());
  set("dist_workers_respawned_total", TotalRespawns());
  set("dist_workers_quarantined", WorkersQuarantined());
  set("dist_checkpoints_written_total", TotalCheckpointsWritten());
  set("dist_checkpoints_loaded_total", TotalCheckpointsLoaded());
  set("dist_checkpoints_rejected_total", TotalCheckpointsRejected());
  set("dist_poll_wakeups_total", poll_wakeups);
  set("dist_merges_total", merge.merges);
  set("dist_merge_ns", merge.merge_ns);
  set("dist_wall_ns", wall_ns);
  for (const DistWorkerRow& w : workers) {
    std::string worker = std::to_string(w.worker);
    auto set_worker = [&](const char* name, uint64_t v) {
      registry->GetGauge(LabeledName(name, "worker", worker))->Set(v);
    };
    set_worker("dist_worker_edges_total", w.counters.edges_processed);
    set_worker("dist_worker_bytes_shipped_total", w.bytes_shipped);
    set_worker("dist_worker_respawns_total", w.respawns);
    set_worker("dist_worker_quarantined", w.quarantined ? 1 : 0);
    set_worker("dist_worker_checkpoints_written_total",
               w.counters.checkpoints_written);
  }
}

}  // namespace streamkc
