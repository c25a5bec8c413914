#include "serve/snapshot_store.h"

#include <utility>

#include "util/check.h"

namespace streamkc {

SnapshotStore::SnapshotStore(std::string name, MetricsRegistry* registry)
    : name_(std::move(name)) {
  MetricsRegistry* reg = registry ? registry : &MetricsRegistry::Global();
  published_ = reg->GetCounter(
      LabeledName("serve_snapshots_published_total", "store", name_));
  epoch_gauge_ =
      reg->GetGauge(LabeledName("serve_snapshot_epoch", "store", name_));
  blob_bytes_gauge_ =
      reg->GetGauge(LabeledName("serve_snapshot_blob_bytes", "store", name_));
  edges_gauge_ =
      reg->GetGauge(LabeledName("serve_snapshot_edges", "store", name_));
}

void SnapshotStore::Publish(std::shared_ptr<const CoverageSnapshot> snap) {
  CHECK(snap != nullptr);
  CHECK_GT(snap->meta().epoch, epoch_.load(std::memory_order_relaxed));
  uint32_t write_slot = 1 - active_.load(std::memory_order_relaxed);
  const uint64_t epoch = snap->meta().epoch;
  blob_bytes_gauge_->Set(snap->blob().size());
  edges_gauge_->Set(snap->meta().edges_ingested);
  published_->Increment();
  {
    // Only readers that loaded a stale index can be holding this slot, and
    // only for the duration of a shared_ptr copy — the writer's wait is
    // bounded by nanoseconds, never by query execution.
    std::lock_guard<std::mutex> lock(slots_[write_slot].mu);
    slots_[write_slot].snap = std::move(snap);
  }
  active_.store(write_slot, std::memory_order_release);
  // Advertise the epoch only once the snapshot is installed: a reader that
  // sees epoch() == E must get a Current() of epoch E or later.
  epoch_gauge_->Set(epoch);
  epoch_.store(epoch, std::memory_order_release);
}

std::shared_ptr<const CoverageSnapshot> SnapshotStore::Current() const {
  // A read returns one of the two most recently published snapshots: the
  // index load and the slot copy are not one atomic step, so a publish
  // between them can hand back the previous epoch. That is exactly the
  // staleness the SnapshotMeta on every answer reports.
  uint32_t idx = active_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(slots_[idx].mu);
  return slots_[idx].snap;
}

}  // namespace streamkc
