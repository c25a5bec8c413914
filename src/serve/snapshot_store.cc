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
  const uint64_t epoch = snap->meta().epoch;
  blob_bytes_gauge_->Set(snap->blob().size());
  edges_gauge_->Set(snap->meta().edges_ingested);
  published_->Increment();
  {
    // Readers hold the lock only for a shared_ptr copy, so the writer's
    // wait is bounded by nanoseconds, never by query execution.
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(snap);
  }
  // Advertise the epoch only once the snapshot is installed: a reader that
  // sees epoch() == E must get a Current() of epoch E or later.
  epoch_gauge_->Set(epoch);
  epoch_.store(epoch, std::memory_order_release);
  // `snap` now holds the replaced snapshot; the last reference to it (if
  // no reader holds one) drops here, outside the lock.
}

std::shared_ptr<const CoverageSnapshot> SnapshotStore::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace streamkc
