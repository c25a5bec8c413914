// SnapshotStore: atomic publication of CoverageSnapshots.
//
// One writer (the ingest runtime) publishes at batch boundaries; any number
// of reader threads fetch the current snapshot at query time. The store
// keeps one shared_ptr behind one mutex; the mutex guards only the pointer
// copy or swap itself (refcount + pointer, a few ns) and is never held
// while building, serializing, querying or destroying a snapshot. So:
//
//   * publication cannot be blocked by query load beyond one pointer copy
//     (the ingest hot path stays reader-independent);
//   * a read returns the latest installed snapshot, fully constructed;
//   * snapshots are shared_ptr-owned, so a reader holding epoch E keeps it
//     alive arbitrarily long after E+1 is published — readers never
//     observe a snapshot being destroyed under them, and the writer drops
//     its reference to the replaced snapshot outside the lock.

#ifndef STREAMKC_SERVE_SNAPSHOT_STORE_H_
#define STREAMKC_SERVE_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace streamkc {

class SnapshotStore {
 public:
  // `name` labels the store's metrics (serve_snapshot_epoch{store="name"});
  // `registry` nullptr = the process-wide registry.
  explicit SnapshotStore(std::string name = "default",
                         MetricsRegistry* registry = nullptr);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Installs `snap` as the current snapshot. Single writer; epochs must be
  // published in increasing order (CHECKed).
  void Publish(std::shared_ptr<const CoverageSnapshot> snap);

  // The current snapshot, or nullptr before the first publish. Safe from
  // any thread, any number of concurrent callers.
  std::shared_ptr<const CoverageSnapshot> Current() const;

  // Epoch of the latest published snapshot (0 before the first publish).
  // Stored after the snapshot is installed, so once a reader sees epoch E,
  // Current() returns a snapshot of epoch E or later, never nullptr.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  mutable std::mutex mu_;
  std::shared_ptr<const CoverageSnapshot> current_;
  std::atomic<uint64_t> epoch_{0};

  Counter* published_ = nullptr;
  Gauge* epoch_gauge_ = nullptr;
  Gauge* blob_bytes_gauge_ = nullptr;
  Gauge* edges_gauge_ = nullptr;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_SNAPSHOT_STORE_H_
