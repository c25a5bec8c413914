// SnapshotStore: atomic double-buffered publication of CoverageSnapshots.
//
// One writer (the ingest runtime) publishes at batch boundaries; any number
// of reader threads fetch the current snapshot at query time. The store
// keeps two slots. Readers copy the shared_ptr out of the slot the atomic
// `active_` index names; the writer always installs into the INACTIVE slot
// and then flips the index. So:
//
//   * the writer never waits on the slot readers are being directed to —
//     publication cannot be blocked by query load (the ingest hot path
//     stays reader-independent);
//   * a reader that loaded the index just before a flip still sees a fully
//     constructed snapshot (the slot it names is only rewritten after the
//     NEXT flip, by which time the per-slot mutex covers the handoff);
//   * snapshots are shared_ptr-owned, so a reader holding epoch E keeps it
//     alive arbitrarily long after E+2 is published — readers never observe
//     a snapshot being destroyed under them.
//
// The per-slot mutex guards only the shared_ptr copy itself (refcount +
// pointer, a few ns); it is never held while building, serializing, or
// querying a snapshot.

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
  struct Slot {
    mutable std::mutex mu;
    std::shared_ptr<const CoverageSnapshot> snap;
  };

  std::string name_;
  Slot slots_[2];
  // Index of the slot readers should use. Release/acquire pairs with the
  // slot write, so a reader that sees the new index sees the new snapshot.
  std::atomic<uint32_t> active_{0};
  std::atomic<uint64_t> epoch_{0};

  Counter* published_ = nullptr;
  Gauge* epoch_gauge_ = nullptr;
  Gauge* blob_bytes_gauge_ = nullptr;
  Gauge* edges_gauge_ = nullptr;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_SNAPSHOT_STORE_H_
