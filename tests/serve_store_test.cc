// SnapshotStore contract: publication never blocks readers behind the
// writer or hands them a partially installed snapshot, epochs are strictly
// increasing, and a reader that holds an old snapshot keeps it alive
// arbitrarily long after newer publishes. The concurrent section hammers
// publish/read from many threads and asserts the epoch window — a read
// returns the snapshot installed last, so at most one publish behind the
// writer's announced progress — plus integrity of every snapshot handed
// out. The stress
// ctest entry re-runs it at a higher publish count (STREAMKC_STORE_ROUNDS).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/params.h"
#include "obs/metrics.h"
#include "serve/serving_state.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"

namespace streamkc {
namespace {

ServingState::Config TestConfig() {
  ServingState::Config config;
  config.params = Params::Practical(128, 256, 8, 8.0);
  config.seed = 11;
  return config;
}

// One snapshot per epoch, each built from a state that has seen `epoch`
// extra edges so consecutive snapshots differ.
std::shared_ptr<const CoverageSnapshot> MakeSnapshot(ServingState* state,
                                                     uint64_t epoch) {
  state->Process(Edge{epoch % 128, epoch % 256});
  SnapshotMeta meta;
  meta.epoch = epoch;
  meta.edges_ingested = epoch;
  meta.batches_ingested = epoch;
  return CoverageSnapshot::Build(*state, meta);
}

TEST(SnapshotStore, EmptyBeforeFirstPublish) {
  MetricsRegistry registry;
  SnapshotStore store("t0", &registry);
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.epoch(), 0u);
}

TEST(SnapshotStore, PublishInstallsAndAdvancesEpoch) {
  MetricsRegistry registry;
  SnapshotStore store("t1", &registry);
  ServingState state(TestConfig());
  store.Publish(MakeSnapshot(&state, 1));
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->meta().epoch, 1u);
  EXPECT_EQ(store.epoch(), 1u);
  store.Publish(MakeSnapshot(&state, 2));
  EXPECT_EQ(store.Current()->meta().epoch, 2u);
  EXPECT_EQ(store.epoch(), 2u);
}

TEST(SnapshotStore, GaugesTrackLatestPublish) {
  MetricsRegistry registry;
  SnapshotStore store("t2", &registry);
  ServingState state(TestConfig());
  store.Publish(MakeSnapshot(&state, 1));
  auto snap = MakeSnapshot(&state, 2);
  store.Publish(snap);
  EXPECT_EQ(
      registry.GetCounter(LabeledName("serve_snapshots_published_total",
                                      "store", "t2"))->Value(),
      2u);
  EXPECT_EQ(
      registry.GetGauge(LabeledName("serve_snapshot_epoch", "store", "t2"))
          ->Value(),
      2u);
  EXPECT_EQ(
      registry.GetGauge(LabeledName("serve_snapshot_blob_bytes", "store",
                                    "t2"))->Value(),
      snap->blob().size());
}

TEST(SnapshotStore, ReaderKeepsOldSnapshotAlive) {
  MetricsRegistry registry;
  SnapshotStore store("t3", &registry);
  ServingState state(TestConfig());
  store.Publish(MakeSnapshot(&state, 1));
  std::shared_ptr<const CoverageSnapshot> held = store.Current();
  ASSERT_EQ(held->meta().epoch, 1u);
  // The store replaces it 4 times over; the held snapshot must stay fully
  // valid (shared_ptr ownership, never recycled storage).
  for (uint64_t e = 2; e <= 5; ++e) store.Publish(MakeSnapshot(&state, e));
  EXPECT_EQ(held->meta().epoch, 1u);
  EXPECT_EQ(CoverageSnapshot::FromBlob(held->blob())->meta().epoch, 1u);
  EXPECT_EQ(store.Current()->meta().epoch, 5u);
}

using SnapshotStoreDeathTest = ::testing::Test;

TEST(SnapshotStoreDeathTest, NonIncreasingEpochAborts) {
  MetricsRegistry registry;
  SnapshotStore store("t4", &registry);
  ServingState state(TestConfig());
  store.Publish(MakeSnapshot(&state, 2));
  EXPECT_DEATH(store.Publish(MakeSnapshot(&state, 2)), "CHECK");
}

TEST(SnapshotStoreDeathTest, NullSnapshotAborts) {
  MetricsRegistry registry;
  SnapshotStore store("t5", &registry);
  EXPECT_DEATH(store.Publish(nullptr), "CHECK");
}

// Concurrent publish/read: one writer publishing `rounds` epochs, many
// readers spinning Current(). Every read must observe a fully constructed
// snapshot whose epoch is at most the writer's progress and at least
// (published - 1) at the moment of the read — the one-slot store's window.
TEST(SnapshotStore, ConcurrentPublishAndReadStress) {
  uint64_t rounds = 200;
  if (const char* env = std::getenv("STREAMKC_STORE_ROUNDS")) {
    rounds = std::strtoull(env, nullptr, 10);
  }
  MetricsRegistry registry;
  SnapshotStore store("t6", &registry);
  std::atomic<uint64_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> violations{0};

  const unsigned kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t local_reads = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Writer progress BEFORE the read: the read's result must be one of
        // the two most recent snapshots as of some moment at or after this.
        uint64_t before = published.load(std::memory_order_acquire);
        std::shared_ptr<const CoverageSnapshot> snap = store.Current();
        uint64_t after = published.load(std::memory_order_acquire);
        ++local_reads;
        if (snap == nullptr) {
          // `published == E` is announced just before Publish(E) runs, so a
          // null read is only legal while the first publish may still be in
          // flight (before <= 1).
          if (before >= 2) violations.fetch_add(1);
          continue;
        }
        uint64_t e = snap->meta().epoch;
        // Sanity on internal consistency: meta fields written together.
        if (snap->meta().edges_ingested != e) violations.fetch_add(1);
        // Epoch window: cannot be newer than the writer, cannot lag the
        // writer's pre-read progress by 2+ (one slot, so at most the
        // publish still in flight is not yet visible).
        if (e > after) violations.fetch_add(1);
        if (before >= 2 && e < before - 1) violations.fetch_add(1);
      }
      reads.fetch_add(local_reads);
    });
  }

  ServingState state(TestConfig());
  for (uint64_t epoch = 1; epoch <= rounds; ++epoch) {
    auto snap = MakeSnapshot(&state, epoch);
    // Announce progress BEFORE the publish: a reader that observes
    // `published == E` is then guaranteed the E-1 install completed (the
    // store above synchronizes with the reader's acquire), so its read
    // returns epoch >= E-1; and no read can return an epoch whose announce it
    // hasn't seen, so epoch <= the post-read load. Together: every read is
    // one of the two most recently published snapshots.
    published.store(epoch, std::memory_order_release);
    store.Publish(snap);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.Current()->meta().epoch, rounds);
}

// A reader that trusts epoch() must be able to read that epoch: once
// epoch() returns E, Current() is non-null and at least epoch E. Readers
// spin on epoch() while the writer publishes prebuilt snapshots back to
// back, so every publish's install window is under observation. The writer
// publishes the first snapshot, then waits until every reader has made a
// checked read: the rest of the burst takes well under a millisecond, and
// readers that were still off-CPU would otherwise miss all of it.
TEST(SnapshotStore, EpochIsAdvertisedOnlyAfterItsSnapshotIsReadable) {
  const uint64_t kRounds = 256;
  ServingState state(TestConfig());
  std::vector<std::shared_ptr<const CoverageSnapshot>> snaps;
  snaps.reserve(kRounds);
  for (uint64_t e = 1; e <= kRounds; ++e) {
    snaps.push_back(MakeSnapshot(&state, e));
  }
  MetricsRegistry registry;
  SnapshotStore store("t7", &registry);
  std::atomic<bool> stop{false};
  std::atomic<unsigned> spinning{0};
  std::atomic<unsigned> readers_checked{0};
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> unreadable{0};
  std::atomic<uint64_t> behind{0};

  const unsigned kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t local_checked = 0;
      spinning.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t seen = store.epoch();
        if (seen == 0) continue;
        std::shared_ptr<const CoverageSnapshot> snap = store.Current();
        if (++local_checked == 1) readers_checked.fetch_add(1);
        if (snap == nullptr) {
          unreadable.fetch_add(1);
        } else if (snap->meta().epoch < seen) {
          behind.fetch_add(1);
        }
      }
      checked.fetch_add(local_checked);
    });
  }
  while (spinning.load() < kReaders) std::this_thread::yield();
  store.Publish(std::move(snaps.front()));
  while (readers_checked.load() < kReaders) std::this_thread::yield();
  for (size_t i = 1; i < snaps.size(); ++i) store.Publish(std::move(snaps[i]));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(unreadable.load(), 0u) << "epoch() advertised before Current()";
  EXPECT_EQ(behind.load(), 0u) << "Current() older than the epoch() seen";
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(store.epoch(), kRounds);
}

}  // namespace
}  // namespace streamkc
