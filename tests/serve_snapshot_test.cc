// CoverageSnapshot contract: Build precomputes the answers a snapshot
// serves, the blob round-trips losslessly, and EVERY form of corruption —
// wrong magic, wrong version, flipped payload byte, forged checksum,
// truncation — dies loudly instead of restoring garbage (the
// sketch_serialize_test discipline, applied to the serving tier).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/params.h"
#include "serve/serving_state.h"
#include "serve/snapshot.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"

namespace streamkc {
namespace {

ServingState::Config TestConfig(uint64_t seed = 7) {
  ServingState::Config config;
  config.params = Params::Practical(256, 512, 8, 8.0);
  config.seed = seed;
  return config;
}

std::vector<Edge> TestEdges(uint64_t seed = 3) {
  GeneratedInstance inst = PlantedCover(256, 512, 8, 0.5, 6, seed);
  auto edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, seed);
  return edges;
}

ServingState FedState(const std::vector<Edge>& edges) {
  ServingState state(TestConfig());
  for (const Edge& e : edges) state.Process(e);
  return state;
}

SnapshotMeta TestMeta() {
  SnapshotMeta meta;
  meta.epoch = 3;
  meta.edges_ingested = 12345;
  meta.batches_ingested = 3;
  meta.shards = 4;
  meta.publish_steady_ns = 999;
  return meta;
}

TEST(CoverageSnapshot, BuildCarriesMetaAndFinalizedAnswer) {
  auto edges = TestEdges();
  ServingState state = FedState(edges);
  MaxCoverSolution expect = state.FinalizeSolution();

  auto snap = CoverageSnapshot::Build(state, TestMeta());
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->meta().epoch, 3u);
  EXPECT_EQ(snap->meta().edges_ingested, 12345u);
  EXPECT_EQ(snap->meta().batches_ingested, 3u);
  EXPECT_EQ(snap->meta().shards, 4u);
  EXPECT_EQ(snap->meta().publish_steady_ns, 999u);
  EXPECT_DOUBLE_EQ(snap->solution().estimate, expect.estimate);
  EXPECT_EQ(snap->solution().source, expect.source);
  EXPECT_EQ(snap->solution().sets, expect.sets);
}

TEST(CoverageSnapshot, SetCoverageMatchesLiveSketch) {
  auto edges = TestEdges();
  ServingState state = FedState(edges);
  auto snap = CoverageSnapshot::Build(state, TestMeta());
  // The snapshot's sketch traveled through the blob; point queries must be
  // bit-identical to the live sketch's.
  for (SetId s = 0; s < 32; ++s) {
    EXPECT_DOUBLE_EQ(snap->SetCoverage(s), state.set_coverage().PointQuery(s))
        << "set " << s;
  }
}

TEST(CoverageSnapshot, FromBlobRoundTripsExactly) {
  ServingState state = FedState(TestEdges());
  auto snap = CoverageSnapshot::Build(state, TestMeta());
  auto restored = CoverageSnapshot::FromBlob(snap->blob());
  EXPECT_EQ(restored->blob(), snap->blob());
  EXPECT_EQ(restored->meta().epoch, snap->meta().epoch);
  EXPECT_DOUBLE_EQ(restored->solution().estimate, snap->solution().estimate);
  EXPECT_EQ(restored->solution().sets, snap->solution().sets);
  for (SetId s = 0; s < 16; ++s) {
    EXPECT_DOUBLE_EQ(restored->SetCoverage(s), snap->SetCoverage(s));
  }
}

TEST(CoverageSnapshot, AgeClampsBackwardClock) {
  ServingState state = FedState(TestEdges());
  auto snap = CoverageSnapshot::Build(state, TestMeta());  // published at 999
  EXPECT_EQ(snap->AgeNs(1999), 1000u);
  EXPECT_EQ(snap->AgeNs(0), 0u);  // clock ran backwards: age 0, not huge
}

using CoverageSnapshotDeathTest = ::testing::Test;

TEST(CoverageSnapshotDeathTest, CorruptMagicAborts) {
  ServingState state = FedState(TestEdges());
  std::string blob = CoverageSnapshot::Build(state, TestMeta())->blob();
  blob[0] = 'X';
  EXPECT_DEATH(CoverageSnapshot::FromBlob(blob), "CHECK failed");
}

TEST(CoverageSnapshotDeathTest, WrongVersionAborts) {
  ServingState state = FedState(TestEdges());
  std::string blob = CoverageSnapshot::Build(state, TestMeta())->blob();
  uint32_t bad_version = 99;
  std::memcpy(blob.data() + 4, &bad_version, sizeof(bad_version));
  EXPECT_DEATH(CoverageSnapshot::FromBlob(blob), "CHECK failed");
}

// Version 1 carried a quarantined-shard fraction that version 2 dropped:
// its payload no longer parses as this build's, so it must be rejected by
// its version.
TEST(CoverageSnapshotDeathTest, VersionOneBlobIsRejectedByItsVersion) {
  ServingState state = FedState(TestEdges());
  std::string blob = CoverageSnapshot::Build(state, TestMeta())->blob();
  uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, sizeof(version));
  ASSERT_EQ(version, 2u);
  version = 1;
  std::memcpy(blob.data() + 4, &version, sizeof(version));
  EXPECT_DEATH(CoverageSnapshot::FromBlob(blob), "CHECK failed");
}

TEST(CoverageSnapshotDeathTest, FlippedPayloadByteAborts) {
  ServingState state = FedState(TestEdges());
  std::string blob = CoverageSnapshot::Build(state, TestMeta())->blob();
  // Flip one byte in the middle of the payload: the checksum must catch it
  // before any field parse could misbehave.
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_DEATH(CoverageSnapshot::FromBlob(blob), "CHECK failed");
}

TEST(CoverageSnapshotDeathTest, ForgedChecksumAborts) {
  ServingState state = FedState(TestEdges());
  std::string blob = CoverageSnapshot::Build(state, TestMeta())->blob();
  // The checksum lives right after the 8-byte header. Forging it proves the
  // check compares against recomputation, not against itself.
  uint64_t forged = 0xDEADBEEFDEADBEEFull;
  std::memcpy(blob.data() + 8, &forged, sizeof(forged));
  EXPECT_DEATH(CoverageSnapshot::FromBlob(blob), "CHECK failed");
}

TEST(CoverageSnapshotDeathTest, TruncatedBlobAborts) {
  ServingState state = FedState(TestEdges());
  std::string blob = CoverageSnapshot::Build(state, TestMeta())->blob();
  EXPECT_DEATH(CoverageSnapshot::FromBlob(blob.substr(0, blob.size() / 2)),
               "CHECK failed");
}

TEST(CoverageSnapshotDeathTest, EmptyBlobAborts) {
  EXPECT_DEATH(CoverageSnapshot::FromBlob(std::string()), "CHECK failed");
}

}  // namespace
}  // namespace streamkc
