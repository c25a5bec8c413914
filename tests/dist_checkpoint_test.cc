// Checkpoint blob lockdown (src/dist/checkpoint.h): round-trip fidelity,
// death on every corruption class (truncation, bit flips in every region,
// version/magic bumps, trailing garbage), atomic tmp+rename publication,
// cadence bookkeeping, the end-to-end recovery property — a run that
// resumes from a checkpoint finishes byte-identical to one never killed —
// and a reused checkpoint directory, whose earlier run's files a respawn
// must never load.
//
// Corruption has two audiences. DecodeCheckpoint/LoadCheckpointFile stay
// CHECK-hard (the death tests below) for callers that must never consume a
// bad blob silently. The worker recovery path instead uses the Try*
// variants: a torn file (host crash mid-write that beat the fsync) is
// REJECTED and the block re-ingested from scratch — CHECK-aborting there
// would turn one bad file into a respawn loop that can never converge (see
// process_tree.h's failure matrix and the TornFile tests below).

#include "dist/checkpoint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "dist/frame.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "runtime/sketch_states.h"
#include "test_util.h"

namespace streamkc {
namespace {

Checkpoint MakeCheckpoint() {
  CoverageSketchState state{CoverageSketchState::Config{}};
  for (const Edge& e : SyntheticEdges(5000, /*seed=*/42)) state.Process(e);
  Checkpoint ckpt;
  ckpt.worker = 3;
  ckpt.segments_done = 7;
  ckpt.counters.edges_ingested = 5000;
  ckpt.counters.edges_processed = 5000;
  ckpt.counters.batches = 2;
  ckpt.counters.segments_done = 7;
  ckpt.counters.checkpoints_written = 1;
  ckpt.fingerprint = state.MergeFingerprint();
  std::ostringstream os;
  state.Save(os);
  ckpt.state_blob = os.str();
  return ckpt;
}

TEST(DistCheckpoint, RoundTripsEveryField) {
  Checkpoint ckpt = MakeCheckpoint();
  Checkpoint back = DecodeCheckpoint(EncodeCheckpoint(ckpt));
  EXPECT_EQ(back.worker, ckpt.worker);
  EXPECT_EQ(back.segments_done, ckpt.segments_done);
  EXPECT_EQ(back.counters.edges_ingested, ckpt.counters.edges_ingested);
  EXPECT_EQ(back.counters.batches, ckpt.counters.batches);
  EXPECT_EQ(back.counters.checkpoints_written,
            ckpt.counters.checkpoints_written);
  EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(back.state_blob, ckpt.state_blob);
  // The carried state blob itself reloads into a working sketch.
  std::istringstream is(back.state_blob);
  CoverageSketchState state = CoverageSketchState::Load(is);
  EXPECT_EQ(state.MergeFingerprint(), ckpt.fingerprint);
}

TEST(DistCheckpoint, FileRoundTripAndExistenceProbe) {
  ScopedTempDir dir;
  std::string path = CheckpointPath(dir.path(), 3);
  EXPECT_EQ(path, dir.path() + "/ckpt_w3.bin");
  EXPECT_FALSE(CheckpointFileExists(path));
  Checkpoint ckpt = MakeCheckpoint();
  WriteCheckpointFile(path, ckpt);
  EXPECT_TRUE(CheckpointFileExists(path));
  EXPECT_EQ(DecodeCheckpoint(EncodeCheckpoint(ckpt)).state_blob,
            LoadCheckpointFile(path).state_blob);
  // Publication is atomic: no .tmp file survives a successful write.
  EXPECT_FALSE(CheckpointFileExists(path + ".tmp"));
}

TEST(DistCheckpointDeathTest, TruncatedBlobDiesAtEveryLength) {
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  // Probe a spread of cut points: inside the header, inside the CRC, and
  // inside the body (every length would be minutes of forking; the classes
  // are what matters).
  for (size_t cut : {size_t{0}, size_t{3}, size_t{7}, size_t{11},
                     size_t{19}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_DEATH(DecodeCheckpoint(bytes.substr(0, cut)), "CHECK failed")
        << "cut=" << cut;
  }
}

TEST(DistCheckpointDeathTest, BitFlipAnywhereDies) {
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  // One flip per region: magic, version, body_len, crc, each body field
  // area, and deep inside the sketch blob.
  for (size_t pos : {size_t{0}, size_t{5}, size_t{9}, size_t{17},
                     size_t{21}, size_t{30}, size_t{45},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_DEATH(DecodeCheckpoint(bad), "CHECK failed") << "pos=" << pos;
  }
}

TEST(DistCheckpointDeathTest, VersionBumpAndWrongMagicDie) {
  Checkpoint ckpt = MakeCheckpoint();
  std::string bytes = EncodeCheckpoint(ckpt);
  std::string bumped = bytes;
  bumped[4] = static_cast<char>(bumped[4] + 1);  // version LSB
  EXPECT_DEATH(DecodeCheckpoint(bumped), "CHECK failed");
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_DEATH(DecodeCheckpoint(wrong_magic), "CHECK failed");
}

TEST(DistCheckpointDeathTest, TrailingGarbageDies) {
  // A concatenated or partially overwritten file must not load even though
  // its prefix is a valid checkpoint.
  std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  EXPECT_DEATH(DecodeCheckpoint(bytes + "x"), "CHECK failed");
  EXPECT_DEATH(DecodeCheckpoint(bytes + bytes), "CHECK failed");
}

TEST(DistCheckpointDeathTest, MissingFileDies) {
  ScopedTempDir dir;
  EXPECT_DEATH(LoadCheckpointFile(CheckpointPath(dir.path(), 0)),
               "CHECK failed");
}

TEST(DistCheckpoint, ResumeFromCheckpointEqualsNeverKilledRun) {
  // The recovery identity behind the kill-respawn differential: ingesting
  // segments [0, C) into a checkpoint, reloading it, and ingesting [C, S)
  // yields the same serialized state as one uninterrupted pass.
  std::vector<Edge> edges = SyntheticEdges(12000, /*seed=*/9);
  constexpr uint32_t kSegments = 6;
  constexpr uint32_t kCut = 2;  // checkpoint after this many segments

  CoverageSketchState::Config config;
  auto ingest = [&](CoverageSketchState* state, uint32_t from, uint32_t to) {
    for (uint32_t seg = from; seg < to; ++seg) {
      auto stream = MakeEdgeSpanSegment(edges, seg, kSegments);
      Edge e;
      while (stream->Next(&e)) state->Process(e);
    }
  };

  CoverageSketchState uninterrupted(config);
  ingest(&uninterrupted, 0, kSegments);
  std::ostringstream ref;
  uninterrupted.Save(ref);

  ScopedTempDir dir;
  std::string path = CheckpointPath(dir.path(), 0);
  {
    CoverageSketchState first(config);
    ingest(&first, 0, kCut);
    Checkpoint ckpt;
    ckpt.worker = 0;
    ckpt.segments_done = kCut;
    ckpt.fingerprint = first.MergeFingerprint();
    std::ostringstream os;
    first.Save(os);
    ckpt.state_blob = os.str();
    WriteCheckpointFile(path, ckpt);
    // `first` is abandoned here: the simulated crash. Everything past the
    // checkpoint dies with it.
    ingest(&first, kCut, kCut + 1);
  }
  Checkpoint loaded = LoadCheckpointFile(path);
  std::istringstream is(loaded.state_blob);
  CoverageSketchState resumed = CoverageSketchState::Load(is);
  ingest(&resumed, static_cast<uint32_t>(loaded.segments_done), kSegments);
  std::ostringstream got;
  resumed.Save(got);
  EXPECT_EQ(got.str(), ref.str());
}

TEST(DistCheckpoint, TryDecodeRejectsEveryCorruptionClassWithoutDying) {
  // The non-fatal twin of the death tests above: same corruption classes,
  // but the Try decoder reports them as a verdict the worker can act on.
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  Checkpoint out;
  std::string error;
  ASSERT_TRUE(TryDecodeCheckpoint(bytes, &out, &error)) << error;
  EXPECT_FALSE(TryDecodeCheckpoint("", &out, &error));
  for (size_t cut : {size_t{0}, size_t{3}, size_t{7}, size_t{11},
                     size_t{19}, bytes.size() / 2, bytes.size() - 1}) {
    error.clear();
    EXPECT_FALSE(TryDecodeCheckpoint(bytes.substr(0, cut), &out, &error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }
  for (size_t pos : {size_t{0}, size_t{5}, size_t{9}, size_t{17},
                     size_t{21}, size_t{30}, size_t{45},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_FALSE(TryDecodeCheckpoint(bad, &out, &error)) << "pos=" << pos;
  }
  EXPECT_FALSE(TryDecodeCheckpoint(bytes + "x", &out, &error));
  EXPECT_FALSE(TryDecodeCheckpoint(bytes + bytes, &out, &error));
}

TEST(DistCheckpoint, VersionOneFileIsRejectedByItsVersion) {
  // Version 1 carried an 11-word WorkerCounters block; version 2 carries
  // 10. A version-1 file fails on its version field, whatever its length.
  std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  ASSERT_EQ(bytes[4], 2);  // version LSB
  bytes[4] = 1;
  Checkpoint out;
  std::string error;
  EXPECT_FALSE(TryDecodeCheckpoint(bytes, &out, &error));
  EXPECT_EQ(error, "unsupported version");
}

TEST(DistCheckpoint, TryLoadRejectsMissingAndTornFilesWithoutDying) {
  ScopedTempDir dir;
  const std::string path = CheckpointPath(dir.path(), 0);
  Checkpoint out;
  std::string error;
  EXPECT_FALSE(TryLoadCheckpointFile(path, &out, &error));
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  dir.WriteFile("ckpt_w0.bin", bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(TryLoadCheckpointFile(path, &out, &error));
  EXPECT_FALSE(error.empty());
  // A fresh write REPLACES the torn file (rename over it), and loads.
  WriteCheckpointFile(path, MakeCheckpoint());
  EXPECT_TRUE(TryLoadCheckpointFile(path, &out, &error)) << error;
}

TEST(DistCheckpoint, TornFileOnRespawnIsRejectedAndRunStillConverges) {
  // The regression the fsync fix and the Try loader exist for: worker 1
  // dies before its first checkpoint, and the file its respawn finds is
  // torn (as if the host died mid-write before the rename was durable).
  // Pre-fix the loader CHECK-aborted, every respawn died at the same spot,
  // and the worker was quarantined; post-fix the respawn rejects the blob,
  // re-ingests its block from scratch, and the run is byte-identical to
  // the inline reference.
  ScopedWorkerHarness harness(SyntheticEdges(20000, /*seed=*/13),
                              /*num_segments=*/16);
  const std::string path = CheckpointPath(harness.CheckpointDir(), 1);
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
  }

  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,kill-shard=1@0"));
  DistOptions opt;
  opt.num_workers = 2;
  opt.checkpoint_every = 2;
  opt.checkpoint_dir = harness.CheckpointDir();
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);

  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
  const DistWorkerRow& w1 = dist.metrics.workers[1];
  EXPECT_EQ(w1.respawns, 1u);
  EXPECT_FALSE(w1.quarantined);
  EXPECT_EQ(w1.counters.checkpoints_rejected, 1u);
  EXPECT_EQ(w1.counters.checkpoints_loaded, 0u);
  EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u);
  EXPECT_EQ(dist.metrics.TotalCheckpointsRejected(), 1u);
}

TEST(DistCheckpoint, RespawnNeverLoadsACheckpointLeftByAnEarlierRun) {
  // Checkpoint files are named by worker id only, so a reused directory
  // still holds the previous run's files when the next run starts. Pre-fix
  // a respawn loaded them: with the same state config it resumed corpus B
  // from corpus A's state (wrong bytes, no quarantine, full edge count);
  // with another seed the stale state lost the fingerprint vote and the
  // healthy worker was quarantined.
  ScopedTempDir dir;
  ScopedWorkerHarness run_a(SyntheticEdges(20000, /*seed=*/61),
                            /*num_segments=*/8);
  ScopedWorkerHarness run_b(SyntheticEdges(20000, /*seed=*/62),
                            /*num_segments=*/8);
  for (uint64_t state_seed : {uint64_t{1}, uint64_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "state seed " << state_seed);
    DistOptions opt;
    opt.num_workers = 2;
    opt.checkpoint_every = 1;
    opt.checkpoint_dir = dir.path();
    run_a.RunDist(opt);  // leaves ckpt_w0.bin and ckpt_w1.bin behind

    CoverageSketchState::Config config;
    config.seed = state_seed;
    FaultInjector injector(FaultPlan::ParseOrDie("seed=7,kill-shard=1@0"));
    opt.fault_injector = &injector;
    ScopedWorkerHarness::Result dist = run_b.RunDist(opt, config);

    EXPECT_TRUE(dist.state_blob == run_b.RunInline(4096, config).state_blob);
    const DistWorkerRow& w1 = dist.metrics.workers[1];
    EXPECT_EQ(w1.respawns, 1u);
    EXPECT_EQ(w1.counters.checkpoints_loaded, 0u);
    EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u);
    EXPECT_EQ(dist.metrics.TotalEdgesProcessed(), 20000u);
  }
}

TEST(DistCheckpoint, CadenceRespectsSegmentBoundaries) {
  // Through the real harness: checkpoint_every=N writes checkpoints only at
  // committed-segment multiples of N, never after the final segment (the
  // frame supersedes it), and a kill-free run loads none.
  ScopedWorkerHarness harness(SyntheticEdges(8000, /*seed=*/10),
                              /*num_segments=*/8);
  DistOptions opt;
  opt.num_workers = 2;  // 4 segments per worker
  opt.checkpoint_every = 2;
  opt.checkpoint_dir = harness.CheckpointDir();
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  for (const DistWorkerRow& w : dist.metrics.workers) {
    // Segments 2 of 4 committed -> one checkpoint (committed=4 is final).
    EXPECT_EQ(w.counters.checkpoints_written, 1u) << "worker=" << w.worker;
    EXPECT_EQ(w.counters.checkpoints_loaded, 0u);
    Checkpoint ckpt =
        LoadCheckpointFile(CheckpointPath(harness.CheckpointDir(), w.worker));
    EXPECT_EQ(ckpt.worker, w.worker);
    EXPECT_EQ(ckpt.segments_done, 2u);
  }
}

}  // namespace
}  // namespace streamkc
