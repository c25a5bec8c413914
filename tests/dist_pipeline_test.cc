// Differential battery for the multi-process reduction tree
// (src/dist/process_tree.h): the distributed run must be BIT-IDENTICAL —
// compared on the serialized final state, not an estimate tolerance — to
// the single-process inline pass, across worker counts, injected worker
// deaths (with and without checkpoints), and transport corruption. Fault scenarios additionally pin the detection path: a
// corrupted frame dies on the CRC, a corrupted fingerprint loses the
// majority vote, and in both cases the offender is quarantined rather than
// folded into the estimate.

#include "dist/process_tree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "runtime/sketch_states.h"
#include "test_util.h"

namespace streamkc {
namespace {

constexpr size_t kEdges = 20000;
constexpr uint32_t kSegments = 16;

class DistDifferential : public ::testing::Test {
 protected:
  ScopedWorkerHarness MakeHarness(uint64_t seed) {
    return ScopedWorkerHarness(SyntheticEdges(kEdges, seed), kSegments);
  }
};

TEST_F(DistDifferential, MatchesInlineAcrossWorkersAndArity) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/1);
  ScopedWorkerHarness::Result inline_ref = harness.RunInline();
  for (uint32_t workers : {1u, 2u, 4u}) {
    DistOptions opt;
    opt.num_workers = workers;
    ScopedWorkerHarness::Result dist = harness.RunDist(opt);
    EXPECT_EQ(dist.state_blob, inline_ref.state_blob)
        << "workers=" << workers;
    EXPECT_EQ(dist.fingerprint, inline_ref.fingerprint);
    EXPECT_EQ(dist.metrics.frames_received, workers);
    EXPECT_EQ(dist.metrics.TotalEdgesIngested(), kEdges);
    EXPECT_EQ(dist.metrics.TotalEdgesProcessed(), kEdges);
    EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u);
    EXPECT_EQ(dist.metrics.TotalRespawns(), 0u);
    if (workers > 1) {
      EXPECT_GT(dist.metrics.merge.merges, 0u);
    }
  }
}

TEST_F(DistDifferential, SegmentAssignmentPartitionsWithoutOverlap) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/2);
  DistOptions opt;
  opt.num_workers = 3;  // does not divide 16: uneven blocks
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  uint32_t assigned = 0;
  uint64_t done = 0;
  for (const DistWorkerRow& w : dist.metrics.workers) {
    assigned += w.segments_assigned;
    done += w.counters.segments_done;
  }
  EXPECT_EQ(assigned, kSegments);
  EXPECT_EQ(done, kSegments);
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
}

TEST_F(DistDifferential, KilledWorkerRespawnsAndConvergesWithoutCheckpoint) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/3);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,kill-shard=1@2"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  // The respawn re-ingests worker 1's block from scratch and still lands on
  // the inline bytes.
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
  EXPECT_EQ(dist.metrics.workers[1].respawns, 1u);
  EXPECT_EQ(dist.metrics.TotalRespawns(), 1u);
  EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u);
  EXPECT_EQ(dist.metrics.TotalEdgesProcessed(), kEdges);
}

TEST_F(DistDifferential, KilledWorkerResumesFromCheckpointAndConverges) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/4);
  // Worker 1 owns 4 segments (one ~1250-edge batch each); dying before its
  // third batch lands mid-block, past two per-segment checkpoints.
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,kill-shard=1@2"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.checkpoint_every = 1;
  opt.checkpoint_dir = harness.CheckpointDir();
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
  const DistWorkerRow& w1 = dist.metrics.workers[1];
  EXPECT_EQ(w1.respawns, 1u);
  EXPECT_FALSE(w1.quarantined);
  // The respawned incarnation actually loaded the checkpoint rather than
  // restarting from scratch.
  EXPECT_EQ(w1.counters.checkpoints_loaded, 1u);
  EXPECT_GE(w1.counters.checkpoints_written, 1u);
  // Committed-prefix semantics: every segment landed exactly once, so the
  // shipped counters still account for exactly the corpus.
  EXPECT_EQ(dist.metrics.TotalEdgesProcessed(), kEdges);
}

TEST_F(DistDifferential, CheckpointedRunMatchesUncheckpointedByte) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/5);
  DistOptions plain;
  plain.num_workers = 2;
  ScopedWorkerHarness::Result without = harness.RunDist(plain);
  DistOptions ckpt = plain;
  ckpt.checkpoint_every = 2;
  ckpt.checkpoint_dir = harness.CheckpointDir();
  ScopedWorkerHarness::Result with = harness.RunDist(ckpt);
  EXPECT_EQ(with.state_blob, without.state_blob);
  EXPECT_GT(with.metrics.TotalCheckpointsWritten(), 0u);
  EXPECT_EQ(without.metrics.TotalCheckpointsWritten(), 0u);
}

TEST_F(DistDifferential, CorruptFrameIsRejectedByCrcAndQuarantined) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/6);
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,corrupt-frame=2"),
                         &registry);
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  const DistWorkerRow& w2 = dist.metrics.workers[2];
  EXPECT_TRUE(w2.quarantined);
  EXPECT_EQ(w2.crc_rejections, 1u);
  EXPECT_EQ(dist.metrics.WorkersQuarantined(), 1u);
  EXPECT_EQ(dist.metrics.frames_received, 3u);
  EXPECT_EQ(registry
                .GetCounter(LabeledName("faults_injected_total", "kind",
                                        FaultInjector::kFaultFrameCorruption))
                ->Value(),
            1u);
  // Quarantined rows ship zero counters: what the totals claim is exactly
  // what the merged state contains (3 of 4 worker blocks).
  EXPECT_LT(dist.metrics.TotalEdgesProcessed(), kEdges);
  EXPECT_EQ(w2.counters.edges_processed, 0u);
}

TEST_F(DistDifferential, CorruptMergeFingerprintLosesMajorityVote) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/7);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,corrupt-merge=0"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  const DistWorkerRow& w0 = dist.metrics.workers[0];
  EXPECT_TRUE(w0.quarantined);
  EXPECT_TRUE(w0.fingerprint_corrupted);
  EXPECT_EQ(dist.metrics.FingerprintCorruptions(), 1u);
  EXPECT_EQ(dist.metrics.WorkersQuarantined(), 1u);
  // The surviving majority still merges to a valid state whose fingerprint
  // matches the inline configuration.
  EXPECT_EQ(dist.fingerprint, harness.RunInline().fingerprint);
}

TEST_F(DistDifferential, StreamFaultsInsideWorkersStayDeterministic) {
  // Duplicates injected inside the worker processes: two distributed runs
  // with the same plan must agree byte-for-byte (seed-replayability across
  // process boundaries), even though they cannot match the clean inline
  // pass.
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/8);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=11,dup=0.05"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result first = harness.RunDist(opt);
  ScopedWorkerHarness::Result second = harness.RunDist(opt);
  EXPECT_EQ(first.state_blob, second.state_blob);
  EXPECT_GT(first.metrics.TotalEdgesProcessed(), kEdges);  // dups landed
  EXPECT_EQ(first.metrics.TotalEdgesProcessed(),
            second.metrics.TotalEdgesProcessed());
}

TEST_F(DistDifferential,
       TransientReadErrorsInsideWorkersAreRetriedWithoutLoss) {
  // Transient read errors inside the workers are retried where they happen,
  // so the workers fold exactly the clean tokens: the merged bytes are the
  // clean inline pass's. A kill on top of the same plan converges to them
  // too.
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/9);
  const std::string want = harness.RunInline().state_blob;
  struct Case {
    const char* spec;
    uint32_t respawns;
  };
  for (const Case& c : {Case{"seed=7,read-error=0.01", 0},
                        Case{"seed=7,read-error=0.01,kill-shard=1@2", 1}}) {
    const std::string spec = c.spec;
    FaultInjector injector(FaultPlan::ParseOrDie(spec));
    DistOptions opt;
    opt.num_workers = 4;
    opt.fault_injector = &injector;
    ScopedWorkerHarness::Result dist = harness.RunDist(opt);
    EXPECT_EQ(dist.state_blob, want) << spec;
    EXPECT_GT(dist.metrics.TotalStreamRetries(), 0u) << spec;
    EXPECT_EQ(dist.metrics.TotalEdgesProcessed(), kEdges) << spec;
    EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u) << spec;
    EXPECT_EQ(dist.metrics.TotalRespawns(), c.respawns) << spec;
    for (const DistWorkerRow& w : dist.metrics.workers) {
      EXPECT_EQ(w.counters.truncated_segments, 0u)
          << spec << " worker " << w.worker;
    }
  }
}

TEST_F(DistDifferential, ExhaustedRetryBudgetTruncatesEverySegment) {
  // read-error=1 fails every read, so every segment spends its whole retry
  // budget and is truncated. That is degradation, not a crash: no worker is
  // respawned or quarantined, and the run completes.
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/10);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,read-error=1"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.degradation.max_stream_retries = 2;
  opt.degradation.initial_backoff_ns = 1000;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  EXPECT_EQ(dist.metrics.frames_received, 4u);
  EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u);
  EXPECT_EQ(dist.metrics.TotalRespawns(), 0u);
  EXPECT_EQ(dist.metrics.TotalEdgesProcessed(), 0u);
  for (const DistWorkerRow& w : dist.metrics.workers) {
    EXPECT_EQ(w.counters.truncated_segments, w.segments_assigned)
        << "worker " << w.worker;
    EXPECT_EQ(w.counters.stream_retries, 2u * w.segments_assigned)
        << "worker " << w.worker;
  }
}

// Seed-replayable sweep over kill points and corruption targets; the
// default 4 trials keep tier-1 fast, the stress entry turns the same code
// up to 40 (STREAMKC_DIST_TRIALS).
TEST_F(DistDifferential, SeededFaultSweep) {
  const uint64_t trials = EnvScaledU64("STREAMKC_DIST_TRIALS", 4);
  for (uint64_t t = 0; t < trials; ++t) {
    ScopedWorkerHarness harness = MakeHarness(/*seed=*/100 + t);
    ScopedWorkerHarness::Result inline_ref = harness.RunInline();
    FaultPlan plan;
    plan.seed = t + 1;
    plan.kill_shard = static_cast<uint32_t>(t % 4);
    plan.kill_after_batches = t % 3;
    FaultInjector injector(plan);
    DistOptions opt;
    opt.num_workers = 4;
    opt.fault_injector = &injector;
    if (t % 2 == 0) {
      opt.checkpoint_every = 1;
      opt.checkpoint_dir = harness.CheckpointDir();
    }
    ScopedWorkerHarness::Result dist = harness.RunDist(opt);
    EXPECT_EQ(dist.state_blob, inline_ref.state_blob)
        << "trial=" << t << " plan=" << plan.ToSpec();
    EXPECT_EQ(dist.metrics.TotalRespawns(), 1u) << "trial=" << t;
    EXPECT_EQ(dist.metrics.WorkersQuarantined(), 0u) << "trial=" << t;
  }
}

TEST(DistReductionTree, SkipsQuarantinedSlotsAndHandlesAllNull) {
  CoverageSketchState::Config config;
  std::vector<std::unique_ptr<CoverageSketchState>> states;
  for (uint32_t i = 0; i < 4; ++i) {
    states.push_back(i == 1 ? nullptr
                            : std::make_unique<CoverageSketchState>(config));
  }
  MergeStats stats;
  EXPECT_EQ(FoldSurvivors(&states, &stats), 0u);
  EXPECT_EQ(stats.merges, 2u);  // three survivors -> two merges

  std::vector<std::unique_ptr<CoverageSketchState>> empty(3);
  EXPECT_EQ(FoldSurvivors(&empty, nullptr), SIZE_MAX);
}

}  // namespace
}  // namespace streamkc
