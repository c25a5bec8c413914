// ProcessReductionTree: multi-process partitioned ingest with a flat merge.
//
// The coordinator fork()s W worker processes (no exec — the child runs the
// templated worker loop directly, which keeps the harness CI-friendly: no
// MPI, no re-entry protocol, and in-memory test corpora ride across the
// fork for free). Each worker owns a contiguous block of the caller's
// segments (worker w gets [S*w/W, S*(w+1)/W) — the SegmentedTextStream
// byte-range convention), ingests them through FeedStream
// (runtime/feed_stream.h), and ships ONE final frame to the coordinator:
// the shipped WorkerCounters block followed by the State's Save() blob,
// framed with length + CRC + MergeFingerprint (dist/frame.h).
//
// One way out of a worker: Spawn creates a pipe per worker, and the child
// writes its frame into the write end and holds it until it exits. The
// single-threaded coordinator poll(2)s the read ends and feeds each
// worker's bytes to its own FrameDecoder. EOF is the worker's one exit
// signal: the coordinator decodes, reaps with one blocking waitpid, and
// classifies. Run() installs no signal handler and leaves SIGCHLD as it
// found it, but like any waitpid-based parent it needs SIGCHLD not to be
// ignored: under SIG_IGN the kernel reaps the workers itself and the reap
// CHECK-fails.
//
// The surviving states fold flat, in worker order, into the lowest
// surviving index: ShardedPipeline's fold order. Every State merges
// exactly and order-free, so the result is byte-identical to the inline
// pass (FoldSurvivors below).
//
// Crash recovery: with a checkpoint_dir configured, workers write a
// checksummed checkpoint (dist/checkpoint.h) every checkpoint_every
// committed segments. A worker that dies mid-stream (crash, CHECK-abort,
// or a FaultPlan kill-shard) is respawned — up to kMaxRespawns times —
// and the respawned incarnation loads the checkpoint, then re-ingests only
// the segments past the committed prefix. Because the checkpoint holds
// exactly the committed prefix and the dead incarnation's uncommitted work
// died with its address space, every segment lands in the final state
// exactly once: a kill-and-respawn run is byte-identical to a never-killed
// one. Without a checkpoint — or when the checkpoint file itself is torn
// (host crash mid-write) and the loader rejects it — the respawn
// re-ingests from scratch: slower, same answer. Files are named by worker
// id only, so before the first spawn Run() removes any loadable checkpoint
// an earlier run left in the directory: a respawn only ever loads state
// this run wrote.
//
// FaultPlan integration (all seed-deterministic, replayable from the spec):
//   kill-shard=W@B    worker W's FIRST incarnation _exit()s before its B-th
//                     batch (mid-stream; respawned incarnations run clean,
//                     so the recovery converges deterministically).
//   corrupt-merge=W   worker W's reported fingerprint is corrupted at the
//                     coordinator; the majority vote across workers detects
//                     it and quarantines W out of the merge.
//   corrupt-frame=W   worker W's frame bytes are corrupted in transport;
//                     the CRC rejects the frame and W is quarantined (a
//                     transport that corrupts deterministically would
//                     corrupt every respawn too, so no respawn is spent).
//   stream faults     apply inside the worker via the caller's opener
//                     wrapping segments in FaultInjectingStream.
//
// Failure matrix (who detects, what happens):
//   crash / kill      coordinator sees exit-pipe EOF with no complete
//                     frame decoded -> respawn, then quarantine once
//                     kMaxRespawns is exhausted
//   exit(kPermanentErrorExit) (e.g. parse error, a failed frame write)
//                     -> quarantine immediately (deterministic failures
//                     don't earn respawns)
//   SIGPIPE           never: workers ignore it (IgnoreSigPipe,
//                     dist/frame.h), so a dead coordinator surfaces as a
//                     write error -> the permanent-error path above, not
//                     a signal death
//   CRC-corrupt frame -> quarantine immediately
//   fingerprint minority -> quarantine after the majority vote
//   corrupt checkpoint -> the respawned worker REJECTS the blob, counts
//                     checkpoints_rejected, and re-ingests its block from
//                     scratch — it still converges (the pre-fix CHECK-abort
//                     turned one torn file into a respawn loop that
//                     quarantined the worker forever)
//   checkpoint-dir reuse -> Run() removes the earlier run's loadable files
//                     before the first spawn (a torn one stays: the
//                     respawn rejects it as above)
//
// State is a SerializableState (runtime/feed_stream.h): the pipeline
// contract plus Save(ostream&) and static Load(istream&), the serialize.h
// sketch contract.

#ifndef STREAMKC_DIST_PROCESS_TREE_H_
#define STREAMKC_DIST_PROCESS_TREE_H_

#include <errno.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/checkpoint.h"
#include "dist/dist_metrics.h"
#include "dist/frame.h"
#include "dist/worker_counters.h"
#include "fault/fault_injector.h"
#include "runtime/degradation.h"
#include "runtime/edge_batch.h"
#include "runtime/feed_stream.h"
#include "stream/edge_stream.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace streamkc {

struct DistOptions {
  uint32_t num_workers = 4;
  size_t batch_size = 4096;
  // Checkpoint cadence in committed segments; 0 disables checkpointing
  // (a respawned worker then re-ingests its whole block from scratch).
  // When > 0, checkpoint_dir must name an existing writable directory.
  uint32_t checkpoint_every = 0;
  std::string checkpoint_dir;
  // Bounded retry/backoff for transient stream errors inside workers. With
  // degradation.strict set, any quarantine exits(1) after the reduction (a
  // successful respawn is recovery, not degradation, and does not trip
  // strict mode).
  DegradationPolicy degradation;
  // Optional deterministic fault plan (kill/corrupt hooks above). The
  // injector must outlive Run(); its counters land in the coordinator's
  // registry (worker-side registries die with the worker).
  const FaultInjector* fault_injector = nullptr;
};

// Exit codes the worker protocol reserves. Anything else (signals
// included) is treated as a crash and earns a respawn.
inline constexpr int kWorkerOkExit = 0;
inline constexpr int kWorkerKilledExit = 6;          // injected kill fault
inline constexpr int kWorkerPermanentErrorExit = 9;  // deterministic failure

// Respawns a crashed worker earns before it is quarantined out of the merge.
inline constexpr uint32_t kMaxRespawns = 2;

// Folds the non-null entries of `states` in index order into the lowest
// non-null one and returns its index, or SIZE_MAX when every entry is null.
// Consumed entries are reset to null; `stats` (optional) accumulates.
template <typename State>
size_t FoldSurvivors(std::vector<std::unique_ptr<State>>* states,
                     MergeStats* stats) {
  size_t root = SIZE_MAX;
  for (size_t i = 0; i < states->size(); ++i) {
    std::unique_ptr<State>& state = (*states)[i];
    if (state == nullptr) continue;
    if (root == SIZE_MAX) {
      root = i;
      continue;
    }
    Stopwatch sw;
    (*states)[root]->Merge(*state);
    if (stats != nullptr) {
      stats->merge_ns += static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9);
      ++stats->merges;
    }
    state.reset();
  }
  return root;
}

template <SerializableState State>
class ProcessReductionTree {
 public:
  // Opens segment i afresh; called in the CHILD after fork, so the lambda
  // may capture parent memory (copy-on-write) and may wrap the stream in
  // FaultInjectingStream for plans with stream faults.
  using SegmentOpener = std::function<std::unique_ptr<EdgeStream>(uint32_t)>;
  using Factory = std::function<State(uint32_t worker)>;

  ProcessReductionTree(const DistOptions& options, Factory factory)
      : options_(options), factory_(std::move(factory)) {
    CHECK_GE(options_.num_workers, 1u);
    CHECK_GE(options_.batch_size, size_t{1});
    if (options_.checkpoint_every > 0) {
      CHECK(!options_.checkpoint_dir.empty());
    }
  }

  // Partitions [0, num_segments) across the workers, runs the fleet, and
  // returns the merged state. num_segments >= num_workers keeps every
  // worker busy; fewer segments leave the tail workers idle (legal).
  State Run(uint32_t num_segments, const SegmentOpener& open) {
    CHECK_GE(num_segments, 1u);
    Stopwatch wall;
    metrics_ = DistMetrics();
    metrics_.num_workers = options_.num_workers;
    metrics_.num_segments = num_segments;
    metrics_.workers.resize(options_.num_workers);

    if (options_.checkpoint_every > 0) {
      // Files are named by worker id only, so an earlier run's would hand
      // this run's respawns foreign state. A torn one can stay: the
      // respawn loader rejects it anyway.
      for (uint32_t w = 0; w < options_.num_workers; ++w) {
        const std::string path = CheckpointPath(options_.checkpoint_dir, w);
        Checkpoint stale;
        if (TryLoadCheckpointFile(path, &stale)) {
          CHECK_EQ(::unlink(path.c_str()), 0);
        }
      }
    }

    std::vector<Slot> slots(options_.num_workers);
    for (uint32_t w = 0; w < options_.num_workers; ++w) {
      DistWorkerRow& row = metrics_.workers[w];
      row.worker = w;
      row.segments_assigned = SegmentEnd(w, num_segments) -
                              SegmentBegin(w, num_segments);
      Spawn(w, num_segments, open, &slots);
    }
    PumpUntilResolved(&slots, num_segments, open);

    // Majority vote over the reported fingerprints (the in-process
    // pipeline's corruption detection, applied across process boundaries).
    // corrupt-merge faults flip the reported value before the vote, so the
    // vote — not a cross-check against the payload — must catch them.
    std::vector<uint64_t> votes;
    for (const Slot& slot : slots) {
      if (slot.state == Slot::kDone) votes.push_back(slot.frame.fingerprint);
    }
    const uint64_t majority = MajorityFingerprint(votes);
    for (uint32_t w = 0; w < options_.num_workers; ++w) {
      if (slots[w].state != Slot::kDone ||
          slots[w].frame.fingerprint == majority) {
        continue;
      }
      std::fprintf(stderr,
                   "dist: worker %u merge fingerprint %016llx "
                   "disagrees with majority %016llx; quarantined\n",
                   w, (unsigned long long)slots[w].frame.fingerprint,
                   (unsigned long long)majority);
      metrics_.workers[w].fingerprint_corrupted = true;
      Quarantine(w, &slots[w]);
    }

    // Deserialize survivors: counters block first, then the state blob.
    std::vector<std::unique_ptr<State>> states(options_.num_workers);
    for (uint32_t w = 0; w < options_.num_workers; ++w) {
      if (slots[w].state != Slot::kDone) continue;
      std::istringstream is(slots[w].frame.payload);
      metrics_.workers[w].counters = WorkerCounters::Load(is);
      states[w] = std::make_unique<State>(State::Load(is));
      ++metrics_.frames_received;
    }

    const size_t root = FoldSurvivors(&states, &metrics_.merge);
    metrics_.wall_ns = static_cast<uint64_t>(wall.ElapsedSeconds() * 1e9);
    if (root == SIZE_MAX) {
      std::fprintf(stderr,
                   "dist: every worker quarantined; no state to merge\n");
      std::exit(1);
    }
    if (options_.degradation.strict && metrics_.WorkersQuarantined() > 0) {
      std::fprintf(stderr,
                   "dist: strict mode: %u workers quarantined\n",
                   metrics_.WorkersQuarantined());
      std::exit(1);
    }
    return std::move(*states[root]);
  }

  const DistMetrics& metrics() const { return metrics_; }

 private:
  struct Slot {
    enum { kRunning, kDone, kQuarantined } state = kRunning;
    pid_t pid = -1;
    // Read end of the worker's exit pipe: its frame bytes arrive here, and
    // EOF means the process is gone.
    int exit_fd = -1;
    uint32_t generation = 0;
    FrameDecoder decoder;
    Frame frame;
  };

  uint32_t SegmentBegin(uint32_t w, uint32_t num_segments) const {
    return static_cast<uint32_t>(uint64_t{num_segments} * w /
                                 options_.num_workers);
  }
  uint32_t SegmentEnd(uint32_t w, uint32_t num_segments) const {
    return static_cast<uint32_t>(uint64_t{num_segments} * (w + 1) /
                                 options_.num_workers);
  }

  void Spawn(uint32_t w, uint32_t num_segments, const SegmentOpener& open,
             std::vector<Slot>* slots) {
    Slot* slot = &(*slots)[w];
    int exit_pipe[2];
    CHECK_EQ(::pipe(exit_pipe), 0);
    // Flush stdio before forking so buffered output is not duplicated into
    // the child (the child bypasses exit handlers with _exit, but anything
    // it prints itself would otherwise ride on stale parent buffers).
    std::fflush(nullptr);
    pid_t pid = ::fork();
    CHECK_GE(pid, 0);
    if (pid == 0) {
      // Drop every coordinator-side fd this child inherited: the exit
      // pipe's read end and other workers' exit pipes — a child holding a
      // copy of another worker's fd would hold that worker's EOF hostage
      // for this child's whole lifetime.
      ::close(exit_pipe[0]);
      for (Slot& other : *slots) {
        if (other.exit_fd >= 0) ::close(other.exit_fd);
      }
      WorkerMain(w, slot->generation, exit_pipe[1], num_segments, open);
    }
    ::close(exit_pipe[1]);
    slot->pid = pid;
    slot->exit_fd = exit_pipe[0];
    slot->decoder = FrameDecoder();
    slot->state = Slot::kRunning;
  }

  void Quarantine(uint32_t w, Slot* slot) {
    slot->state = Slot::kQuarantined;
    DistWorkerRow& row = metrics_.workers[w];
    row.quarantined = true;
    // A quarantined worker contributes nothing to the merged result, so
    // its shipped counters (if any frame landed) must not enter the
    // conservation sums — zero the row's counters block.
    row.counters = WorkerCounters();
  }

  // Single-threaded event loop: drain exit pipes, reap exits, respawn or
  // quarantine failures, until every worker is kDone or kQuarantined.
  void PumpUntilResolved(std::vector<Slot>* slots, uint32_t num_segments,
                         const SegmentOpener& open) {
    struct Watch {
      uint32_t worker;
      uint32_t generation;
    };
    for (;;) {
      std::vector<pollfd> pfds;
      std::vector<Watch> watched;
      for (uint32_t w = 0; w < slots->size(); ++w) {
        const Slot& s = (*slots)[w];
        if (s.state != Slot::kRunning) continue;
        pfds.push_back(pollfd{s.exit_fd, POLLIN, 0});
        watched.push_back(Watch{w, s.generation});
      }
      if (pfds.empty()) return;
      // No timeout: every worker exit is EOF on a pipe in this set, so an
      // idle tree takes no wakeups.
      int ready = ::poll(pfds.data(), pfds.size(), -1);
      ++metrics_.poll_wakeups;
      if (ready < 0) {
        CHECK_EQ(errno, EINTR);
        continue;
      }
      for (size_t i = 0; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const uint32_t w = watched[i].worker;
        Slot& s = (*slots)[w];
        // Resolved or respawned earlier in this round: a respawn's new fds
        // may reuse these numbers.
        if (s.state != Slot::kRunning ||
            s.generation != watched[i].generation) {
          continue;
        }
        if (Drain(w, &s)) OnExit(w, &s, num_segments, open, slots);
      }
    }
  }

  // Feeds what the exit pipe holds to worker w's decoder; true at EOF.
  // Returns at a short read rather than waiting for more bytes.
  bool Drain(uint32_t w, Slot* s) {
    char buf[65536];
    for (;;) {
      ssize_t n = ::read(s->exit_fd, buf, sizeof(buf));
      if (n > 0) {
        metrics_.workers[w].bytes_shipped += static_cast<uint64_t>(n);
        s->decoder.Feed(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) return false;
        continue;
      }
      if (n == 0) return true;
      CHECK_EQ(errno, EINTR);
    }
  }

  // Exit-pipe EOF: the worker is gone. Decode what it wrote, reap, and
  // classify. The corrupt-frame fault flips one bit of the received bytes
  // first (deterministic per worker; a transport this broken corrupts
  // every retry too, so the failure goes straight to quarantine via the
  // CRC).
  void OnExit(uint32_t w, Slot* s, uint32_t num_segments,
              const SegmentOpener& open, std::vector<Slot>* slots) {
    const FaultInjector* inj = options_.fault_injector;
    if (inj != nullptr && inj->CorruptsFrame(w) &&
        s->decoder.buffered_bytes() > 0) {
      s->decoder.CorruptForTest();
      inj->Count(FaultInjector::kFaultFrameCorruption);
    }
    std::string decode_error;
    const FrameDecoder::Status decoded =
        s->decoder.Next(&s->frame, &decode_error);
    ::close(s->exit_fd);
    s->exit_fd = -1;
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(s->pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    CHECK_EQ(r, s->pid);
    s->pid = -1;
    ClassifyOutcome(w, s, status, decoded, decode_error, num_segments, open,
                    slots);
  }

  // The verdict for a reaped worker, given its exit status and what the
  // decoder made of its bytes.
  void ClassifyOutcome(uint32_t w, Slot* s, int status,
                       FrameDecoder::Status decoded,
                       const std::string& decode_error,
                       uint32_t num_segments, const SegmentOpener& open,
                       std::vector<Slot>* slots) {
    const FaultInjector* inj = options_.fault_injector;
    const bool clean_exit =
        WIFEXITED(status) && WEXITSTATUS(status) == kWorkerOkExit;

    if (decoded == FrameDecoder::Status::kFrame && clean_exit) {
      // corrupt-merge fault: the worker's fingerprint arrives flipped, so
      // only the majority vote (not a payload cross-check) can catch it —
      // the same detection path the in-process pipeline exercises.
      if (inj != nullptr && inj->CorruptsMergeFingerprint(w)) {
        s->frame.fingerprint ^= 0xDEADBEEFu;
        inj->Count(FaultInjector::kFaultMergeCorruption);
      }
      s->state = Slot::kDone;
      return;
    }
    if (decoded == FrameDecoder::Status::kCorrupt) {
      std::fprintf(stderr, "dist: worker %u frame rejected: %s\n", w,
                   decode_error.c_str());
      ++metrics_.workers[w].crc_rejections;
      Quarantine(w, s);
      return;
    }
    if (WIFEXITED(status) &&
        WEXITSTATUS(status) == kWorkerPermanentErrorExit) {
      std::fprintf(stderr,
                   "dist: worker %u failed permanently; quarantined\n", w);
      Quarantine(w, s);
      return;
    }
    // Crash (signal, abort, injected kill, or exit without a frame):
    // respawn from the last checkpoint while budget remains.
    if (inj != nullptr && WIFEXITED(status) &&
        WEXITSTATUS(status) == kWorkerKilledExit) {
      inj->Count(FaultInjector::kFaultWorkerDeath);
    }
    DistWorkerRow& row = metrics_.workers[w];
    if (row.respawns >= kMaxRespawns) {
      std::fprintf(stderr,
                   "dist: worker %u crashed with respawn budget exhausted "
                   "(%u used); quarantined\n",
                   w, row.respawns);
      Quarantine(w, s);
      return;
    }
    ++row.respawns;
    ++s->generation;
    std::fprintf(stderr, "dist: worker %u crashed; respawning (%u/%u)\n", w,
                 row.respawns, kMaxRespawns);
    Spawn(w, num_segments, open, slots);
  }

  // ---- Child side -------------------------------------------------------

  [[noreturn]] void WorkerMain(uint32_t w, uint32_t generation, int exit_fd,
                               uint32_t num_segments,
                               const SegmentOpener& open) {
    // First thing, before any fd can break: a dead coordinator must
    // surface as a write error on the ship path, never a SIGPIPE death
    // (which would read as a crash and burn respawns on a hopeless retry).
    IgnoreSigPipe();
    const FaultInjector* inj = options_.fault_injector;
    const uint32_t seg_begin = SegmentBegin(w, num_segments);
    const uint32_t seg_end = SegmentEnd(w, num_segments);
    const uint32_t owned = seg_end - seg_begin;

    State state = factory_(w);
    WorkerCounters counters;
    uint64_t start_local = 0;  // owned-segment index to resume from

    const std::string ckpt_path =
        options_.checkpoint_every > 0
            ? CheckpointPath(options_.checkpoint_dir, w)
            : std::string();
    if (generation > 0 && !ckpt_path.empty() &&
        CheckpointFileExists(ckpt_path)) {
      Checkpoint ckpt;
      if (TryLoadCheckpointFile(ckpt_path, &ckpt) && ckpt.worker == w &&
          ckpt.segments_done <= uint64_t{owned}) {
        std::istringstream is(ckpt.state_blob);
        state = State::Load(is);
        CHECK_EQ(state.MergeFingerprint(), ckpt.fingerprint);
        counters = ckpt.counters;
        start_local = ckpt.segments_done;
        ++counters.checkpoints_loaded;
      } else {
        // Torn or foreign blob (host crash mid-write beat the fsync, or a
        // stale file from another topology): reject it and re-ingest the
        // whole block from scratch — slower, same answer. CHECK-aborting
        // here would turn one bad file into a respawn loop that can never
        // converge.
        std::fprintf(stderr,
                     "dist: worker %u checkpoint rejected; re-ingesting "
                     "from scratch\n",
                     w);
        ++counters.checkpoints_rejected;
      }
    }

    // Only the FIRST incarnation honors the kill fault: the plan names a
    // deterministic death point, and an immortal sticky fault would kill
    // every respawn at the same spot forever. batches_seen counts from
    // this incarnation's start, so a generation-0 kill is a pure function
    // of (plan, segment assignment, batch_size).
    const bool killable = inj != nullptr && generation == 0;
    uint64_t batches_seen = 0;

    EdgeBatch batch(options_.batch_size);
    for (uint64_t local = start_local; local < owned; ++local) {
      std::unique_ptr<EdgeStream> stream =
          open(seg_begin + static_cast<uint32_t>(local));
      if (stream == nullptr || !stream->ok()) {
        std::fprintf(stderr, "dist: worker %u cannot open segment %llu\n", w,
                     (unsigned long long)(seg_begin + local));
        ::_exit(kWorkerPermanentErrorExit);
      }
      const FeedCounts fed = FeedStream(
          *stream, state, batch, options_.batch_size, options_.degradation,
          nullptr, [&](const FeedCounts& done) {
            // A batch cut short by a parse error is not killed at: the
            // worker exits permanently below.
            const uint64_t at = batches_seen + done.batches;
            if (killable && (stream->ok() || stream->transient()) &&
                inj->WorkerDiesAt(w, at)) {
              std::fprintf(stderr,
                           "dist: worker %u killed by fault plan at batch "
                           "%llu\n",
                           w, (unsigned long long)at);
              ::_exit(kWorkerKilledExit);
            }
          });
      batches_seen += fed.batches;
      counters.edges_ingested += fed.edges;
      counters.edges_processed += fed.edges;
      counters.batches += fed.batches;
      counters.stream_retries += fed.retries;
      if (!stream->ok() && !stream->transient()) {
        std::fprintf(stderr, "dist: worker %u stream error: %s\n", w,
                     stream->StatusMessage().c_str());
        ::_exit(kWorkerPermanentErrorExit);
      }
      // A spent retry budget truncates the segment, and what it read still
      // commits — the pipeline's degradation semantics.
      if (!stream->ok()) ++counters.truncated_segments;
      ++counters.segments_done;
      const uint64_t committed = local + 1;
      if (!ckpt_path.empty() && committed < owned &&
          committed % options_.checkpoint_every == 0) {
        ++counters.checkpoints_written;
        Checkpoint ckpt;
        ckpt.worker = w;
        ckpt.segments_done = committed;
        ckpt.counters = counters;
        ckpt.fingerprint = state.MergeFingerprint();
        std::ostringstream os;
        state.Save(os);
        ckpt.state_blob = os.str();
        WriteCheckpointFile(ckpt_path, ckpt);
      }
    }

    Frame frame;
    frame.fingerprint = state.MergeFingerprint();
    std::ostringstream payload;
    counters.Save(payload);
    state.Save(payload);
    frame.payload = payload.str();
    ::_exit(WriteFrameToFd(exit_fd, frame) ? kWorkerOkExit
                                           : kWorkerPermanentErrorExit);
  }

  DistOptions options_;
  Factory factory_;
  DistMetrics metrics_;
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_PROCESS_TREE_H_
