// FaultPlan: a declarative, seedable description of the faults to inject
// into one run — the parsed form of the CLI's --fault-plan=<spec> flag.
//
// A spec is a comma-separated list of key[=value] clauses:
//
//   seed=S              RNG seed for every probabilistic clause (default 1).
//                       Two runs with the same plan string see the SAME
//                       fault sequence — print the plan, replay the run.
//   read-error=P        each producer read fails transiently with prob. P;
//                       the stream resumes on retry (exercises the
//                       pipeline's bounded retry-with-backoff).
//   dup=P               after each edge, re-emit an already-seen edge with
//                       probability P (duplicate tokens, which the model
//                       explicitly allows).
//   reorder=W           permute the stream within sliding windows of W
//                       edges (adversarial local reordering).
//   garbage=P           inject an out-of-domain edge (ids >= 2^48) with
//                       probability P per edge — a dirty upstream feed.
//   push-delay=P:NS     before pushing a batch to its ring, sleep NS
//                       nanoseconds with probability P (producer jitter).
//   slow-shard=S:NS     worker S sleeps NS nanoseconds after every batch
//                       (one straggling shard; exercises backpressure).
//   kill-shard=S@B      worker S dies after processing B batches: its
//                       remaining substream is discarded and the shard is
//                       quarantined out of the merge.
//   corrupt-merge=S     shard S's merge fingerprint arrives corrupted; the
//                       coordinator must detect it and quarantine the shard
//                       instead of folding garbage into the estimate.
//   corrupt-frame=S     multi-process runs only: worker S's state frame is
//                       corrupted in transport; the dist coordinator's CRC
//                       must reject the frame and quarantine the worker.
//
// Example:
//   --fault-plan=seed=7,read-error=0.001,dup=0.02,kill-shard=1@8
//
// Parsing is strict: an unknown key, malformed number, or out-of-range
// probability fails with a message naming the clause (a fault plan with a
// typo silently injecting nothing would defeat the point).

#ifndef STREAMKC_FAULT_FAULT_PLAN_H_
#define STREAMKC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>

namespace streamkc {

struct FaultPlan {
  // Sentinel for "no shard targeted".
  static constexpr uint32_t kNoShard = UINT32_MAX;
  // Injected garbage ids start here: far outside any real instance domain.
  static constexpr uint64_t kGarbageIdBase = 1ULL << 48;

  uint64_t seed = 1;

  // Stream faults (producer-side, applied by FaultInjectingStream).
  double read_error_rate = 0.0;
  double duplicate_rate = 0.0;
  uint32_t reorder_window = 0;
  double garbage_rate = 0.0;

  // Runtime faults (applied by ShardedPipeline through FaultInjector).
  double push_delay_rate = 0.0;
  uint64_t push_delay_ns = 0;
  uint32_t slow_shard = kNoShard;
  uint64_t slow_shard_ns = 0;
  uint32_t kill_shard = kNoShard;
  uint64_t kill_after_batches = 0;
  uint32_t corrupt_merge_shard = kNoShard;
  // Dist faults (applied by ProcessReductionTree's coordinator).
  uint32_t corrupt_frame_shard = kNoShard;

  bool HasStreamFaults() const {
    return read_error_rate > 0 || duplicate_rate > 0 || reorder_window > 0 ||
           garbage_rate > 0;
  }
  bool HasRuntimeFaults() const {
    return push_delay_rate > 0 || slow_shard != kNoShard ||
           kill_shard != kNoShard || corrupt_merge_shard != kNoShard ||
           corrupt_frame_shard != kNoShard;
  }
  bool Any() const { return HasStreamFaults() || HasRuntimeFaults(); }

  // Canonical spec string (round-trips through Parse); the replay handle
  // printed by the CLI and the differential driver.
  std::string ToSpec() const;

  // Parses `spec` into `*plan`. On failure returns false and names the
  // offending clause in `*error`.
  static bool Parse(const std::string& spec, FaultPlan* plan,
                    std::string* error);

  // Parse-or-die convenience for trusted callers (tests).
  static FaultPlan ParseOrDie(const std::string& spec);
};

}  // namespace streamkc

#endif  // STREAMKC_FAULT_FAULT_PLAN_H_
