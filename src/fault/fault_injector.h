// FaultInjector: the runtime-side decision engine for a FaultPlan.
//
// The sharded pipeline calls these hooks from its producer thread (push
// delays), its worker threads (slowdowns, deaths), and its coordinator
// (merge-fingerprint corruption). Decisions must therefore be deterministic
// REGARDLESS of thread interleaving: every probabilistic hook is a pure
// stateless function of (plan seed, hook tag, shard, sequence number) via
// SplitMix64 — no shared RNG state, no ordering dependence. Two runs with
// the same plan inject the same faults at the same points, which is what
// makes a fault-plan failure replayable from its spec string.
//
// The injector publishes faults_injected_total{kind="..."} counters into a
// MetricsRegistry (the process-wide one by default); counters are relaxed
// atomics and safe from any thread.

#ifndef STREAMKC_FAULT_FAULT_INJECTOR_H_
#define STREAMKC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>

#include "fault/fault_plan.h"
#include "obs/metrics.h"

namespace streamkc {

class FaultInjector {
 public:
  // `registry` receives the faults_injected_total counters; nullptr = the
  // process-wide registry.
  explicit FaultInjector(const FaultPlan& plan,
                         MetricsRegistry* registry = nullptr);

  const FaultPlan& plan() const { return plan_; }

  // Producer-side: nanoseconds to sleep before pushing batch `batch_index`
  // (a global enqueue sequence number) to `shard`; 0 = no delay.
  uint64_t PushDelayNs(uint32_t shard, uint64_t batch_index) const;

  // Worker-side: artificial per-batch slowdown for `shard`; 0 = none.
  uint64_t ShardSlowdownNs(uint32_t shard) const;

  // Worker-side: true when `shard`'s worker dies before processing its
  // batch number `batches_processed` (0-based). Once true it stays true for
  // all later batch numbers.
  bool WorkerDiesAt(uint32_t shard, uint64_t batches_processed) const;

  // Coordinator-side: true when `shard`'s merge fingerprint should arrive
  // corrupted (the detection path under test).
  bool CorruptsMergeFingerprint(uint32_t shard) const;

  // Dist-coordinator-side: true when worker `shard`'s state frame should be
  // corrupted in transport (the CRC rejection path under test).
  bool CorruptsFrame(uint32_t shard) const;

  // Deterministic Bernoulli(p) for (tag, sequence n) — shared with
  // FaultInjectingStream so every fault site draws from the same scheme.
  bool Decide(uint64_t tag, uint64_t n, double p) const;

  // Bumps faults_injected_total{kind=<kind>}; `kind` must be one of the
  // kFault* tags below (the counter set is fixed at construction).
  void Count(const char* kind) const;

  static constexpr const char* kFaultPushDelay = "push-delay";
  static constexpr const char* kFaultSlowShard = "slow-shard";
  static constexpr const char* kFaultWorkerDeath = "worker-death";
  static constexpr const char* kFaultMergeCorruption = "merge-corruption";
  static constexpr const char* kFaultFrameCorruption = "frame-corruption";
  static constexpr const char* kFaultStreamError = "stream-error";
  static constexpr const char* kFaultDuplicate = "duplicate";
  static constexpr const char* kFaultReorder = "reorder";
  static constexpr const char* kFaultGarbage = "garbage";

 private:
  Counter* CounterFor(const char* kind) const;

  FaultPlan plan_;
  MetricsRegistry* registry_;
  // Resolved once; the registry owns them.
  Counter* push_delay_count_;
  Counter* slow_shard_count_;
  Counter* worker_death_count_;
  Counter* merge_corruption_count_;
  Counter* frame_corruption_count_;
  Counter* stream_error_count_;
  Counter* duplicate_count_;
  Counter* reorder_count_;
  Counter* garbage_count_;
};

}  // namespace streamkc

#endif  // STREAMKC_FAULT_FAULT_INJECTOR_H_
