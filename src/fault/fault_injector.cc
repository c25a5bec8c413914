#include "fault/fault_injector.h"

#include <cstring>

#include "util/random.h"

namespace streamkc {
namespace {

// Site tag keeps the push-delay decision stream independent of the stream
// wrapper's tags (fault/faulty_stream.cc), which share Decide().
constexpr uint64_t kTagPushDelay = 0x70757368;  // "push"

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, MetricsRegistry* registry)
    : plan_(plan),
      registry_(registry != nullptr ? registry : &MetricsRegistry::Global()) {
  auto counter = [&](const char* kind) {
    return registry_->GetCounter(
        LabeledName("faults_injected_total", "kind", kind));
  };
  push_delay_count_ = counter(kFaultPushDelay);
  slow_shard_count_ = counter(kFaultSlowShard);
  worker_death_count_ = counter(kFaultWorkerDeath);
  merge_corruption_count_ = counter(kFaultMergeCorruption);
  frame_corruption_count_ = counter(kFaultFrameCorruption);
  stream_error_count_ = counter(kFaultStreamError);
  duplicate_count_ = counter(kFaultDuplicate);
  reorder_count_ = counter(kFaultReorder);
  garbage_count_ = counter(kFaultGarbage);
}

bool FaultInjector::Decide(uint64_t tag, uint64_t n, double p) const {
  if (p <= 0.0) return false;
  // One SplitMix64 draw mapped to [0, 1); stateless, so thread interleaving
  // cannot perturb the decision sequence.
  uint64_t h = SplitMix64(plan_.seed ^ SplitMix64(tag ^ SplitMix64(n)));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

uint64_t FaultInjector::PushDelayNs(uint32_t shard, uint64_t batch_index) const {
  if (plan_.push_delay_rate <= 0.0 || plan_.push_delay_ns == 0) return 0;
  if (!Decide(kTagPushDelay ^ shard, batch_index, plan_.push_delay_rate)) {
    return 0;
  }
  push_delay_count_->Increment();
  return plan_.push_delay_ns;
}

uint64_t FaultInjector::ShardSlowdownNs(uint32_t shard) const {
  if (shard != plan_.slow_shard || plan_.slow_shard_ns == 0) return 0;
  slow_shard_count_->Increment();
  return plan_.slow_shard_ns;
}

bool FaultInjector::WorkerDiesAt(uint32_t shard,
                                 uint64_t batches_processed) const {
  if (shard != plan_.kill_shard) return false;
  return batches_processed >= plan_.kill_after_batches;
}

bool FaultInjector::CorruptsMergeFingerprint(uint32_t shard) const {
  return shard == plan_.corrupt_merge_shard;
}

bool FaultInjector::CorruptsFrame(uint32_t shard) const {
  return shard == plan_.corrupt_frame_shard;
}

Counter* FaultInjector::CounterFor(const char* kind) const {
  if (std::strcmp(kind, kFaultPushDelay) == 0) return push_delay_count_;
  if (std::strcmp(kind, kFaultSlowShard) == 0) return slow_shard_count_;
  if (std::strcmp(kind, kFaultWorkerDeath) == 0) return worker_death_count_;
  if (std::strcmp(kind, kFaultMergeCorruption) == 0) {
    return merge_corruption_count_;
  }
  if (std::strcmp(kind, kFaultFrameCorruption) == 0) {
    return frame_corruption_count_;
  }
  if (std::strcmp(kind, kFaultStreamError) == 0) return stream_error_count_;
  if (std::strcmp(kind, kFaultDuplicate) == 0) return duplicate_count_;
  if (std::strcmp(kind, kFaultReorder) == 0) return reorder_count_;
  return garbage_count_;
}

void FaultInjector::Count(const char* kind) const {
  CounterFor(kind)->Increment();
}

}  // namespace streamkc
