// Edge → shard routing with a pluggable partition policy.
//
// Correctness under sharding rests on one invariant: every stream token is
// processed by EXACTLY ONE shard, so the multiset union of the shard
// substreams equals the original stream, and each shard's substream
// preserves the original relative order. For sketches whose final state is
// a function of the observed (multi)set — every Merge()-able state in
// streamkc: linear counter grids (AMS, CountSketch), KMV/HLL distinct
// unions, hash-membership stored samples — ANY such partition yields a
// merged state equivalent to the single-threaded one.
//
// The policy still matters for two softer properties:
//
//   * kByElement keeps all incidences of one element on one shard. Element-
//     keyed state (distinct counters, element samples) then sees each
//     element's full duplicate history locally, and per-shard distinct
//     workloads stay disjoint.
//   * kBySet keeps all incidences of one set together, which is the natural
//     partition for set-sampling subroutines (LargeCommon's sampled
//     collections, SketchGreedy's per-set sketches): a set's sketch is
//     built entirely on one shard instead of being assembled at merge time.
//
// Routing is a stateless SplitMix64 mix of the chosen key — deterministic
// in (policy, num_shards), independent of arrival order and thread
// timing, which is what makes deterministic-mode replays possible.

#ifndef STREAMKC_RUNTIME_SHARD_ROUTER_H_
#define STREAMKC_RUNTIME_SHARD_ROUTER_H_

#include <cstdint>
#include <string>

#include "stream/edge.h"
#include "util/random.h"

namespace streamkc {

enum class PartitionPolicy {
  kByElement,  // shard = hash(element): element-keyed locality
  kBySet,      // shard = hash(set): set-keyed locality
};

std::string PartitionPolicyName(PartitionPolicy policy);

class ShardRouter {
 public:
  ShardRouter(uint32_t num_shards, PartitionPolicy policy);

  uint32_t ShardOf(const Edge& edge) const {
    uint64_t key =
        policy_ == PartitionPolicy::kByElement ? edge.element : edge.set;
    // Fixed-point map of the mixed key onto [0, num_shards): unbiased for
    // num_shards ≪ 2^64 and cheaper than modulo.
    return static_cast<uint32_t>(
        (static_cast<__uint128_t>(SplitMix64(key)) * num_shards_) >> 64);
  }

  uint32_t num_shards() const { return num_shards_; }
  PartitionPolicy policy() const { return policy_; }

 private:
  uint32_t num_shards_;
  PartitionPolicy policy_;
};

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_SHARD_ROUTER_H_
