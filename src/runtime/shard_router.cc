#include "runtime/shard_router.h"

#include "util/check.h"

namespace streamkc {

std::string PartitionPolicyName(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::kByElement:
      return "by-element";
    case PartitionPolicy::kBySet:
      return "by-set";
  }
  return "unknown";
}

ShardRouter::ShardRouter(uint32_t num_shards, PartitionPolicy policy)
    : num_shards_(num_shards), policy_(policy) {
  CHECK_GE(num_shards, 1u);
}

}  // namespace streamkc
