// The benchmark's workloads and the instances they generate.
//
// Every workload serves Params::Practical(m, n, k=16, α=8) from a
// ServingState with a fixed seed. The command-line seed drives only the
// instance generator and the arrival shuffle; the program under test
// receives nothing but the shuffled edges.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/serving_state.h"
#include "stream/edge.h"

namespace perfbench {

// The ServingState seed every workload uses.
constexpr uint64_t kStateSeed = 17;
constexpr uint64_t kK = 16;
constexpr double kAlpha = 8.0;
// Each open-loop reader sends this many queries per second.
constexpr double kQpsPerReader = 100000;
// A seed held back from tuning: later claims are re-checked on it.
constexpr uint64_t kHoldoutSeed = 90001;

struct WorkloadSpec {
  std::string name;
  // "planted" (PlantedCover) or "zipf" (ZipfFrequency).
  std::string family;
  uint64_t m = 0;
  uint64_t n = 0;
  // ZipfFrequency set size (s = 1); PlantedCover covers half of [0, n).
  uint64_t zipf_set_size = 256;
  // The workload's stream is the first `prefix_edges` edges of the shuffled
  // instance (0 = all of it).
  uint64_t prefix_edges = 0;
  // Ingest drive.
  uint64_t cadence = 0;       // snapshot every this many edges
  uint32_t threads = 0;       // shard workers; 0 = inline ingest
  uint32_t readers = 0;       // open-loop readers during ingest
  // Readers against the final snapshot after ingest, for workloads with no
  // readers during it, so the query metrics exist on every workload.
  double probe_seconds = 0;
  uint32_t probe_readers = 0;
  uint64_t seed_salt = 0;
};

// The named workload at full scale, or at the tiny scale the self-test
// uses. nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

streamkc::ServingState::Config StateConfig(const WorkloadSpec& spec);

struct Instance {
  std::vector<streamkc::Edge> edges;  // arrival order
  // Coverage the estimate is compared against: the planted coverage, or
  // lazy greedy on the streamed edges.
  double reference_coverage = 0;
  std::string reference_kind;
  uint64_t instance_seed = 0;
  uint64_t shuffle_seed = 0;
};

Instance MakeInstance(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
