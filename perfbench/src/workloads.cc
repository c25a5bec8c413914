#include "workloads.h"

#include <algorithm>

#include "core/params.h"
#include "offline/greedy.h"
#include "setsys/generators.h"
#include "stream/edge_stream.h"
#include "util/random.h"

namespace perfbench {

using namespace streamkc;

namespace {

WorkloadSpec IngestBulk(bool tiny) {
  WorkloadSpec w;
  w.name = "ingest_bulk";
  w.family = "planted";
  w.m = tiny ? 1024 : 4096;
  w.n = tiny ? 1u << 14 : 1u << 20;
  // One full snapshot segment per trial.
  w.prefix_edges = tiny ? 1u << 13 : 1u << 18;
  w.cadence = tiny ? 1u << 12 : 1u << 18;
  w.probe_seconds = tiny ? 0.05 : 0.25;
  w.probe_readers = 2;
  w.seed_salt = 0x1b;
  return w;
}

WorkloadSpec ServeFresh(bool tiny) {
  WorkloadSpec w;
  w.name = "serve_fresh";
  w.family = "zipf";
  w.m = tiny ? 1024 : 4096;
  w.n = tiny ? 1u << 14 : 1u << 20;
  w.zipf_set_size = tiny ? 64 : 256;
  w.prefix_edges = tiny ? 1u << 13 : 1u << 16;
  w.cadence = tiny ? 1u << 10 : 1u << 13;
  w.readers = 2;
  w.seed_salt = 0x5f;
  return w;
}

WorkloadSpec ShardedIngest(bool tiny) {
  WorkloadSpec w;
  w.name = "sharded_ingest";
  w.family = "zipf";
  w.m = tiny ? 1024 : 4096;
  w.n = tiny ? 1u << 14 : 1u << 20;
  w.zipf_set_size = tiny ? 64 : 256;
  w.prefix_edges = tiny ? 1u << 13 : 1u << 18;
  w.cadence = tiny ? 1u << 12 : 1u << 16;
  w.threads = 3;
  w.probe_seconds = tiny ? 0.05 : 0.25;
  w.probe_readers = 2;
  // A different salt from serve_fresh: a second Zipf instance.
  w.seed_salt = 0x53;
  return w;
}

WorkloadSpec FewSets(bool tiny) {
  WorkloadSpec w;
  w.name = "few_sets";
  w.family = "planted";
  // kα = 128 ≥ m: Figure 1's trivial branch.
  w.m = 64;
  w.n = tiny ? 1u << 14 : 1u << 20;
  w.cadence = tiny ? 1u << 10 : 1u << 12;
  w.readers = 2;
  w.seed_salt = 0xf5;
  return w;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  if (name == "ingest_bulk") return IngestBulk(tiny);
  if (name == "serve_fresh") return ServeFresh(tiny);
  if (name == "sharded_ingest") return ShardedIngest(tiny);
  if (name == "few_sets") return FewSets(tiny);
  return std::nullopt;
}

ServingState::Config StateConfig(const WorkloadSpec& spec) {
  ServingState::Config config;
  config.params = Params::Practical(spec.m, spec.n, kK, kAlpha);
  config.seed = kStateSeed;
  return config;
}

Instance MakeInstance(const WorkloadSpec& spec, uint64_t seed) {
  Instance out;
  out.instance_seed = SplitMix64(seed ^ spec.seed_salt);
  out.shuffle_seed = SplitMix64(out.instance_seed ^ 0x5851f42d4c957f2dull);
  GeneratedInstance gen =
      spec.family == "planted"
          ? PlantedCover(spec.m, spec.n, kK, /*coverage_fraction=*/0.5,
                         /*noise_set_size=*/16, out.instance_seed)
          : ZipfFrequency(spec.m, spec.n, spec.zipf_set_size, /*zipf_s=*/1.0,
                          out.instance_seed);
  out.edges = gen.system.MaterializeEdges();
  ApplyArrivalOrder(out.edges, ArrivalOrder::kRandom, out.shuffle_seed);
  if (spec.prefix_edges != 0 && spec.prefix_edges < out.edges.size()) {
    out.edges.resize(spec.prefix_edges);
  }
  if (spec.family == "planted" && spec.prefix_edges == 0) {
    out.reference_coverage = static_cast<double>(gen.planted_coverage);
    out.reference_kind = "planted";
    return out;
  }
  // Lazy greedy over exactly the streamed edges.
  std::vector<std::vector<ElementId>> sets(spec.m);
  for (const Edge& e : out.edges) sets[e.set].push_back(e.element);
  SetSystem streamed(spec.n, std::move(sets));
  out.reference_coverage =
      static_cast<double>(LazyGreedyMaxCover(streamed, kK).coverage);
  out.reference_kind = "lazy_greedy";
  return out;
}

}  // namespace perfbench
