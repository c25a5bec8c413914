// Shared helpers for streamkc behavioral tests.

#ifndef STREAMKC_TESTS_TEST_UTIL_H_
#define STREAMKC_TESTS_TEST_UTIL_H_

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/large_set.h"
#include "core/streaming_interface.h"
#include "dist/process_tree.h"
#include "fault/faulty_stream.h"
#include "hash/mersenne.h"
#include "offline/greedy.h"
#include "runtime/feed_stream.h"
#include "runtime/sketch_states.h"
#include "setsys/generators.h"
#include "setsys/set_system.h"
#include "sketch/f2_contributing.h"
#include "stream/edge.h"
#include "stream/text_stream.h"
#include "util/check.h"
#include "util/random.h"

namespace streamkc {

// Streams `sys` into `alg` in the given arrival order.
inline void FeedSystem(const SetSystem& sys, ArrivalOrder order, uint64_t seed,
                       StreamingEstimator& alg) {
  VectorEdgeStream stream = sys.MakeStream(order, seed);
  FeedStream(stream, alg);
}

// Feeds `updates` (id, count) to a sketch as one closed window, the way
// LargeSet drives it: the distinct ids ascending, hashed once by `hashes`,
// summed into the counters, then admitted.
inline void AddClosedWindow(
    F2Contributing& fc, const F2Contributing::Hashes& hashes,
    std::vector<std::pair<uint64_t, int64_t>> updates) {
  std::sort(updates.begin(), updates.end());
  std::vector<uint64_t> ids, folded;
  std::vector<int64_t> counts;
  for (const auto& [id, count] : updates) {
    if (ids.empty() || ids.back() != id) {
      ids.push_back(id);
      folded.push_back(MersenneFold(id));
      counts.push_back(0);
    }
    counts.back() += count;
  }
  const size_t n = ids.size();
  std::vector<uint64_t> keys(n), row_hashes(size_t{hashes.rows.depth()} * n);
  hashes.HashFoldedBatch(folded.data(), n, keys.data(), row_hashes.data());
  const HashedIds window{ids.data(), row_hashes.data(), keys.data(),
                         counts.data(), n};
  fc.AddCounts(window);
  fc.Admit(hashes, window);
}

// Feeds `updates` in order as closed windows of at most
// LargeSetComplete::kWindowEdges updates each.
inline void AddClosedWindows(
    F2Contributing& fc, const F2Contributing::Hashes& hashes,
    const std::vector<std::pair<uint64_t, int64_t>>& updates) {
  constexpr size_t kWindow = LargeSetComplete::kWindowEdges;
  for (size_t i = 0; i < updates.size(); i += kWindow) {
    AddClosedWindow(fc, hashes,
                    {updates.begin() + i,
                     updates.begin() + std::min(updates.size(), i + kWindow)});
  }
}

// The row family of an F2HeavyHitters test sketch: config.depth rows drawn
// from the config's seed, as DsjDistinguisher draws its own.
inline CountSketchRows RowsFor(const F2HeavyHitters::Config& config) {
  return CountSketchRows(config.depth, SplitMix64(config.seed));
}

// Greedy coverage, used as the OPT reference in quality assertions: greedy
// is within (1 - 1/e) of OPT, so OPT ≤ greedy / 0.632.
inline double OptUpperBound(const SetSystem& sys, uint64_t k) {
  return static_cast<double>(LazyGreedyMaxCover(sys, k).coverage) /
         (1.0 - 1.0 / 2.718281828459045);
}

inline uint64_t GreedyCoverage(const SetSystem& sys, uint64_t k) {
  return LazyGreedyMaxCover(sys, k).coverage;
}

// Unstructured synthetic edge stream (hash-random incidences) — the
// workload the runtime/fault tests shard and perturb. Pure function of the
// arguments; the same seed always yields the same token sequence.
inline std::vector<Edge> SyntheticEdges(size_t count, uint64_t seed,
                                        uint64_t num_sets = 256,
                                        uint64_t num_elements = 4096) {
  std::vector<Edge> edges;
  edges.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = SplitMix64(seed + i);
    edges.push_back(Edge{h % num_sets, SplitMix64(h) % num_elements});
  }
  return edges;
}

// Serves `edges` one Next() at a time, failing the calls whose index is in
// `fail_calls` with a transient error that the next call clears (the retry
// contract of FaultInjectingStream). Until the first failure, call i reads
// edge i, so {i, i+1, i+2} fails three consecutive reads at edge i.
class ScriptedFaultStream : public EdgeStream {
 public:
  ScriptedFaultStream(std::vector<Edge> edges,
                      std::vector<uint64_t> fail_calls)
      : edges_(std::move(edges)), fail_calls_(std::move(fail_calls)) {}

  bool Next(Edge* edge) override {
    const uint64_t call = calls_++;
    failing_ = std::find(fail_calls_.begin(), fail_calls_.end(), call) !=
               fail_calls_.end();
    if (failing_ || pos_ >= edges_.size()) return false;
    *edge = edges_[pos_++];
    return true;
  }
  void Reset() override {
    pos_ = 0;
    calls_ = 0;
    failing_ = false;
  }
  bool ok() const override { return !failing_; }
  bool transient() const override { return failing_; }
  std::string StatusMessage() const override {
    return failing_ ? "scripted transient read error" : std::string();
  }
  // Next() calls so far, failed ones included.
  uint64_t calls() const { return calls_; }

 private:
  std::vector<Edge> edges_;
  std::vector<uint64_t> fail_calls_;
  size_t pos_ = 0;
  uint64_t calls_ = 0;
  bool failing_ = false;
};

// Builds one of the named instance families at a common shape — the cell
// axis shared by the statistical-guarantee and differential sweeps.
// `family` ∈ {"uniform", "zipf", "planted"}.
inline GeneratedInstance MakeFamilyInstance(const std::string& family,
                                            uint64_t m, uint64_t n, uint64_t k,
                                            uint64_t seed) {
  if (family == "uniform") return RandomUniform(m, n, 12, seed);
  if (family == "zipf") return ZipfFrequency(m, n, 12, 1.1, seed);
  return PlantedCover(m, n, k, 0.5, 6, seed);
}

// Materializes `inst` as a randomly ordered edge stream (the general
// edge-arrival model's adversarial default for tests).
inline std::vector<Edge> InstanceEdges(const GeneratedInstance& inst,
                                       uint64_t order_seed) {
  std::vector<Edge> edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, order_seed);
  return edges;
}

// RAII temporary directory under TMPDIR (flat: tests create files, not
// subtrees); contents and the directory are removed on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr && *base != '\0'
                                       ? base
                                       : "/tmp") +
                       "/streamkc_test_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    CHECK(::mkdtemp(buf.data()) != nullptr);
    path_ = buf.data();
  }
  ~ScopedTempDir() {
    DIR* d = ::opendir(path_.c_str());
    if (d != nullptr) {
      while (dirent* ent = ::readdir(d)) {
        std::string name = ent->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  // Writes `content` to `<dir>/<name>` and returns the full path.
  std::string WriteFile(const std::string& name,
                        const std::string& content) const {
    std::string p = path_ + "/" + name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    CHECK(out.is_open());
    out << content;
    CHECK(out.good());
    return p;
  }

 private:
  std::string path_;
};

// A temp edge corpus on disk plus its segmented split — the shared fixture
// for every test that exercises file-backed segment ingest.
class ScopedTempCorpus {
 public:
  ScopedTempCorpus(const std::vector<Edge>& edges, uint32_t num_segments,
                   SegmentedTextStream::Config config = {})
      : path_(dir_.path() + "/corpus.txt") {
    WriteEdgesToFile(path_, edges);
    segmented_ = std::make_unique<SegmentedTextStream>(path_, num_segments,
                                                       config);
  }

  const std::string& path() const { return path_; }
  const ScopedTempDir& dir() const { return dir_; }
  SegmentedTextStream& segmented() { return *segmented_; }

 private:
  ScopedTempDir dir_;
  std::string path_;
  std::unique_ptr<SegmentedTextStream> segmented_;
};

// Spawn/pipe fixture for the multi-process reduction tree: a temp corpus,
// a checkpoint directory beside it, and inline/distributed runs over the
// same segment split, each returning the SERIALIZED final state — the
// bit-identical currency of the differential battery.
class ScopedWorkerHarness {
 public:
  struct Result {
    std::string state_blob;    // CoverageSketchState::Save bytes
    uint64_t fingerprint = 0;  // MergeFingerprint of the final state
    DistMetrics metrics;       // empty for inline runs
  };

  ScopedWorkerHarness(const std::vector<Edge>& edges, uint32_t num_segments)
      : corpus_(edges, num_segments), num_segments_(num_segments) {}

  std::string CheckpointDir() const {
    return corpus_.dir().path();  // flat dir: checkpoints sit by the corpus
  }

  // Opens segment i of the corpus, wrapped with stream faults when
  // `injector` carries any (called in the worker child post-fork).
  ProcessReductionTree<CoverageSketchState>::SegmentOpener MakeOpener(
      const FaultInjector* injector = nullptr) {
    return [this, injector](uint32_t segment) {
      std::unique_ptr<EdgeStream> s = corpus_.segmented().OpenSegment(segment);
      if (injector != nullptr && injector->plan().HasStreamFaults()) {
        s = WrapWithFaults(std::move(s), injector);
      }
      return s;
    };
  }

  Result RunDist(const DistOptions& options,
                 CoverageSketchState::Config config = {}) {
    ProcessReductionTree<CoverageSketchState> tree(
        options, [config](uint32_t) { return CoverageSketchState(config); });
    CoverageSketchState state =
        tree.Run(num_segments_, MakeOpener(options.fault_injector));
    Result r;
    r.fingerprint = state.MergeFingerprint();
    std::ostringstream os;
    state.Save(os);
    r.state_blob = os.str();
    r.metrics = tree.metrics();
    return r;
  }

  // Single-process reference pass: same segments, same batched ingest path.
  Result RunInline(size_t batch_size = 4096,
                   CoverageSketchState::Config config = {}) {
    CoverageSketchState state(config);
    EdgeBatch batch(batch_size);
    for (uint32_t seg = 0; seg < num_segments_; ++seg) {
      auto stream = corpus_.segmented().OpenSegment(seg);
      bool more = true;
      while (more) {
        batch.Clear();
        Edge e;
        while (batch.size() < batch_size && stream->Next(&e)) {
          batch.edges.push_back(e);
        }
        more = batch.size() == batch_size;
        if (!batch.empty()) {
          batch.Prefold();
          state.ProcessBatch(batch.View());
        }
      }
      CHECK(stream->ok());
    }
    Result r;
    r.fingerprint = state.MergeFingerprint();
    std::ostringstream os;
    state.Save(os);
    r.state_blob = os.str();
    return r;
  }

 private:
  ScopedTempCorpus corpus_;
  uint32_t num_segments_;
};

// Environment-scaled test knob: sweeps read their trial/seed counts from
// env vars so the default ctest run stays fast while the stress
// configuration (ctest -C stress) turns the same binaries up.
inline uint64_t EnvScaledU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  uint64_t parsed = std::strtoull(v, &end, 10);
  return (end != v && *end == '\0') ? parsed : fallback;
}

}  // namespace streamkc

#endif  // STREAMKC_TESTS_TEST_UTIL_H_
